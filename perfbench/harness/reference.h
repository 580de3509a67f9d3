#ifndef PERFBENCH_HARNESS_REFERENCE_H_
#define PERFBENCH_HARNESS_REFERENCE_H_

#include <cstdint>

namespace perfbench {

/// Closed interval an output must fall in.
struct Spread {
  double lo;
  double hi;
};

/// Reference values of one simulated workload. The spreads are the
/// seed-to-seed range of each checked output over 30 calibration seeds
/// (`bdbench --calibrate WORKLOAD 30`), widened on each side by that
/// range. The check is distributional: a change that keeps the model's
/// distribution but not its random stream still passes. The digest is the
/// trajectory of one fixed-seed run and is reported, not gated.
struct SimReference {
  Spread mean_response;     // Measured-client mean response, slots.
  Spread mc_hit_ratio;      // Measured-client cache hits / accesses.
  Spread queue_drop_ratio;  // Pull-queue drops / submits.
  Spread pull_slot_share;   // Pull slots / all slots.
  std::uint64_t digest;     // TrajectoryDigest of the kReferenceSeed run.
};

/// Seed of the digest run (SystemConfig's default seed).
inline constexpr std::uint64_t kReferenceSeed = 20260704;

// TTR 250, 2.5M slots. Calibration min..max: mean response 213.77..236.23,
// hit ratio 0.6295..0.6549, drop ratio 0.74186..0.74250, pull-slot share
// 0.49934..0.50059.
inline constexpr SimReference kIppHeavyReference{
    {191.31, 258.69},
    {0.604063, 0.680347},
    {0.741222, 0.743142},
    {0.498085, 0.501838},
    0x26428A10D99CB621ULL};

// TTR 10, 6M slots. Calibration min..max: mean response 1.0716..1.0868,
// hit ratio 0.65000..0.65352, drop ratio exactly 0 (the queue never
// overflows at light load; the bound allows one drop in 10^4 submits),
// pull-slot share 0.20566..0.20653.
inline constexpr SimReference kIppLightReference{
    {1.056416, 1.101995},
    {0.646488, 0.657033},
    {0.0, 0.0001},
    {0.204791, 0.207398},
    0x203D6D15FDDA3F0FULL};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REFERENCE_H_
