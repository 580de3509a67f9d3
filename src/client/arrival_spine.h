#ifndef BDISK_CLIENT_ARRIVAL_SPINE_H_
#define BDISK_CLIENT_ARRIVAL_SPINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "broadcast/page.h"
#include "sim/rng.h"
#include "sim/types.h"
#include "workload/access_generator.h"
#include "workload/think_time.h"

namespace bdisk::client {

using broadcast::PageId;

/// SoA scratch for one chunk of batched virtual-client arrivals: parallel
/// timestamp / page / steady-coin columns, filled by FillArrivalBatch and
/// consumed by the classify pass. Sized once (one small chunk, reused for
/// every batch) so the drain never allocates.
struct ArrivalScratch {
  explicit ArrivalScratch(std::size_t capacity)
      : at(capacity), page(capacity), steady(capacity) {}

  std::size_t Capacity() const { return at.size(); }

  std::vector<sim::SimTime> at;
  std::vector<PageId> page;
  std::vector<std::uint8_t> steady;  // 0 or 1.
};

/// Fills `out` with consecutive arrivals drawn from `*next_arrival` up to
/// (and including) `horizon`, at most Capacity() of them. Returns the
/// count, advances `*next_arrival` past the last filled arrival (or to the
/// first arrival beyond the horizon), and leaves `rng` exactly where a
/// one-at-a-time loop would: per arrival the draw order is page (alias
/// bucket + acceptance), steady coin, think interval — the same
/// interleaving as VirtualClient's unfused path, so trajectories are
/// bit-identical.
/// The RNG state lives in a local (register-resident) copy across the
/// loop; nothing else is read or written, so the batch is a pure function
/// of (rng, next_arrival).
inline std::size_t FillArrivalBatch(const workload::AccessGenerator& generator,
                                    const workload::ThinkTime& think,
                                    double steady_perc, sim::Rng& rng,
                                    sim::SimTime* next_arrival,
                                    sim::SimTime horizon,
                                    ArrivalScratch* out) {
  sim::Rng local = rng;
  sim::SimTime next = *next_arrival;
  const std::size_t capacity = out->Capacity();
  sim::SimTime* at = out->at.data();
  PageId* page = out->page.data();
  std::uint8_t* steady = out->steady.data();
  std::size_t n = 0;
  while (n < capacity && next <= horizon) {
    at[n] = next;
    page[n] = generator.Next(local);
    steady[n] = local.NextBernoulli(steady_perc) ? 1 : 0;
    next += think.Next(local);
    ++n;
  }
  rng = local;
  *next_arrival = next;
  return n;
}

}  // namespace bdisk::client

#endif  // BDISK_CLIENT_ARRIVAL_SPINE_H_
