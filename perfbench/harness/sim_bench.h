#ifndef PERFBENCH_HARNESS_SIM_BENCH_H_
#define PERFBENCH_HARNESS_SIM_BENCH_H_

#include <cstdint>

#include "report.h"

namespace perfbench {

/// True for the simulated workloads (ipp_heavy, ipp_light).
bool IsSimWorkload(const std::string& name);

/// Runs one simulated workload: repeated fixed-horizon IPP runs through
/// core::System for `options.seconds`, each checked against the
/// benchmark's reference spread. With `options.trace` the run alternates
/// untraced and profiled repetitions and adds the per-layer metrics.
RunOutcome RunSimWorkload(const RunOptions& options);

/// Prints the seed-to-seed spread of the checked outputs over `seeds`
/// runs of `workload`, plus the reference-trajectory digest: the numbers
/// reference.h is written from.
int CalibrateSimWorkload(const std::string& workload, std::uint64_t seeds);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SIM_BENCH_H_
