#ifndef PERFBENCH_HARNESS_SERVE_BENCH_H_
#define PERFBENCH_HARNESS_SERVE_BENCH_H_

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

/// Slot pacing of the measured bdisk_serve (`--slot-us`): 50k slots/s.
inline constexpr std::uint32_t kServeSlotUs = 20;

/// Runs the serve_pull workload: launches `options.serve_binary` on an
/// AF_UNIX socket in `options.run_dir`, drives it with an open-loop
/// Poisson pull stream over two client channels, and reconciles both
/// channels with the server's BYE -> STATS counters. Returns false (and
/// sets `error`) when the workload could not be run at all.
bool RunServeWorkload(const RunOptions& options, RunOutcome* out,
                      std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SERVE_BENCH_H_
