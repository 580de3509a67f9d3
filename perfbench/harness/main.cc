// bdbench — the bdisk benchmark harness.
//
//   bdbench --workload ipp_heavy|ipp_light|serve_pull --seed N
//           --seconds S --trace 0|1 --serve-binary PATH --run-dir DIR
//   bdbench --calibrate ipp_heavy|ipp_light SEEDS
//
// Runs one workload for S seconds, prints what it measured for a human
// reader, and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Refuses to run from a non-optimized build.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/provenance.h"
#include "report.h"
#include "serve_bench.h"
#include "sim_bench.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bdbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --serve-binary PATH --run-dir DIR\n"
               "       bdbench --calibrate NAME SEEDS\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (!bdisk::core::OptimizedBuild()) {
    std::fprintf(stderr, "bdbench: refusing to measure a %s build\n",
                 bdisk::core::BuildType());
    return 2;
  }
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--calibrate" && i + 2 < argc) {
      return perfbench::CalibrateSimWorkload(
          argv[i + 1], std::strtoull(argv[i + 2], nullptr, 10));
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
    } else if (arg == "--serve-binary") {
      options.serve_binary = value;
    } else if (arg == "--run-dir") {
      options.run_dir = value;
    } else {
      return Usage();
    }
  }
  if (!(options.seconds > 0)) return Usage();

  std::printf("provenance: rev=%s build=%s workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n",
              bdisk::core::GitRev(), bdisk::core::BuildType(),
              options.workload.c_str(), options.seed, options.seconds,
              options.trace ? 1 : 0);
  perfbench::RunOutcome outcome;
  if (perfbench::IsSimWorkload(options.workload)) {
    outcome = perfbench::RunSimWorkload(options);
  } else if (options.workload == "serve_pull") {
    if (options.serve_binary.empty() || options.run_dir.empty()) {
      return Usage();
    }
    std::string error;
    if (!perfbench::RunServeWorkload(options, &outcome, &error)) {
      std::fprintf(stderr, "bdbench: serve_pull: %s\n", error.c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr, "bdbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  for (const auto& m : outcome.metrics) {
    perfbench::PrintLine(m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %" PRIu64 ", failed %" PRIu64 " (%.4f%%), %s\n",
              outcome.attempted, outcome.failed,
              outcome.attempted > 0
                  ? 100.0 * static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted)
                  : 0.0,
              outcome.correct ? "outputs correct" : "OUTPUT CHECK FAILED");
  std::printf("%s\n", outcome.ToJson().c_str());
  return 0;
}
