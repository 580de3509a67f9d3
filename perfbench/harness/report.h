#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command line of one benchmark run (see main.cc).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_binary;  // bdisk_serve, for the serve_pull workload.
  std::string run_dir;       // Scratch directory for sockets and logs.
};

/// What one run hands back: the output checks, the operation tally, and
/// the metrics it measured, in print order.
struct RunOutcome {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// The last stdout line of a run: one JSON object with exactly the keys
  /// correct, attempted, failed and metrics.
  std::string ToJson() const;
};

/// Seconds on the monotonic clock.
double NowSeconds();

/// Quantile `q` in [0,1] of `values` by linear interpolation between
/// order statistics; sorts `values` in place. 0 when empty.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

/// num / den, or 0 when den is not positive.
double Ratio(double num, double den);

/// Peak resident set of this process, MiB.
double SelfPeakRssMib();

/// Independent per-repetition seed from the run seed (SplitMix64 step).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t index);

/// Prints one "name value unit" line to stdout, for the human reader.
void PrintLine(const char* name, double value, const char* unit);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
