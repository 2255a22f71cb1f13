// The end-to-end dashboard benchmark: workload definitions, set-up, the
// closed-loop clients, the output oracle, and the metrics of one run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: the end-to-end metrics. true: the per-layer metrics of a traced
  /// phase, after an untraced phase of equal length that gives the tracing
  /// overhead.
  bool trace = false;
  /// Overrides for small runs; 0 keeps the workload's default.
  size_t rows = 0;
  size_t session_interactions = 0;
  /// Sessions per client; 0 = until the time is up.
  size_t max_sessions = 0;
  /// Set-up repetitions; setup_s is their median.
  size_t setups = 5;
  /// Where shard files and span traces go.
  std::string out_dir = ".";
};

/// The workload names, in documentation order.
std::vector<std::string> WorkloadNames();

/// Run one workload and print its report. The last line of standard output
/// is the result JSON. Returns the process exit code.
int RunWorkload(const Config& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
