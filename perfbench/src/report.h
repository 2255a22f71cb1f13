// Statistics and output helpers of the benchmark driver.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <string>
#include <vector>

#include "json/json_value.h"

namespace perfbench {

/// Linear-interpolated quantile `q` in [0, 1] of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

/// Ordered (name, value, unit) list: the "metrics" object of the result line.
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  vegaplus::json::Value ToJson() const;
  /// One "name value unit" line per metric, for the human-readable report.
  std::string ToText() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Resident set size of this process in MB: the peak (VmHWM) or the
/// current one (VmRSS).
double RssMb(bool peak);
/// Return freed heap to the system, then reset VmHWM to the current
/// resident set size, so RssMb(true) covers only what runs after. Returns
/// false where the kernel does not support the reset.
bool ResetPeakRss();
/// CPU model from /proc/cpuinfo, "unknown" when unavailable.
std::string CpuModel();
/// CPUs this process may run on (what `nproc` prints).
size_t UsableCpus();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
