#include "report.h"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

void Metrics::Add(const std::string& name, double value, const std::string& unit) {
  // JSON has no NaN or infinity; a metric without samples reads 0.
  entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

vegaplus::json::Value Metrics::ToJson() const {
  vegaplus::json::Value out = vegaplus::json::Value::MakeObject();
  for (const Entry& e : entries_) {
    vegaplus::json::Value metric = vegaplus::json::Value::MakeObject();
    metric.Set("value", e.value);
    metric.Set("unit", e.unit);
    out.Set(e.name, std::move(metric));
  }
  return out;
}

std::string Metrics::ToText() const {
  std::string out;
  char line[256];
  for (const Entry& e : entries_) {
    std::snprintf(line, sizeof(line), "  %-40s %16.4f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    out += line;
  }
  return out;
}

double RssMb(bool peak) {
  const std::string field = peak ? "VmHWM:" : "VmRSS:";
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) {
      return std::strtod(line.c_str() + field.size(), nullptr) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // proc(5): writing 5 resets the peak resident set size
  out.flush();
  return out.good();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<size_t>(n);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace perfbench
