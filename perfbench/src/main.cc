// perfbench: the end-to-end dashboard benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--rows N] [--session-interactions N] [--max-sessions N]
//             [--setups N] [--out-dir DIR]
//
// Prints a human-readable report, then one JSON result line. perfbench/run.py
// builds this binary and is the usual entry point; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const std::string& problem) {
  std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "                 [--rows N] [--session-interactions N] [--max-sessions N]\n"
               "                 [--setups N] [--out-dir DIR]\nworkloads:");
  for (const std::string& name : perfbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseCount(const char* text, size_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *end != '\0' || *text == '-') return false;
  *out = static_cast<size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const char* value = argv[i + 1];
    size_t n = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      if (!ParseCount(value, &n)) return Usage("--seed takes a whole number");
      config.seed = n;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (!ParseCount(value, &n) || n > 1) return Usage("--trace takes 0 or 1");
      config.trace = n == 1;
    } else if (flag == "--rows") {
      if (!ParseCount(value, &config.rows)) return Usage("--rows takes a whole number");
    } else if (flag == "--session-interactions") {
      if (!ParseCount(value, &config.session_interactions)) {
        return Usage("--session-interactions takes a whole number");
      }
    } else if (flag == "--max-sessions") {
      if (!ParseCount(value, &config.max_sessions)) {
        return Usage("--max-sessions takes a whole number");
      }
    } else if (flag == "--setups") {
      if (!ParseCount(value, &config.setups) || config.setups == 0) {
        return Usage("--setups takes a positive whole number");
      }
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (config.workload.empty()) return Usage("--workload is required");
  return perfbench::RunWorkload(config);
}
