// Morsel-driven parallel execution scaling: group-by, filter, and projection
// queries over a 1M+ row table, executed single-threaded (the baseline)
// and morsel-parallel at 1/2/4/8 threads. Verifies bit-identical results
// against the single-threaded engine at every parallelism level, reports
// wall-clock + speedup per condition (BENCH_morsel_scaling.json), and gates
// on >=2.5x end-to-end group-by speedup where the hardware has >=4 threads.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "common/random.h"
#include "sql/engine.h"

using namespace vegaplus;         // NOLINT
using namespace vegaplus::bench;  // NOLINT

namespace {

data::TablePtr MakeBigTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  data::Column key(data::DataType::kInt64);
  data::Column v(data::DataType::kFloat64);
  data::Column v2(data::DataType::kFloat64);
  key.Reserve(rows);
  v.Reserve(rows);
  v2.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    key.AppendInt(rng.UniformInt(0, 31));
    v.AppendDouble(rng.Uniform(0, 1));
    if (rng.NextBool(0.05)) {
      v2.AppendNull();
    } else {
      v2.AppendDouble(rng.Uniform(-100, 100));
    }
  }
  std::vector<data::Column> cols;
  cols.push_back(std::move(key));
  cols.push_back(std::move(v));
  cols.push_back(std::move(v2));
  return std::make_shared<data::Table>(
      data::Schema({{"key", data::DataType::kInt64},
                    {"v", data::DataType::kFloat64},
                    {"v2", data::DataType::kFloat64}}),
      std::move(cols));
}

struct Workload {
  const char* name;
  const char* sql;
};

constexpr Workload kWorkloads[] = {
    {"groupby",
     "SELECT key, COUNT(*) AS n, SUM(v) AS s, AVG(v2) AS a, MIN(v) AS lo, "
     "MAX(v2) AS hi FROM big GROUP BY key ORDER BY key"},
    {"filter_groupby",
     "SELECT key, COUNT(*) AS n, SUM(v2) AS s FROM big WHERE v < 0.5 "
     "GROUP BY key ORDER BY key"},
    {"projection", "SELECT v * 2 + v2 / 3 AS x, v - v2 AS y FROM big"},
};

double BestOf(sql::Engine& engine, const char* sql, int iterations,
              data::TablePtr* out) {
  double best = 0;
  for (int i = 0; i < iterations; ++i) {
    StopWatch timer;
    auto result = engine.Query(sql);
    double ms = timer.ElapsedMillis();
    if (!result.ok()) Die(result.status(), sql);
    if (i == 0 || ms < best) best = ms;
    *out = result->table;
  }
  return best;
}

}  // namespace

int main() {
  BenchConfig config = LoadConfig();
  BenchReporter reporter("morsel_scaling");
  reporter.RecordConfig(config);

  // 1M rows by default; VP_SIZES (and VP_PAPER_SCALE) override.
  size_t rows = 1000000;
  if (std::getenv("VP_SIZES") != nullptr || std::getenv("VP_PAPER_SCALE") != nullptr) {
    rows = config.sizes.back();
  }
  const int iterations = 3;
  const size_t cores = std::thread::hardware_concurrency();

  sql::Engine engine;
  engine.RegisterTable("big", MakeBigTable(rows, config.seed));
  std::printf("=== morsel scaling: %zu rows, %zu hardware threads ===\n\n", rows,
              cores);
  std::printf("%16s %10s %12s %10s %10s\n", "workload", "threads", "wall ms",
              "speedup", "identical");

  double groupby_best_speedup = 0;
  size_t groupby_best_threads = 1;
  const size_t thread_counts[] = {1, 2, 4, 8};

  for (const Workload& w : kWorkloads) {
    // Baseline: one thread forces the sequential path end to end.
    parallel::SetMorselParallelism(1);
    data::TablePtr baseline_table;
    double baseline_ms = BestOf(engine, w.sql, iterations, &baseline_table);
    std::printf("%16s %10s %12.1f %10s %10s\n", w.name, "base", baseline_ms, "1.00x",
                "-");
    reporter.AddMetric(std::string(w.name) + "_baseline_ms",
                       json::Value(baseline_ms));

    for (size_t threads : thread_counts) {
      parallel::SetMorselParallelism(threads);
      data::TablePtr table;
      double ms = BestOf(engine, w.sql, iterations, &table);
      const bool identical = table->Equals(*baseline_table);
      const double speedup = ms > 0 ? baseline_ms / ms : 0;
      std::printf("%16s %10zu %12.1f %9.2fx %10s\n", w.name, threads, ms, speedup,
                  identical ? "yes" : "NO");
      if (!identical) {
        std::fprintf(stderr, "FATAL: %s at %zu threads diverged from the "
                     "single-threaded result\n", w.name, threads);
        return 1;
      }
      json::Value row = json::Value::MakeObject();
      row.Set("threads", threads);
      row.Set("wall_ms", ms);
      row.Set("speedup", speedup);
      reporter.AddMetric(std::string(w.name) + "_t" + std::to_string(threads),
                         std::move(row));
      reporter.AddPhase(std::string(w.name) + "_t" + std::to_string(threads), ms);
      if (std::string(w.name) == "groupby" && threads <= cores &&
          speedup > groupby_best_speedup) {
        groupby_best_speedup = speedup;
        groupby_best_threads = threads;
      }
    }
  }
  parallel::SetMorselParallelism(0);

  std::printf("\ngroup-by best speedup: %.2fx at %zu threads (%zu hardware)\n",
              groupby_best_speedup, groupby_best_threads, cores);
  reporter.AddMetric("groupby_best_speedup", json::Value(groupby_best_speedup));
  reporter.AddMetric("hardware_threads", json::Value(cores));

  // Acceptance gate: >=2.5x end-to-end group-by speedup. Morsel parallelism
  // scales through real threads, so the gate only means something where the
  // hardware can run >=4 workers at once.
  if (cores < 4) {
    std::printf("GATE SKIPPED: %zu hardware threads (<4), no parallel headroom\n",
                cores);
    return 0;
  }
  if (groupby_best_speedup < 2.5) {
    std::fprintf(stderr, "GATE FAILED: group-by speedup %.2fx < 2.5x\n",
                 groupby_best_speedup);
    return 1;
  }
  std::printf("GATE OK (>=2.5x)\n");
  return 0;
}
