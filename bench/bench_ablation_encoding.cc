// Ablation (§4): result encoding — columnar binary ("Apache Arrow format")
// vs JSON rows — for plans that fetch raw data vs plans that fetch
// aggregates. The binary win should be largest on raw fetches.
//
// Also reports the dictionary-vs-flat string-column encoding inside the
// binary IPC format: the dataset is serialized once with its string columns
// dictionary-encoded (the default) and once decoded flat, and the payload
// byte counts land in BENCH_ablation_encoding.json (uploaded by CI), so the
// transfer-size win of dictionary codes is tracked across PRs.
#include <cstdio>

#include "bench_util.h"
#include "data/ipc.h"
#include "runtime/plan_executor.h"

using namespace vegaplus;         // NOLINT
using namespace vegaplus::bench;  // NOLINT

int main() {
  BenchConfig config = LoadConfig();
  BenchReporter reporter("ablation_encoding");
  reporter.RecordConfig(config);
  std::printf("=== Ablation: binary (Arrow-style) vs JSON result encoding ===\n\n");
  std::printf("%10s %-14s %14s %14s %9s\n", "size", "plan", "binary_ms", "json_ms",
              "ratio");

  const auto id = benchdata::TemplateId::kInteractiveHistogram;
  for (size_t size : config.sizes) {
    BENCH_ASSIGN(benchdata::BenchCase bc,
                 benchdata::MakeBenchCase(id, DatasetFor(id), size, config.seed));
    sql::Engine engine;
    engine.RegisterTable(bc.dataset.name, bc.dataset.table);
    rewrite::PlanBuilder builder(bc.spec);
    struct Condition {
      const char* name;
      rewrite::ExecutionPlan plan;
    };
    std::vector<Condition> conditions{{"raw-fetch", builder.AllClientPlan()},
                                      {"pushdown", builder.FullPushdownPlan()}};
    for (const auto& condition : conditions) {
      double ms[2];
      for (int binary = 1; binary >= 0; --binary) {
        runtime::MiddlewareOptions options;
        options.binary_encoding = binary == 1;
        options.enable_client_cache = false;
        options.enable_server_cache = false;
        runtime::PlanExecutor executor(bc.spec, &engine, options);
        BENCH_ASSIGN(runtime::EpisodeCost cost, executor.Initialize(condition.plan));
        ms[binary] = cost.total_ms;
      }
      std::printf("%10zu %-14s %14.2f %14.2f %8.2fx\n", size, condition.name, ms[1],
                  ms[0], ms[0] / ms[1]);
      json::Value m = json::Value::MakeObject();
      m.Set("size", size);
      m.Set("plan", condition.name);
      m.Set("binary_ms", ms[1]);
      m.Set("json_ms", ms[0]);
      reporter.AddMetric(StrFormat("%s_%zu", condition.name, size), std::move(m));
    }

    // Dictionary vs flat string columns inside the binary IPC payload.
    data::TablePtr dict_table = Recode(*bc.dataset.table, /*dict=*/true);
    data::TablePtr flat_table = Recode(*bc.dataset.table, /*dict=*/false);
    const size_t dict_bytes = data::SerializeBinary(*dict_table).size();
    const size_t flat_bytes = data::SerializeBinary(*flat_table).size();
    std::printf("%10zu %-14s %14zu %14zu %8.2fx  (ipc payload bytes)\n", size,
                "dict-vs-flat", dict_bytes, flat_bytes,
                static_cast<double>(flat_bytes) / static_cast<double>(dict_bytes));
    json::Value m = json::Value::MakeObject();
    m.Set("size", size);
    m.Set("ipc_bytes_dict", dict_bytes);
    m.Set("ipc_bytes_flat", flat_bytes);
    m.Set("flat_over_dict",
          static_cast<double>(flat_bytes) / static_cast<double>(dict_bytes));
    reporter.AddMetric(StrFormat("ipc_payload_%zu", size), std::move(m));
  }
  return 0;
}
