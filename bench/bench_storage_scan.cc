// Out-of-core storage scan: zone-map pruning on vs off over an on-disk
// columnar shard. A clustered 4M-row table is written as a VPS1 shard and
// registered as a shard-backed SQL table; selective brush queries then run
// twice from a cold chunk cache — once with zone-map pruning, once through
// a QueryContext with zone_map_pruning = false — and must come back
// bit-identical. Because
// the table is clustered on the brushed column, the zone maps prove most
// chunks irrelevant, so the pruned scan decodes a fraction of the shard:
// the gate requires >=3x cold-scan speedup and a non-zero pruned-chunk
// count (hard gate: non-zero exit). Results land in BENCH_storage_scan.json
// (uploaded by CI).
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/random.h"
#include "data/table.h"
#include "sql/engine.h"
#include "storage/reader.h"
#include "storage/stats.h"
#include "storage/table_shard.h"

using namespace vegaplus;         // NOLINT
using namespace vegaplus::bench;  // NOLINT

namespace {

/// Clustered dataset: `x` increases monotonically (so chunk zones tile the
/// domain), `cat` changes in 16 long runs (so string zones are selective
/// too), `y` is quantized noise whose SUM is order-insensitive.
data::TablePtr MakeClusteredTable(size_t rows, uint64_t seed) {
  data::Schema schema({{"x", data::DataType::kFloat64},
                       {"y", data::DataType::kFloat64},
                       {"cat", data::DataType::kString}});
  Rng rng(seed);
  data::TableBuilder builder(schema);
  builder.Reserve(rows);
  const size_t run = rows / 16 + 1;
  for (size_t r = 0; r < rows; ++r) {
    builder.AppendRow(
        {data::Value::Double(static_cast<double>(r)),
         data::Value::Double(0.25 * static_cast<double>(rng.Index(4000))),
         data::Value::String("run_" + std::to_string(r / run))});
  }
  return builder.Build();
}

std::string ShardPath(size_t size) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = (dir != nullptr && dir[0]) ? dir : "/tmp";
  return base + "/vps_bench_storage_scan_" + std::to_string(size) + ".vps";
}

struct ScanCase {
  std::string label;
  std::string sql;
};

}  // namespace

int main() {
  BenchConfig config = LoadConfig();
  // Needs enough rows that decoding the whole shard visibly dwarfs decoding
  // the few chunks a selective brush admits; default to 4M unless pinned.
  if (std::getenv("VP_SIZES") == nullptr) config.sizes = {4000000};
  BenchReporter reporter("storage_scan");
  reporter.RecordConfig(config);
  std::printf("=== Shard scan: zone-map pruning on vs off (cold cache) ===\n\n");
  std::printf("%10s %-24s %12s %12s %8s %14s\n", "size", "query", "full_ms",
              "pruned_ms", "ratio", "chunks_pruned");

  bool gate_ok = true;
  json::Value rows_out = json::Value::MakeArray();

  for (size_t size : config.sizes) {
    StopWatch load_watch;
    data::TablePtr table = MakeClusteredTable(size, config.seed);
    reporter.AddPhase(StrFormat("load_%zu", size), load_watch.ElapsedMillis());

    const std::string path = ShardPath(size);
    StopWatch write_watch;
    storage::WriteOptions wopts;  // default chunk_rows = morsel size
    Status written = storage::TableShard::Write(path, *table, wopts);
    if (!written.ok()) {
      std::fprintf(stderr, "shard write failed: %s\n", written.ToString().c_str());
      return 1;
    }
    reporter.AddPhase(StrFormat("shard_write_%zu", size), write_watch.ElapsedMillis());

    auto reader = storage::Reader::Open(path);
    if (!reader.ok()) {
      std::fprintf(stderr, "shard open failed: %s\n", reader.status().ToString().c_str());
      return 1;
    }
    // Out-of-core for real: the resident-chunk budget is far below the
    // decoded table, so the unpruned scan cannot amortize across queries.
    (*reader)->set_residency_budget(64 << 20);

    sql::Engine engine;
    if (Status s = engine.RegisterShardTable("t", *reader); !s.ok()) {
      std::fprintf(stderr, "register failed: %s\n", s.ToString().c_str());
      return 1;
    }

    // Brushes over ~3% of the clustered domain; the last case mixes a
    // numeric brush with a dictionary-string equality.
    const double hi = static_cast<double>(size);
    std::vector<ScanCase> cases;
    cases.push_back({"brush_low_3pct",
                     StrFormat("SELECT COUNT(*) AS n, SUM(y) AS s FROM t "
                               "WHERE x >= %f AND x < %f",
                               0.10 * hi, 0.13 * hi)});
    cases.push_back({"brush_high_3pct",
                     StrFormat("SELECT COUNT(*) AS n, SUM(y) AS s FROM t "
                               "WHERE x >= %f AND x < %f",
                               0.90 * hi, 0.93 * hi)});
    cases.push_back({"brush_cat_run",
                     StrFormat("SELECT COUNT(*) AS n, SUM(y) AS s FROM t "
                               "WHERE cat = 'run_4' AND x < %f", 0.35 * hi)});

    common::QueryContext unpruned;
    unpruned.zone_map_pruning = false;
    for (const ScanCase& sc : cases) {
      // Unpruned cold scan.
      double full_ms = 0;
      Result<sql::QueryResult> full = Status::RuntimeError("unset");
      {
        (*reader)->EvictAll();
        StopWatch w;
        full = engine.Query(sc.sql, &unpruned);
        full_ms = w.ElapsedMillis();
      }
      // Pruned cold scan.
      const uint64_t pruned_before = storage::ChunksPruned();
      double pruned_ms = 0;
      Result<sql::QueryResult> pruned = Status::RuntimeError("unset");
      {
        (*reader)->EvictAll();
        StopWatch w;
        pruned = engine.Query(sc.sql);
        pruned_ms = w.ElapsedMillis();
      }
      const uint64_t chunks_pruned = storage::ChunksPruned() - pruned_before;

      if (!full.ok() || !pruned.ok()) {
        std::fprintf(stderr, "query %s failed: %s\n", sc.label.c_str(),
                     (!full.ok() ? full : pruned).status().ToString().c_str());
        return 1;
      }
      if (!full->table->Equals(*pruned->table)) {
        std::fprintf(stderr, "FAIL: %s pruned/full results differ\n",
                     sc.label.c_str());
        return 1;
      }
      const double ratio = full_ms / (pruned_ms > 0 ? pruned_ms : 1e-9);
      std::printf("%10zu %-24s %12.3f %12.3f %7.1fx %14llu\n", size,
                  sc.label.c_str(), full_ms, pruned_ms, ratio,
                  static_cast<unsigned long long>(chunks_pruned));
      json::Value row = json::Value::MakeObject();
      row.Set("size", size);
      row.Set("query", sc.label);
      row.Set("full_ms", full_ms);
      row.Set("pruned_ms", pruned_ms);
      row.Set("ratio", ratio);
      row.Set("chunks_pruned", static_cast<size_t>(chunks_pruned));
      rows_out.Append(std::move(row));
      if (chunks_pruned == 0) {
        std::fprintf(stderr, "FAIL: %s pruned no chunks\n", sc.label.c_str());
        gate_ok = false;
      }
      if (ratio < 3.0) {
        std::fprintf(stderr, "FAIL: %s ratio %.1fx below the 3x gate\n",
                     sc.label.c_str(), ratio);
        gate_ok = false;
      }
    }

    json::Value shard = json::Value::MakeObject();
    shard.Set("num_chunks", (*reader)->num_chunks());
    shard.Set("resident_budget_bytes", (*reader)->residency_budget());
    reporter.AddMetric(StrFormat("shard_%zu", size), std::move(shard));
    std::remove(path.c_str());
  }

  reporter.AddMetric("queries", std::move(rows_out));
  reporter.AddMetric("gate", json::Value(gate_ok ? "pass" : "fail"));
  if (!gate_ok) {
    std::fprintf(stderr, "\nFAIL: shard scan below the 3x pruning gate\n");
    return 1;
  }
  std::printf("\nAll brushes bit-identical and >=3x faster with pruning.\n");
  return 0;
}
