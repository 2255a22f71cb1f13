// Tile serving (middleware aggregation trees) vs base-table execution for
// the bin+aggregate shapes interactive histograms emit. For each dataset
// size the same prepared templates run through two middlewares over one
// engine — MiddlewareOptions::tile_serving on vs off — and the
// simulated server latency of every covered shape is compared. Covered
// shapes must come back bit-identical and at least 10x faster in simulated
// latency (hard gate: non-zero exit), since a tile hit touches a few
// hundred slots instead of scanning millions of base rows. Results land in
// BENCH_tile_serving.json (uploaded by CI).
#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "common/random.h"
#include "data/stats.h"
#include "runtime/middleware.h"
#include "transforms/binning.h"

using namespace vegaplus;         // NOLINT
using namespace vegaplus::bench;  // NOLINT

namespace {

/// Measures quantized to 0.25 so per-bin sums are exact in any
/// accumulation order (the bit-identity proviso for SUM/AVG).
data::TablePtr MakeTable(size_t rows, uint64_t seed) {
  data::Schema schema({{"x", data::DataType::kFloat64},
                       {"y", data::DataType::kFloat64},
                       {"i", data::DataType::kInt64}});
  Rng rng(seed);
  data::TableBuilder builder(schema);
  builder.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    builder.AppendRow(
        {data::Value::Double(0.25 * static_cast<double>(rng.Index(4000))),
         data::Value::Double(0.25 * static_cast<double>(rng.Index(8000)) - 500),
         data::Value::Int(static_cast<int64_t>(rng.Index(100000)))});
  }
  return builder.Build();
}

std::string HistogramTemplate(const char* col, const char* aggs,
                              const char* where) {
  return StrFormat(
      "SELECT ${start} + FLOOR((%s - ${start}) / ${step}) * ${step} AS bin0, "
      "(${start} + FLOOR((%s - ${start}) / ${step}) * ${step}) + ${step} AS "
      "bin1, %s FROM t%s GROUP BY "
      "${start} + FLOOR((%s - ${start}) / ${step}) * ${step}, "
      "(${start} + FLOOR((%s - ${start}) / ${step}) * ${step}) + ${step}",
      col, col, aggs, where, col, col);
}

struct QueryCase {
  std::string label;
  std::string sql_template;
  std::vector<rewrite::QueryParam> params;
};

Result<rewrite::QueryResponse> RunOnce(runtime::Middleware* mw,
                                       const QueryCase& qc) {
  VP_ASSIGN_OR_RETURN(rewrite::PreparedHandle handle, mw->Prepare(qc.sql_template));
  rewrite::QueryRequest request;
  request.handle = handle;
  request.params = qc.params;
  return mw->Submit(request)->Await();
}

}  // namespace

int main() {
  BenchConfig config = LoadConfig();
  // This benchmark needs enough rows for a base scan to dwarf the 5ms RTT
  // floor; default to 2M unless the caller pinned sizes explicitly.
  if (std::getenv("VP_SIZES") == nullptr) config.sizes = {2000000};
  BenchReporter reporter("tile_serving");
  reporter.RecordConfig(config);
  std::printf("=== Tile serving vs base-table execution ===\n\n");
  std::printf("%10s %-22s %12s %12s %8s %12s %12s\n", "size", "query",
              "base_sim_ms", "tile_sim_ms", "ratio", "base_wall_ms",
              "tile_wall_ms");

  const char* kAggs =
      "COUNT(*) AS cnt, SUM(y) AS sy, AVG(y) AS ay, MIN(y) AS mn, MAX(y) AS mx";
  bool gate_ok = true;
  json::Value rows_out = json::Value::MakeArray();

  for (size_t size : config.sizes) {
    StopWatch load_watch;
    data::TablePtr table = MakeTable(size, config.seed);
    sql::Engine engine;
    engine.RegisterTable("t", table);
    data::TableStats stats = data::ComputeTableStats(*table);
    reporter.AddPhase(StrFormat("load_%zu", size), load_watch.ElapsedMillis());

    runtime::MiddlewareOptions tiled_opts;
    tiled_opts.enable_client_cache = false;
    tiled_opts.enable_server_cache = false;
    runtime::Middleware tiled(&engine, tiled_opts);

    runtime::MiddlewareOptions base_opts = tiled_opts;
    base_opts.tile_serving = false;
    runtime::Middleware base(&engine, base_opts);

    const data::ColumnStats* xs = stats.Find("x");
    std::vector<QueryCase> cases;
    for (int maxbins : {10, 50, 200}) {
      transforms::Binning b = transforms::ComputeBinning(xs->min, xs->max, maxbins);
      cases.push_back({StrFormat("histogram_maxbins%d", maxbins),
                       HistogramTemplate("x", kAggs, ""),
                       {{"start", expr::EvalValue::Number(b.start)},
                        {"step", expr::EvalValue::Number(b.step)}}});
    }
    {
      // Bin-aligned brush over the middle of the domain.
      transforms::Binning b = transforms::ComputeBinning(xs->min, xs->max, 50);
      cases.push_back({"brushed_maxbins50",
                       HistogramTemplate("x", kAggs,
                                         " WHERE x >= ${lo} AND x < ${hi}"),
                       {{"start", expr::EvalValue::Number(b.start)},
                        {"step", expr::EvalValue::Number(b.step)},
                        {"lo", expr::EvalValue::Number(b.start + 5 * b.step)},
                        {"hi", expr::EvalValue::Number(b.start + 30 * b.step)}}});
    }

    // First covered query pays the tree build; time it as its own phase so
    // the per-query numbers below are steady-state serving.
    StopWatch build_watch;
    auto warm = RunOnce(&tiled, cases[0]);
    if (!warm.ok()) {
      std::fprintf(stderr, "warm-up failed: %s\n", warm.status().ToString().c_str());
      return 1;
    }
    reporter.AddPhase(StrFormat("tile_build_%zu", size), build_watch.ElapsedMillis());

    for (const QueryCase& qc : cases) {
      StopWatch tile_watch;
      auto tile_response = RunOnce(&tiled, qc);
      const double tile_wall = tile_watch.ElapsedMillis();
      StopWatch base_watch;
      auto base_response = RunOnce(&base, qc);
      const double base_wall = base_watch.ElapsedMillis();
      if (!tile_response.ok() || !base_response.ok()) {
        std::fprintf(stderr, "query %s failed\n", qc.label.c_str());
        return 1;
      }
      if (tile_response->source != rewrite::QueryResponse::Source::kTileStore) {
        std::fprintf(stderr, "FAIL: %s not served from tiles\n", qc.label.c_str());
        gate_ok = false;
      }
      if (!tile_response->table->Equals(*base_response->table)) {
        std::fprintf(stderr, "FAIL: %s tile/base results differ\n", qc.label.c_str());
        return 1;
      }
      const double ratio = base_response->latency_millis /
                           (tile_response->latency_millis > 0
                                ? tile_response->latency_millis
                                : 1e-9);
      std::printf("%10zu %-22s %12.3f %12.3f %7.1fx %12.3f %12.3f\n", size,
                  qc.label.c_str(), base_response->latency_millis,
                  tile_response->latency_millis, ratio, base_wall, tile_wall);
      json::Value row = json::Value::MakeObject();
      row.Set("size", size);
      row.Set("query", qc.label);
      row.Set("base_sim_ms", base_response->latency_millis);
      row.Set("tile_sim_ms", tile_response->latency_millis);
      row.Set("ratio", ratio);
      row.Set("base_wall_ms", base_wall);
      row.Set("tile_wall_ms", tile_wall);
      rows_out.Append(std::move(row));
      if (ratio < 10.0) {
        std::fprintf(stderr, "FAIL: %s ratio %.1fx below the 10x gate\n",
                     qc.label.c_str(), ratio);
        gate_ok = false;
      }
    }
    json::Value ts = json::Value::MakeObject();
    ts.Set("hits", tiled.tile_store()->stats().hits);
    ts.Set("builds", tiled.tile_store()->stats().builds);
    reporter.AddMetric(StrFormat("tile_store_%zu", size), std::move(ts));
  }

  reporter.AddMetric("queries", std::move(rows_out));
  reporter.AddMetric("gate", json::Value(gate_ok ? "pass" : "fail"));
  if (!gate_ok) {
    std::fprintf(stderr, "\nFAIL: tile serving below the 10x latency gate\n");
    return 1;
  }
  std::printf("\nAll covered shapes bit-identical and >=10x faster (simulated).\n");
  return 0;
}
