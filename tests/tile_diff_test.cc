// Differential tests for middleware tile serving: every covered
// bin+aggregate shape answered from the tile store must be bit-identical to
// base-table execution, across zoom levels, brushes, null-heavy and
// dictionary-encoded bin columns, and morsel thread counts. Shapes the
// tiles cannot answer exactly (brushes straddling a bin boundary) must fall
// back to the DBMS path and still agree.
//
// The corpus quantizes measures to multiples of 0.25 so per-bin sums are
// exact in floating point regardless of accumulation order — the documented
// proviso under which SUM/AVG tile answers are bit-identical for any
// chunking (COUNT/MIN/MAX are order-invariant unconditionally).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "common/str_util.h"
#include "data/stats.h"
#include "data/table.h"
#include "exec_test_util.h"
#include "runtime/middleware.h"
#include "storage/reader.h"
#include "storage/stats.h"
#include "storage/table_shard.h"
#include "transforms/binning.h"

namespace vegaplus {
namespace runtime {
namespace {

using rewrite::QueryResponse;

data::TablePtr MakeCorpus(size_t rows, uint64_t seed) {
  data::Schema schema({{"x", data::DataType::kFloat64},
                       {"y", data::DataType::kFloat64},
                       {"g", data::DataType::kString},
                       {"i", data::DataType::kInt64}});
  const char* cats[] = {"alpha", "beta", "gamma", "delta", "epsilon"};
  Rng rng;
  rng.Seed(seed);
  data::TableBuilder builder(schema);
  builder.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    // Quantized to 0.25: exactly representable addends.
    double x = 0.25 * static_cast<double>(rng.Index(400));        // [0, 100)
    double y = 0.25 * static_cast<double>(rng.Index(2000)) - 50;  // [-50, 450)
    bool x_null = rng.Index(20) == 0;  // ~5%
    bool y_null = rng.Index(10) == 0;  // ~10%
    bool g_null = rng.Index(33) == 0;  // ~3%
    builder.AppendRow(
        {x_null ? data::Value::Null() : data::Value::Double(x),
         y_null ? data::Value::Null() : data::Value::Double(y),
         g_null ? data::Value::Null()
                : data::Value::String(cats[rng.Index(5)]),
         data::Value::Int(static_cast<int64_t>(rng.Index(1000)) - 500)});
  }
  return builder.Build();
}

/// The post-flatten histogram template the VDT rewriter emits, as a
/// prepared template with the bin parameters as holes (bound exactly as
/// doubles — no text round-trip).
std::string HistogramTemplate(const std::string& col, const std::string& aggs,
                              const std::string& where) {
  return StrFormat(
      "SELECT ${start} + FLOOR((%s - ${start}) / ${step}) * ${step} AS bin0, "
      "(${start} + FLOOR((%s - ${start}) / ${step}) * ${step}) + ${step} AS "
      "bin1, %s FROM t%s GROUP BY "
      "${start} + FLOOR((%s - ${start}) / ${step}) * ${step}, "
      "(${start} + FLOOR((%s - ${start}) / ${step}) * ${step}) + ${step}",
      col.c_str(), col.c_str(), aggs.c_str(), where.c_str(), col.c_str(),
      col.c_str());
}

class TileDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeCorpus(20000, 7);
    engine_.RegisterTable("t", table_);
    stats_ = data::ComputeTableStats(*table_);

    MiddlewareOptions tiled;
    tiled.enable_client_cache = false;
    tiled.enable_server_cache = false;
    tile_mw_ = std::make_unique<Middleware>(&engine_, tiled);
    ASSERT_NE(tile_mw_->tile_store(), nullptr);

    MiddlewareOptions plain;
    plain.enable_client_cache = false;
    plain.enable_server_cache = false;
    plain.tile_serving = false;
    base_mw_ = std::make_unique<Middleware>(&engine_, plain);
    ASSERT_EQ(base_mw_->tile_store(), nullptr);
  }

  transforms::Binning BinningFor(const std::string& col, int maxbins) {
    const data::ColumnStats* cs = stats_.Find(col);
    EXPECT_NE(cs, nullptr);
    return transforms::ComputeBinning(cs->min, cs->max, maxbins);
  }

  /// Run one bound template through both middlewares; the results must be
  /// bit-identical. Returns the tile middleware's delivery source.
  QueryResponse::Source CompareBoth(const std::string& sql_template,
                                    const std::vector<rewrite::QueryParam>& params) {
    auto run = [&](Middleware* mw) {
      auto handle = mw->Prepare(sql_template);
      EXPECT_TRUE(handle.ok()) << handle.status() << "\n" << sql_template;
      rewrite::QueryRequest request;
      request.handle = *handle;
      request.params = params;
      return mw->Submit(request)->Await();
    };
    auto tiled = run(tile_mw_.get());
    auto base = run(base_mw_.get());
    EXPECT_TRUE(tiled.ok()) << tiled.status() << "\n" << sql_template;
    EXPECT_TRUE(base.ok()) << base.status() << "\n" << sql_template;
    if (!tiled.ok() || !base.ok()) return QueryResponse::Source::kDbms;
    EXPECT_EQ(base->source, QueryResponse::Source::kDbms);
    EXPECT_TRUE(tiled->table->Equals(*base->table))
        << sql_template << "\ntile rows=" << tiled->table->num_rows()
        << " base rows=" << base->table->num_rows();
    return tiled->source;
  }

  data::TablePtr table_;
  sql::Engine engine_;
  data::TableStats stats_;
  std::unique_ptr<Middleware> tile_mw_;
  std::unique_ptr<Middleware> base_mw_;
};

constexpr const char* kAggs =
    "COUNT(*) AS cnt, COUNT(y) AS cy, SUM(y) AS sy, AVG(y) AS ay, "
    "MIN(i) AS mi, MAX(i) AS ma, MIN(x) AS mx, MAX(y) AS my";

TEST_F(TileDiffTest, HistogramZoomLevelsBitIdentical) {
  const size_t scans_before = engine_.lifetime_stats().rows_scanned;
  size_t expected_hits = 0;
  for (int maxbins : {5, 10, 23, 57, 100, 200}) {
    transforms::Binning b = BinningFor("x", maxbins);
    std::vector<rewrite::QueryParam> params = {
        {"start", expr::EvalValue::Number(b.start)},
        {"step", expr::EvalValue::Number(b.step)}};
    auto source = CompareBoth(HistogramTemplate("x", kAggs, ""), params);
    EXPECT_EQ(source, QueryResponse::Source::kTileStore) << "maxbins=" << maxbins;
    ++expected_hits;
  }
  EXPECT_EQ(tile_mw_->stats().tile_hits, expected_hits);
  EXPECT_EQ(tile_mw_->stats().dbms_executions, 0u);
  // One tree build reads the table directly; tile-served answers never go
  // through the engine, so only the base middleware's scans accrue.
  const size_t per_query = table_->num_rows();
  EXPECT_EQ(engine_.lifetime_stats().rows_scanned,
            scans_before + expected_hits * per_query);
}

TEST_F(TileDiffTest, NullHeavyColumnKeepsNullBinRow) {
  transforms::Binning b = BinningFor("y", 40);
  std::vector<rewrite::QueryParam> params = {
      {"start", expr::EvalValue::Number(b.start)},
      {"step", expr::EvalValue::Number(b.step)}};
  auto source = CompareBoth(
      HistogramTemplate("y", "COUNT(*) AS cnt, SUM(x) AS sx, AVG(x) AS ax", ""),
      params);
  EXPECT_EQ(source, QueryResponse::Source::kTileStore);
}

TEST_F(TileDiffTest, BinAlignedBrushServedFromTiles) {
  transforms::Binning b = BinningFor("x", 20);
  // Brush bounds on bin boundaries: every slot is fully in or out.
  const double lo = b.start + 2 * b.step;
  const double hi = b.start + 11 * b.step;
  std::string where = " WHERE x >= ${lo} AND x < ${hi}";
  std::vector<rewrite::QueryParam> params = {
      {"start", expr::EvalValue::Number(b.start)},
      {"step", expr::EvalValue::Number(b.step)},
      {"lo", expr::EvalValue::Number(lo)},
      {"hi", expr::EvalValue::Number(hi)}};
  auto source = CompareBoth(HistogramTemplate("x", kAggs, where), params);
  EXPECT_EQ(source, QueryResponse::Source::kTileStore);
  EXPECT_EQ(tile_mw_->stats().dbms_executions, 0u);
}

TEST_F(TileDiffTest, StraddlingBrushFallsBackAndAgrees) {
  transforms::Binning b = BinningFor("x", 20);
  // Bounds in the interior of occupied bins: exact answering needs rows,
  // so the tile store must refuse and the DBMS path must serve it.
  const double lo = b.start + 2.5 * b.step;
  const double hi = b.start + 10.5 * b.step;
  std::string where = " WHERE x >= ${lo} AND x < ${hi}";
  std::vector<rewrite::QueryParam> params = {
      {"start", expr::EvalValue::Number(b.start)},
      {"step", expr::EvalValue::Number(b.step)},
      {"lo", expr::EvalValue::Number(lo)},
      {"hi", expr::EvalValue::Number(hi)}};
  auto source = CompareBoth(HistogramTemplate("x", kAggs, where), params);
  EXPECT_EQ(source, QueryResponse::Source::kDbms);
  EXPECT_GE(tile_mw_->tile_store()->stats().coverage_misses, 1u);
  EXPECT_EQ(tile_mw_->stats().dbms_executions, 1u);
}

TEST_F(TileDiffTest, DictStringCategoricalBitIdentical) {
  ASSERT_TRUE(table_->ColumnByName("g")->dict_encoded());
  auto source = CompareBoth(
      "SELECT g, COUNT(*) AS cnt, SUM(x) AS sx, AVG(y) AS ay, MIN(i) AS mi, "
      "MAX(i) AS ma FROM t GROUP BY g",
      {});
  EXPECT_EQ(source, QueryResponse::Source::kTileStore);
}

TEST_F(TileDiffTest, UncoveredShapesFallBack) {
  // Aggregating a string column, HAVING, and scalar aggregates all bypass
  // the tile store.
  for (const char* sql :
       {"SELECT g, MIN(g) AS mg FROM t GROUP BY g",
        "SELECT g, COUNT(*) AS c FROM t GROUP BY g HAVING c > 10",
        "SELECT COUNT(*) AS c FROM t"}) {
    auto source = CompareBoth(sql, {});
    EXPECT_EQ(source, QueryResponse::Source::kDbms) << sql;
  }
}

TEST_F(TileDiffTest, MorselThreadSweepBitIdentical) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    // Many chunks on the 20k-row corpus.
    testutil::MorselConfigGuard guard(/*morsel_rows=*/1024, threads);

    // Fresh middlewares so trees are rebuilt under this thread count.
    MiddlewareOptions opts;
    opts.enable_client_cache = false;
    opts.enable_server_cache = false;
    tile_mw_ = std::make_unique<Middleware>(&engine_, opts);
    MiddlewareOptions plain = opts;
    plain.tile_serving = false;
    base_mw_ = std::make_unique<Middleware>(&engine_, plain);

    for (int maxbins : {10, 57}) {
      transforms::Binning b = BinningFor("x", maxbins);
      std::vector<rewrite::QueryParam> params = {
          {"start", expr::EvalValue::Number(b.start)},
          {"step", expr::EvalValue::Number(b.step)}};
      auto source = CompareBoth(HistogramTemplate("x", kAggs, ""), params);
      EXPECT_EQ(source, QueryResponse::Source::kTileStore)
          << "threads=" << threads << " maxbins=" << maxbins;
    }
  }
}

// Concurrent first-touch of one tree: the build is single-flight, so
// concurrent requesters either get tile answers or fall back — every
// delivered result must agree with base execution. Exercised under TSan via
// the `concurrency` label.
TEST_F(TileDiffTest, ConcurrentFirstTouchSingleFlight) {
  transforms::Binning b = BinningFor("x", 30);
  const std::string sql_template = HistogramTemplate("x", kAggs, "");
  std::vector<rewrite::QueryParam> params = {
      {"start", expr::EvalValue::Number(b.start)},
      {"step", expr::EvalValue::Number(b.step)}};

  // Resolve the expected result once through the base path.
  auto base_handle = base_mw_->Prepare(sql_template);
  ASSERT_TRUE(base_handle.ok()) << base_handle.status();
  rewrite::QueryRequest base_request;
  base_request.handle = *base_handle;
  base_request.params = params;
  auto expected = base_mw_->Submit(base_request)->Await();
  ASSERT_TRUE(expected.ok()) << expected.status();

  auto handle = tile_mw_->Prepare(sql_template);
  ASSERT_TRUE(handle.ok()) << handle.status();

  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::vector<Status> statuses(kThreads, Status::OK());
  // char, not bool: vector<bool> bit-packs, so per-thread writes would race.
  std::vector<char> equal(kThreads, 0);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&, i] {
      auto session = tile_mw_->CreateSession();
      rewrite::QueryRequest request;
      request.handle = *handle;
      request.params = params;
      request.client_id = static_cast<uint64_t>(i) + 1;
      auto response = session->Submit(request)->Await();
      if (!response.ok()) {
        statuses[i] = response.status();
        return;
      }
      equal[i] = response->table->Equals(*expected->table) ? 1 : 0;
    });
  }
  for (auto& w : workers) w.join();
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i];
    EXPECT_TRUE(equal[i]) << "worker " << i;
  }
  // A repeat submission after the dust settles must be a tile hit.
  rewrite::QueryRequest again;
  again.handle = *handle;
  again.params = params;
  auto response = tile_mw_->Submit(again)->Await();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->source, QueryResponse::Source::kTileStore);
  EXPECT_GE(tile_mw_->stats().tile_hits, 1u);
}

// A shard-backed table builds its tree once: the staleness probe reads the
// catalog identity (the shard reader), not a materialized table, so later
// tile-shaped queries neither rebuild nor page in a chunk. Re-registering
// the name rebuilds.
TEST(TileShardTest, ShardTreeBuildsOnceAndHitsPageInNothing) {
  const data::TablePtr table = MakeCorpus(20000, 7);
  const std::string path = ::testing::TempDir() + "vps_tile_diff_shard.vps";
  storage::WriteOptions opts;
  opts.chunk_rows = 1024;
  ASSERT_TRUE(storage::TableShard::Write(path, *table, opts).ok());
  const auto open = [&]() -> std::shared_ptr<storage::Reader> {
    auto reader = storage::Reader::Open(path);
    EXPECT_TRUE(reader.ok()) << reader.status();
    return reader.ok() ? *reader : nullptr;
  };
  std::shared_ptr<storage::Reader> reader = open();
  ASSERT_NE(reader, nullptr);
  sql::Engine engine;
  ASSERT_TRUE(engine.RegisterShardTable("t", reader).ok());
  Middleware mw(&engine, MiddlewareOptions{});
  ASSERT_NE(mw.tile_store(), nullptr);

  const data::TableStats stats = data::ComputeTableStats(*table);
  const transforms::Binning b =
      transforms::ComputeBinning(stats.Find("x")->min, stats.Find("x")->max, 20);
  auto handle = mw.Prepare(HistogramTemplate("x", kAggs, ""));
  ASSERT_TRUE(handle.ok()) << handle.status();
  rewrite::QueryRequest request;
  request.handle = *handle;
  request.params = {{"start", expr::EvalValue::Number(b.start)},
                    {"step", expr::EvalValue::Number(b.step)}};

  constexpr int kQueries = 4;
  for (int q = 0; q < kQueries; ++q) {
    reader->EvictAll();  // a probe that reads the table must page in
    const uint64_t paged_before = storage::ChunksPagedIn();
    auto response = mw.Submit(request)->Await();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->source, QueryResponse::Source::kTileStore) << q;
    if (q > 0) {
      EXPECT_EQ(storage::ChunksPagedIn(), paged_before) << q;
    }
    mw.ClearCaches();
  }
  EXPECT_EQ(mw.tile_store()->stats().builds, 1u);
  EXPECT_EQ(mw.tile_store()->stats().hits, static_cast<size_t>(kQueries));

  std::shared_ptr<storage::Reader> reopened = open();
  ASSERT_NE(reopened, nullptr);
  ASSERT_TRUE(engine.RegisterShardTable("t", reopened).ok());
  auto response = mw.Submit(request)->Await();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->source, QueryResponse::Source::kTileStore);
  EXPECT_EQ(mw.tile_store()->stats().builds, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace runtime
}  // namespace vegaplus
