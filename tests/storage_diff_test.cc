// Differential suite for the out-of-core storage layer: a table written
// through storage::TableShard and served back through storage::Reader must
// answer every query bit-identically to its in-memory twin — with zone-map
// pruning on or off, at any morsel thread count, and under concurrent
// scans with a residency budget small enough to force LRU eviction churn.
// Corrupted or truncated shard files must fail with a Status, never a
// crash. Registered under `unit` (ASan/UBSan CI), `differential`, and
// `concurrency` (TSan CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/str_util.h"
#include "data/ipc.h"
#include "data/stats.h"
#include "data/table.h"
#include "exec_test_util.h"
#include "expr/batch_eval.h"
#include "expr/bind.h"
#include "expr/compiler.h"
#include "expr/parser.h"
#include "expr_corpus_test_util.h"
#include "runtime/middleware.h"
#include "sql/engine.h"
#include "sql/sql_parser.h"
#include "storage/column_file.h"
#include "storage/reader.h"
#include "storage/stats.h"
#include "storage/table_shard.h"
#include "transforms/binning.h"

namespace vegaplus {
namespace {

using data::TablePtr;
using testutil::kInterpreted;
using testutil::kUnpruned;
using testutil::MorselConfigGuard;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "vps_storage_diff_" + name;
}

/// A clustered table where zone maps actually exclude: `x` is monotone over
/// the rows (so chunk/morsel ranges are disjoint), `cat` cycles through a
/// small dictionary in long runs, and `v` carries nulls and NaNs.
TablePtr MakeClusteredTable(size_t rows) {
  data::Column x(data::DataType::kFloat64);
  data::Column v(data::DataType::kFloat64);
  data::Column cat(data::DataType::kString);
  Rng rng(99);
  for (size_t r = 0; r < rows; ++r) {
    x.AppendDouble(static_cast<double>(r));
    if (rng.NextBool(0.05)) {
      v.AppendNull();
    } else if (rng.NextBool(0.02)) {
      v.AppendDouble(std::nan(""));
    } else {
      v.AppendDouble(rng.Uniform(-1, 1));
    }
    cat.AppendString("run_" + std::to_string(r / (rows / 8 + 1)));
  }
  std::vector<data::Column> cols;
  cols.push_back(std::move(x));
  cols.push_back(std::move(v));
  cols.push_back(std::move(cat));
  return std::make_shared<data::Table>(
      data::Schema({{"x", data::DataType::kFloat64},
                    {"v", data::DataType::kFloat64},
                    {"cat", data::DataType::kString}}),
      std::move(cols));
}

// ---------------------------------------------------------------------------
// Round-trip bit-identity
// ---------------------------------------------------------------------------

TEST(StorageRoundTripTest, ShardRoundTripsBitIdentically) {
  for (bool dict : {true, false}) {
    TablePtr table = testutil::MakeRandomExprTable(11, /*rows=*/5000);
    if (!dict) table = testutil::FlatTwin(*table);
    const std::string path =
        TempPath(dict ? "roundtrip_dict.vps" : "roundtrip_flat.vps");
    storage::WriteOptions opts;
    opts.chunk_rows = 777;  // short boundary chunk included
    ASSERT_TRUE(storage::TableShard::Write(path, *table, opts).ok());

    auto reader = storage::Reader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status();
    EXPECT_EQ((*reader)->total_rows(), table->num_rows());
    EXPECT_GT((*reader)->num_chunks(), 1u);
    auto back = (*reader)->ReadAll();
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE((*back)->Equals(*table)) << "dict=" << dict;
    std::remove(path.c_str());
  }
}

TEST(StorageRoundTripTest, SingleChunkAndEmptyShards) {
  TablePtr table = testutil::MakeRandomExprTable(13, /*rows=*/100);
  const std::string path = TempPath("single_chunk.vps");
  storage::WriteOptions opts;
  opts.chunk_rows = 100000;  // rows < chunk_rows: one chunk
  ASSERT_TRUE(storage::TableShard::Write(path, *table, opts).ok());
  auto reader = storage::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ((*reader)->num_chunks(), 1u);
  auto back = (*reader)->ReadAll();
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE((*back)->Equals(*table));
  std::remove(path.c_str());

  std::vector<data::Column> empty_cols;
  for (size_t i = 0; i < table->schema().num_fields(); ++i) {
    empty_cols.emplace_back(table->schema().field(i).type);
  }
  data::Table empty(table->schema(), std::move(empty_cols));
  const std::string empty_path = TempPath("empty.vps");
  ASSERT_TRUE(storage::TableShard::Write(empty_path, empty, {}).ok());
  auto empty_reader = storage::Reader::Open(empty_path);
  ASSERT_TRUE(empty_reader.ok()) << empty_reader.status();
  EXPECT_EQ((*empty_reader)->num_chunks(), 0u);
  auto empty_back = (*empty_reader)->ReadAll();
  ASSERT_TRUE(empty_back.ok()) << empty_back.status();
  EXPECT_EQ((*empty_back)->num_rows(), 0u);
  EXPECT_TRUE((*empty_back)->schema() == table->schema());
  std::remove(empty_path.c_str());
}

// ---------------------------------------------------------------------------
// Shard-backed SQL vs the in-memory twin
// ---------------------------------------------------------------------------

// The WHERE-heavy query corpus: fused numeric/string conjunctions (the
// shapes the zone maps see), plus aggregation/order shapes to prove the
// whole pipeline downstream of the scan is unaffected.
const char* kShardQueries[] = {
    "SELECT * FROM t WHERE dd > 0",
    "SELECT * FROM t WHERE dd > 25 AND ii <= 5",
    "SELECT * FROM t WHERE dd >= -3.5 AND dd < 12.5",
    "SELECT * FROM t WHERE ii <> 4",
    "SELECT * FROM t WHERE sc = 'cat_3'",
    "SELECT * FROM t WHERE sc <> 'cat_3'",
    "SELECT * FROM t WHERE sc = 'not_in_dict'",
    "SELECT * FROM t WHERE sc <> 'not_in_dict'",
    "SELECT * FROM t WHERE ss = 'mid' AND dd > 0",
    "SELECT * FROM t WHERE sh = 'id_1'",
    "SELECT * FROM t WHERE sc = 'cat_1' AND ii < 5 AND dd > -10",
    "SELECT dd * 2 + ii AS z, ss FROM t WHERE ii <> 4",
    "SELECT ii, COUNT(*) AS n, SUM(dd) AS s, AVG(dd) AS a FROM t "
    "GROUP BY ii ORDER BY ii",
    "SELECT ss, MIN(dd) AS lo, MAX(dd) AS hi FROM t GROUP BY ss ORDER BY ss",
    "SELECT COUNT(*) AS n, COUNT(dd) AS nv, MIN(ss) AS first_s FROM t",
    "SELECT ss, dd FROM t WHERE dd IS NOT NULL ORDER BY dd DESC, ss "
    "LIMIT 25 OFFSET 5",
    "SELECT MONTH(tt) AS m, COUNT(*) AS n FROM t GROUP BY MONTH(tt) ORDER BY m",
    // The rewriter's brush form: forward and reversed bounds, a NULL bound,
    // a range outside the domain, and two brushes at once.
    "SELECT * FROM t WHERE (dd BETWEEN LEAST(-3.5, 12.5) AND GREATEST(-3.5, 12.5))",
    "SELECT * FROM t WHERE (ii BETWEEN LEAST(5, -2) AND GREATEST(5, -2))",
    "SELECT * FROM t WHERE (dd BETWEEN LEAST(NULL, 3) AND GREATEST(NULL, 3))",
    "SELECT * FROM t WHERE (dd BETWEEN LEAST(900, 1000) AND GREATEST(900, 1000))",
    "SELECT ii, COUNT(*) AS n FROM t WHERE (tt BETWEEN LEAST(1000000000000, "
    "950000000000) AND GREATEST(1000000000000, 950000000000)) AND (dd BETWEEN "
    "LEAST(0, 40) AND GREATEST(0, 40)) GROUP BY ii ORDER BY ii",
    // A WHERE that compiles but does not fuse, and one the compiler rejects:
    // the shard's per-chunk filter runs the program's general path for the
    // first and the interpreter for the second (UnfusedWheresTakeBothFilterLegs).
    "SELECT * FROM t WHERE dd * 2 > ii",
    "SELECT * FROM t WHERE ss = 3 OR dd > 10",
};

class StorageDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = testutil::MakeRandomExprTable(31, /*rows=*/20000);
    mem_engine_.RegisterTable("t", table_);

    path_ = TempPath("diff.vps");
    storage::WriteOptions opts;
    opts.chunk_rows = 1024;
    ASSERT_TRUE(storage::TableShard::Write(path_, *table_, opts).ok());
    auto reader = storage::Reader::Open(path_);
    ASSERT_TRUE(reader.ok()) << reader.status();
    reader_ = *reader;
    ASSERT_TRUE(shard_engine_.RegisterShardTable("t", reader_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  TablePtr Run(sql::Engine& engine, const char* sql,
              const common::QueryContext* ctx = nullptr) {
    auto result = engine.Query(sql, ctx);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? result->table : nullptr;
  }

  TablePtr table_;
  std::string path_;
  std::shared_ptr<storage::Reader> reader_;
  sql::Engine mem_engine_;
  sql::Engine shard_engine_;
};

// Every query, at every thread count, with pruning on and off: the
// shard-backed engine must match the in-memory engine bit for bit.
TEST_F(StorageDiffTest, ShardAnswersQueriesBitIdenticallyAcrossThreads) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    MorselConfigGuard guard(/*morsel_rows=*/1024, threads);
    for (bool pruning : {true, false}) {
      const common::QueryContext* ctx = pruning ? nullptr : &kUnpruned;
      for (const char* sql : kShardQueries) {
        TablePtr want = Run(mem_engine_, sql, ctx);
        TablePtr got = Run(shard_engine_, sql, ctx);
        ASSERT_NE(want, nullptr) << sql;
        ASSERT_NE(got, nullptr) << sql;
        ASSERT_TRUE(got->Equals(*want))
            << sql << "\n(threads=" << threads << " pruning=" << pruning
            << ")\nshard:\n" << got->ToString(8) << "memory:\n"
            << want->ToString(8);
      }
    }
  }
}

// The last two kShardQueries reach the per-chunk filter's two legs: a
// compiled program without a fused conjunction (so no chunk is pruned) and
// the interpreter.
TEST_F(StorageDiffTest, UnfusedWheresTakeBothFilterLegs) {
  const auto compile = [&](const char* sql) -> std::optional<expr::Program> {
    auto stmt = sql::ParseSql(sql);
    EXPECT_TRUE(stmt.ok()) << sql << ": " << stmt.status();
    if (!stmt.ok()) return std::nullopt;
    return expr::Compiler::Compile(expr::FoldConstantCalls((*stmt)->where),
                                   reader_->schema());
  };
  auto program = compile("SELECT * FROM t WHERE dd * 2 > ii");
  ASSERT_TRUE(program.has_value());
  EXPECT_TRUE(program->fused_preds.empty());
  EXPECT_TRUE(program->fused_tree_ops.empty());
  EXPECT_FALSE(compile("SELECT * FROM t WHERE ss = 3 OR dd > 10").has_value());
}

// Selective brushes over a clustered shard must actually prune chunks — and
// stay bit-identical to the force-disabled baseline.
TEST_F(StorageDiffTest, SelectiveBrushPrunesChunksWithZeroDivergence) {
  TablePtr clustered = MakeClusteredTable(20000);
  const std::string path = TempPath("clustered.vps");
  storage::WriteOptions opts;
  opts.chunk_rows = 1024;
  ASSERT_TRUE(storage::TableShard::Write(path, *clustered, opts).ok());
  auto reader = storage::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();

  sql::Engine mem;
  mem.RegisterTable("c", clustered);
  sql::Engine shard;
  ASSERT_TRUE(shard.RegisterShardTable("c", *reader).ok());

  const char* brushes[] = {
      "SELECT COUNT(*) AS n, SUM(v) AS s FROM c WHERE x >= 100 AND x < 600",
      "SELECT * FROM c WHERE x < 64",
      "SELECT * FROM c WHERE x > 19900 AND v >= 0",
      "SELECT COUNT(*) AS n FROM c WHERE cat = 'run_0'",
      "SELECT COUNT(*) AS n FROM c WHERE cat = 'absent_category'",
      // The rewriter's brush form, forward and reversed, beside a second
      // conjunct, and outside the domain.
      "SELECT COUNT(*) AS n, SUM(v) AS s FROM c "
      "WHERE (x BETWEEN LEAST(100, 600) AND GREATEST(100, 600))",
      "SELECT * FROM c WHERE (x BETWEEN LEAST(19950, 19000) AND GREATEST(19950, 19000))",
      "SELECT COUNT(*) AS n FROM c "
      "WHERE (x BETWEEN LEAST(4000, 2500) AND GREATEST(4000, 2500)) AND v >= 0",
      "SELECT * FROM c WHERE (x BETWEEN LEAST(50000, 40000) AND GREATEST(50000, 40000))",
  };
  for (const char* sql : brushes) {
    (*reader)->EvictAll();
    const uint64_t pruned_before = storage::ChunksPruned();
    TablePtr on = Run(shard, sql);
    const uint64_t pruned_delta = storage::ChunksPruned() - pruned_before;
    (*reader)->EvictAll();
    TablePtr off = Run(shard, sql, &kUnpruned);
    TablePtr want = Run(mem, sql);
    ASSERT_NE(on, nullptr) << sql;
    ASSERT_NE(off, nullptr) << sql;
    ASSERT_NE(want, nullptr) << sql;
    EXPECT_GT(pruned_delta, 0u) << sql;
    ASSERT_TRUE(on->Equals(*off)) << sql;
    ASSERT_TRUE(on->Equals(*want)) << sql;
  }
  std::remove(path.c_str());
}

// An ordered compare against a NULL bound is false on every row, so the
// fused leaf selects nothing and every zone refutes it: the shard pages in
// no chunk, and the answer equals the in-memory engine's and the
// interpreter's, which scans every chunk.
TEST_F(StorageDiffTest, NullBrushBoundPagesInNothing) {
  constexpr size_t kRows = 20000;
  TablePtr clustered = MakeClusteredTable(kRows);
  const std::string path = TempPath("clustered_null.vps");
  storage::WriteOptions opts;
  opts.chunk_rows = 1000;
  ASSERT_TRUE(storage::TableShard::Write(path, *clustered, opts).ok());
  auto reader = storage::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  ASSERT_EQ((*reader)->num_chunks(), 20u);
  sql::Engine mem;
  mem.RegisterTable("c", clustered);
  sql::Engine shard;
  ASSERT_TRUE(shard.RegisterShardTable("c", *reader).ok());

  for (const char* sql :
       {"SELECT COUNT(*) AS n FROM c WHERE (x BETWEEN LEAST(NULL, 600) AND "
        "GREATEST(NULL, 600))",
        "SELECT COUNT(*) AS n FROM c WHERE x >= NULL"}) {
    (*reader)->EvictAll();
    const uint64_t paged_before = storage::ChunksPagedIn();
    auto pruned = shard.Query(sql);
    const uint64_t paged = storage::ChunksPagedIn() - paged_before;
    ASSERT_TRUE(pruned.ok()) << sql << ": " << pruned.status();
    EXPECT_EQ(paged, 0u) << sql;
    EXPECT_EQ(pruned->stats.rows_scanned, 0u) << sql;
    EXPECT_EQ(pruned->table->ValueAt(0, "n"), data::Value::Int(0)) << sql;

    auto interpreted = shard.Query(sql, &kInterpreted);
    auto want = mem.Query(sql);
    ASSERT_TRUE(interpreted.ok()) << sql << ": " << interpreted.status();
    ASSERT_TRUE(want.ok()) << sql << ": " << want.status();
    EXPECT_EQ(interpreted->stats.rows_scanned, kRows) << sql;
    const std::string bytes = data::SerializeBinary(*pruned->table);
    EXPECT_EQ(bytes, data::SerializeBinary(*interpreted->table)) << sql;
    EXPECT_EQ(bytes, data::SerializeBinary(*want->table)) << sql;
  }
  std::remove(path.c_str());
}

// A shard query counts as scanned the rows of the chunks it paged in:
// pruned chunks count nothing, and rows the chunk filter drops still count.
TEST_F(StorageDiffTest, ShardRowsScannedCountsRowsOfSurvivingChunks) {
  constexpr size_t kRows = 20000;
  constexpr size_t kChunkRows = 1024;
  TablePtr clustered = MakeClusteredTable(kRows);
  const std::string path = TempPath("clustered_scan.vps");
  storage::WriteOptions opts;
  opts.chunk_rows = kChunkRows;
  ASSERT_TRUE(storage::TableShard::Write(path, *clustered, opts).ok());
  auto reader = storage::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status();
  sql::Engine shard;
  ASSERT_TRUE(shard.RegisterShardTable("c", *reader).ok());

  // x is the row index, so a brush over [lo, hi] reaches the chunks from
  // lo / kChunkRows to hi / kChunkRows.
  const auto rows_of_chunks = [&](size_t lo, size_t hi) {
    return std::min(kRows, (hi / kChunkRows + 1) * kChunkRows) -
           lo / kChunkRows * kChunkRows;
  };
  const struct {
    const char* sql;
    size_t pruned_rows_scanned;
  } cases[] = {
      {"SELECT COUNT(*) AS n FROM c WHERE x >= 100 AND x < 600",
       rows_of_chunks(100, 599)},
      {"SELECT COUNT(*) AS n FROM c "
       "WHERE (x BETWEEN LEAST(3000, 1000) AND GREATEST(3000, 1000))",
       rows_of_chunks(1000, 3000)},
      {"SELECT * FROM c WHERE x > 19900", rows_of_chunks(19901, kRows - 1)},
      {"SELECT * FROM c WHERE x > 50000", 0},
  };
  for (const auto& c : cases) {
    for (bool pruning : {true, false}) {
      auto result = shard.Query(c.sql, pruning ? nullptr : &kUnpruned);
      ASSERT_TRUE(result.ok()) << c.sql << ": " << result.status();
      EXPECT_EQ(result->stats.rows_scanned, pruning ? c.pruned_rows_scanned : kRows)
          << c.sql << " pruning=" << pruning;
    }
  }
  std::remove(path.c_str());
}

// The same zone maps accelerate the pure in-memory case: morsels whose
// zones reject the fused predicates are skipped, with identical selection
// vectors.
TEST(StorageMorselPruningTest, InMemoryMorselPruningMatchesUnpruned) {
  TablePtr table = MakeClusteredTable(20000);
  const char* predicates[] = {
      "datum.x < 100",
      "datum.x >= 19000 && datum.v > 0",
      "datum.cat == 'run_2'",
      "datum.cat == 'absent_category'",
      "datum.x > 5000 && datum.x <= 6000 && datum.cat != 'run_0'",
  };
  for (size_t threads : {1u, 4u}) {
    MorselConfigGuard guard(/*morsel_rows=*/512, threads);
    for (const char* text : predicates) {
      auto parsed = expr::ParseExpression(text);
      ASSERT_TRUE(parsed.ok()) << text;
      auto program = expr::Compiler::Compile(*parsed, table->schema());
      ASSERT_TRUE(program.has_value()) << text;
      ASSERT_FALSE(program->fused_preds.empty()) << text;

      const uint64_t pruned_before = storage::MorselsPruned();
      std::vector<int32_t> on, off;
      expr::RunFilterMorselParallel(*table, *program, &on);
      const uint64_t pruned_delta = storage::MorselsPruned() - pruned_before;
      expr::RunFilterMorselParallel(*table, *program, &off, &kUnpruned);
      EXPECT_EQ(on, off) << text << " threads=" << threads;
      EXPECT_GT(pruned_delta, 0u) << text << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Corruption: Status, never a crash
// ---------------------------------------------------------------------------

class StorageCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TablePtr table = testutil::MakeRandomExprTable(17, /*rows=*/2000);
    path_ = TempPath("corrupt.vps");
    storage::WriteOptions opts;
    opts.chunk_rows = 256;
    ASSERT_TRUE(storage::TableShard::Write(path_, *table, opts).ok());
    std::ifstream in(path_, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes_.empty());
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutated_path().c_str());
  }

  std::string mutated_path() const { return path_ + ".mut"; }

  void WriteMutated(const std::string& contents) {
    std::ofstream out(mutated_path(), std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(StorageCorruptionTest, TruncatedShardsFailOpenWithStatus) {
  // Every strict prefix must be rejected at Open: the header, dictionary
  // pages, directory, and payload extents are all bounds-checked up front.
  for (size_t len : {size_t{0}, size_t{3}, size_t{9}, size_t{40},
                     bytes_.size() / 4, bytes_.size() / 2,
                     bytes_.size() - 200, bytes_.size() - 1}) {
    if (len >= bytes_.size()) continue;
    WriteMutated(bytes_.substr(0, len));
    auto reader = storage::Reader::Open(mutated_path());
    EXPECT_FALSE(reader.ok()) << "prefix length " << len;
  }
}

TEST_F(StorageCorruptionTest, BadMagicAndGarbageFailOpenWithStatus) {
  std::string bad = bytes_;
  bad[0] = 'X';
  WriteMutated(bad);
  EXPECT_FALSE(storage::Reader::Open(mutated_path()).ok());

  WriteMutated("this is not a shard file at all");
  EXPECT_FALSE(storage::Reader::Open(mutated_path()).ok());

  EXPECT_FALSE(storage::Reader::Open(TempPath("nonexistent.vps")).ok());
}

TEST_F(StorageCorruptionTest, CorruptPayloadFailsDecodeWithStatus) {
  // Open validates directory extents, not payload contents; smashing the
  // first chunk's envelope must surface at decode as a Status.
  auto clean = storage::ColumnFile::Open(path_);
  ASSERT_TRUE(clean.ok()) << clean.status();
  const uint64_t off = (*clean)->chunk(0).payload_off;
  std::string bad = bytes_;
  ASSERT_LT(off, bad.size());
  bad[off] ^= 0x5a;  // envelope magic byte
  WriteMutated(bad);

  auto reader = storage::Reader::Open(mutated_path());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_FALSE((*reader)->Chunk(0).ok());
  EXPECT_FALSE((*reader)->ReadAll().ok());
}

// ---------------------------------------------------------------------------
// Concurrency: shared reader, small budget, races on the LRU
// ---------------------------------------------------------------------------

TEST(StorageConcurrencyTest, ConcurrentScansUnderEvictionStayIdentical) {
  TablePtr table = MakeClusteredTable(20000);
  const std::string path = TempPath("concurrent.vps");
  storage::WriteOptions opts;
  opts.chunk_rows = 512;
  ASSERT_TRUE(storage::TableShard::Write(path, *table, opts).ok());
  auto opened = storage::Reader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status();
  std::shared_ptr<storage::Reader> reader = *opened;
  // Budget far below the table: every pass churns the LRU.
  reader->set_residency_budget(64 * 1024);

  // The executor's shard scan: the fused WHERE prunes chunks and filters
  // each surviving chunk through the compiled program.
  auto where = expr::ParseExpression("datum.x < 2500");
  ASSERT_TRUE(where.ok()) << where.status();
  auto program = expr::Compiler::Compile(*where, reader->schema());
  ASSERT_TRUE(program.has_value());
  const std::vector<storage::Predicate> preds = expr::ZonePredicates(*program);
  ASSERT_EQ(preds.size(), 1u);
  const storage::ChunkFilter filter = [&](const data::Table& chunk, std::vector<int32_t>* keep) {
    expr::BatchEvaluator(chunk).RunFilter(*program, keep);
  };
  auto want = reader->Scan(preds, filter);
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ((*want)->num_rows(), 2500u);
  const std::string want_bytes = data::SerializeBinary(**want);

  constexpr int kThreads = 8;
  constexpr int kIters = 6;
  std::vector<int> failures(kThreads, 0);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kIters; ++i) {
          auto got = (i % 2 == 0) ? reader->Scan(preds, filter) : reader->ReadAll();
          if (!got.ok()) {
            ++failures[t];
            continue;
          }
          if (i % 2 == 0 && data::SerializeBinary(**got) != want_bytes) {
            ++failures[t];
          }
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
  EXPECT_GT(storage::ChunksPagedIn(), 0u);
  std::remove(path.c_str());
}

// Execution options travel with the query: two threads share one shard
// engine, one with the default context and one with vectorization and
// pruning off. Every result is bit-identical to its solo run and every
// rows_scanned equals its solo value. The two sides scan different row
// counts, so an option leaking from one query into the other would show.
TEST_F(StorageDiffTest, ConcurrentQueriesKeepTheirOwnOptions) {
  const common::QueryContext baseline{nullptr, /*vectorized=*/false,
                                      /*zone_map_pruning=*/false};
  const common::QueryContext* const contexts[] = {nullptr, &baseline};
  struct Solo {
    std::string bytes;
    size_t rows_scanned = 0;
  };
  std::vector<Solo> solo[2];
  for (int side = 0; side < 2; ++side) {
    for (const char* sql : kShardQueries) {
      auto result = shard_engine_.Query(sql, contexts[side]);
      ASSERT_TRUE(result.ok()) << sql << ": " << result.status();
      solo[side].push_back(
          {data::SerializeBinary(*result->table), result->stats.rows_scanned});
    }
  }
  size_t differing = 0;
  for (size_t q = 0; q < solo[0].size(); ++q) {
    if (solo[0][q].rows_scanned != solo[1][q].rows_scanned) ++differing;
  }
  ASSERT_GT(differing, 0u);

  constexpr int kRounds = 3;
  int mismatches[2] = {0, 0};
  std::vector<std::thread> threads;
  for (int side = 0; side < 2; ++side) {
    threads.emplace_back([&, side] {
      for (int round = 0; round < kRounds; ++round) {
        size_t q = 0;
        for (const char* sql : kShardQueries) {
          auto result = shard_engine_.Query(sql, contexts[side]);
          const Solo& want = solo[side][q++];
          if (!result.ok() || result->stats.rows_scanned != want.rows_scanned ||
              data::SerializeBinary(*result->table) != want.bytes) {
            ++mismatches[side];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches[0], 0) << "default context";
  EXPECT_EQ(mismatches[1], 0) << "vectorized = false, zone_map_pruning = false";
}

// ---------------------------------------------------------------------------
// Tile-store spill: levels round-trip through the chunked format
// ---------------------------------------------------------------------------

TEST(StorageTileSpillTest, SpilledTileLevelsAnswerBitIdentically) {
  using runtime::Middleware;
  using runtime::MiddlewareOptions;

  // Quantized measures (multiples of 0.25): per-bin sums are exact, so the
  // tile answer is bit-identical regardless of accumulation order.
  data::Schema schema({{"x", data::DataType::kFloat64},
                       {"y", data::DataType::kFloat64}});
  data::TableBuilder builder(schema);
  Rng rng(5);
  for (size_t r = 0; r < 20000; ++r) {
    builder.AppendRow(
        {rng.Index(20) == 0
             ? data::Value::Null()
             : data::Value::Double(0.25 * static_cast<double>(rng.Index(400))),
         data::Value::Double(0.25 * static_cast<double>(rng.Index(2000)) -
                             50)});
  }
  TablePtr table = builder.Build();
  sql::Engine engine;
  engine.RegisterTable("t", table);
  data::TableStats stats = data::ComputeTableStats(*table);
  const data::ColumnStats* xs = stats.Find("x");
  ASSERT_NE(xs, nullptr);
  transforms::Binning bin = transforms::ComputeBinning(xs->min, xs->max, 25);

  MiddlewareOptions resident_opts;
  resident_opts.enable_client_cache = false;
  resident_opts.enable_server_cache = false;
  Middleware resident_mw(&engine, resident_opts);
  ASSERT_NE(resident_mw.tile_store(), nullptr);

  MiddlewareOptions spill_opts = resident_opts;
  spill_opts.tile_options.spill_dir = ::testing::TempDir();
  // 1 byte: every spilled level is evicted, every answer hydrates.
  spill_opts.tile_options.resident_level_bytes = 1;
  Middleware spill_mw(&engine, spill_opts);
  ASSERT_NE(spill_mw.tile_store(), nullptr);

  const std::string sql_template = StrFormat(
      "SELECT ${start} + FLOOR((x - ${start}) / ${step}) * ${step} AS bin0, "
      "(${start} + FLOOR((x - ${start}) / ${step}) * ${step}) + ${step} AS "
      "bin1, COUNT(*) AS n, SUM(y) AS s FROM t GROUP BY "
      "${start} + FLOOR((x - ${start}) / ${step}) * ${step}, "
      "(${start} + FLOOR((x - ${start}) / ${step}) * ${step}) + ${step}");
  auto run = [&](Middleware& mw) {
    auto handle = mw.Prepare(sql_template);
    EXPECT_TRUE(handle.ok()) << handle.status();
    rewrite::QueryRequest request;
    request.handle = *handle;
    request.params = {{"start", expr::EvalValue::Number(bin.start)},
                      {"step", expr::EvalValue::Number(bin.step)}};
    return mw.Submit(request)->Await();
  };

  auto resident = run(resident_mw);
  auto spilled = run(spill_mw);
  ASSERT_TRUE(resident.ok()) << resident.status();
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  ASSERT_EQ(resident->source, rewrite::QueryResponse::Source::kTileStore);
  ASSERT_EQ(spilled->source, rewrite::QueryResponse::Source::kTileStore);
  EXPECT_EQ(data::SerializeBinary(*spilled->table),
            data::SerializeBinary(*resident->table));

  tiles::TileStoreStats tile_stats = spill_mw.tile_store()->stats();
  EXPECT_GT(tile_stats.levels_spilled, 0u);
  EXPECT_GT(tile_stats.levels_evicted, 0u);
  EXPECT_GT(tile_stats.level_hydrations, 0u);
  EXPECT_GT(tile_stats.hits, 0u);
}

}  // namespace
}  // namespace vegaplus
