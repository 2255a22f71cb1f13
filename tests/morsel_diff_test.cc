// Differential suite for morsel-driven parallel execution: the expression
// corpus and a group-by/filter query set run both single-threaded and
// morsel-parallel (small morsels, so even modest tables span many morsels),
// and the results must be bit-identical — same registers, same selection
// vectors, same tables, at every parallelism level. Registered under both
// the `differential` and `concurrency` ctest labels so the TSan CI job
// exercises the parallel paths.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "data/table.h"
#include "exec_test_util.h"
#include "expr/batch_eval.h"
#include "expr/compiler.h"
#include "expr/parser.h"
#include "expr_corpus_test_util.h"
#include "sql/engine.h"
#include "transforms/transforms.h"

namespace vegaplus {
namespace {

using data::TablePtr;
using data::Value;
using testutil::MorselConfigGuard;
using testutil::SameCell;

TEST(MorselDiffTest, CorpusRegistersMatchSingleThreaded) {
  MorselConfigGuard guard(/*morsel_rows=*/257, /*threads=*/4);
  TablePtr table = testutil::MakeRandomExprTable(7, /*rows=*/2000);
  size_t compiled = 0;
  for (const std::string& text : testutil::BuildExprCorpus()) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    auto program = expr::Compiler::Compile(*parsed, table->schema());
    if (!program) continue;  // scalar-only: no morsel path to compare
    ++compiled;
    expr::Vec single = expr::BatchEvaluator(*table).Run(*program);
    expr::Vec morsel = expr::RunMorselParallel(*table, *program);
    ASSERT_EQ(morsel.kind, single.kind) << text;
    ASSERT_EQ(morsel.is_const, single.is_const) << text;
    for (size_t r = 0; r < table->num_rows(); ++r) {
      ASSERT_TRUE(SameCell(single.CellValue(r), morsel.CellValue(r)))
          << text << " row " << r
          << ": single=" << single.CellValue(r).ToString()
          << " morsel=" << morsel.CellValue(r).ToString();
    }
  }
  EXPECT_GT(compiled, 1000u);  // the corpus is mostly vectorizable
}

TEST(MorselDiffTest, FilterSelectionsMatchSingleThreaded) {
  MorselConfigGuard guard(/*morsel_rows=*/311, /*threads=*/4);
  TablePtr table = testutil::MakeRandomExprTable(23, /*rows=*/5000);
  const char* predicates[] = {
      "datum.dd > 0",                      // fused fast path per morsel
      "datum.ii != 4",                     // fused inequality, nulls included
      "datum.bb",                          // bare truthiness
      "datum.ss == 'mid'",
      "datum.dd > -10 && datum.ii <= 5",   // compound, CSE registers
      "!(datum.dd <= 0 || datum.bb)",
      "isValid(datum.dd) && datum.dd * 2 < 40",
  };
  for (const char* text : predicates) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto program = expr::Compiler::Compile(*parsed, table->schema());
    ASSERT_TRUE(program.has_value()) << text;
    std::vector<int32_t> single, morsel;
    expr::BatchEvaluator(*table).RunFilter(*program, &single);
    expr::RunFilterMorselParallel(*table, *program, &morsel);
    EXPECT_EQ(morsel, single) << text;
  }
}

class MorselQueryDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = testutil::MakeRandomExprTable(31, /*rows=*/30000);
    engine_.RegisterTable("t", table_);
  }

  data::TablePtr Run(const char* sql, const common::QueryContext* ctx = nullptr) {
    auto result = engine_.Query(sql, ctx);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? result->table : nullptr;
  }

  TablePtr table_;
  sql::Engine engine_;
};

const char* kQueries[] = {
    "SELECT * FROM t WHERE dd > 0",
    "SELECT dd * 2 + ii AS x, ss FROM t WHERE ii != 4",
    "SELECT ii, COUNT(*) AS n, SUM(dd) AS s, AVG(dd) AS a FROM t GROUP BY ii "
    "ORDER BY ii",
    "SELECT ss, MIN(dd) AS lo, MAX(dd) AS hi, MEDIAN(dd) AS med, "
    "STDDEV(dd) AS sd FROM t GROUP BY ss ORDER BY ss",
    "SELECT ss, COUNT(*) AS n FROM t GROUP BY ss HAVING n > 20 ORDER BY n DESC",
    "SELECT COUNT(*) AS n, COUNT(dd) AS nv, MIN(ss) AS first_s FROM t",
    "SELECT id_mod, COUNT(*) AS n FROM (SELECT ii % 3 AS id_mod FROM t "
    "WHERE dd IS NOT NULL) GROUP BY id_mod ORDER BY id_mod",
    "SELECT ss, dd FROM t WHERE dd IS NOT NULL ORDER BY dd DESC, ss LIMIT 25 "
    "OFFSET 5",
    "SELECT ii, SUM(dd) OVER (PARTITION BY bb ORDER BY ii) AS run FROM t "
    "ORDER BY ii, run LIMIT 500",
    "SELECT MONTH(tt) AS m, COUNT(*) AS n FROM t GROUP BY MONTH(tt) ORDER BY m",
};

// Group-by / filter / projection queries over a table spanning many morsels
// produce bit-identical tables with morsel parallelism on and off.
TEST_F(MorselQueryDiffTest, QueriesMatchKillSwitchPath) {
  MorselConfigGuard guard(/*morsel_rows=*/1024, /*threads=*/4);
  for (const char* sql : kQueries) {
    data::TablePtr on = Run(sql);
    parallel::SetMorselParallelism(1);
    data::TablePtr off = Run(sql);
    parallel::SetMorselParallelism(4);
    ASSERT_NE(on, nullptr) << sql;
    ASSERT_NE(off, nullptr) << sql;
    ASSERT_TRUE(on->Equals(*off))
        << sql << "\nparallel:\n" << on->ToString(8)
        << "single:\n" << off->ToString(8);
  }
}

// The chunked aggregation merge is also exercised on the scalar interpreter
// path (a context with vectorized = false): determinism must not depend on
// the compiler, and the interpreted results equal the vectorized ones.
TEST_F(MorselQueryDiffTest, ScalarPathQueriesMatchKillSwitchPath) {
  MorselConfigGuard guard(/*morsel_rows=*/1024, /*threads=*/4);
  for (const char* sql : kQueries) {
    data::TablePtr on = Run(sql, &testutil::kInterpreted);
    parallel::SetMorselParallelism(1);
    data::TablePtr off = Run(sql, &testutil::kInterpreted);
    parallel::SetMorselParallelism(4);
    data::TablePtr vectorized = Run(sql);
    ASSERT_NE(on, nullptr) << sql;
    ASSERT_NE(off, nullptr) << sql;
    ASSERT_NE(vectorized, nullptr) << sql;
    ASSERT_TRUE(on->Equals(*off)) << sql;
    ASSERT_TRUE(on->Equals(*vectorized)) << sql;
  }
}

// Results are invariant across parallelism levels: chunk boundaries are a
// function of the data shape, never the thread count.
TEST_F(MorselQueryDiffTest, ResultsInvariantAcrossParallelismLevels) {
  const char* sql =
      "SELECT ii, COUNT(*) AS n, SUM(dd) AS s, AVG(dd) AS a, STDDEV(dd) AS sd "
      "FROM t WHERE dd IS NOT NULL GROUP BY ii ORDER BY ii";
  data::TablePtr reference;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    MorselConfigGuard guard(/*morsel_rows=*/1024, threads);
    data::TablePtr result = Run(sql);
    ASSERT_NE(result, nullptr) << threads << " threads";
    if (!reference) {
      reference = result;
    } else {
      ASSERT_TRUE(result->Equals(*reference)) << threads << " threads";
    }
  }
}

// The dataflow transforms ride the same morsel paths.
TEST_F(MorselQueryDiffTest, TransformsMatchKillSwitchPath) {
  MorselConfigGuard guard(/*morsel_rows=*/1024, /*threads=*/4);
  expr::MapSignalResolver signals;

  auto run_transform = [&](dataflow::Operator& op) -> data::TablePtr {
    auto result = op.Evaluate(table_, signals);
    EXPECT_TRUE(result.ok()) << result.status();
    return result.ok() ? result->table : nullptr;
  };

  {
    auto pred = expr::ParseExpression("datum.dd > 0 && datum.ii <= 5");
    ASSERT_TRUE(pred.ok());
    transforms::FilterOp filter(*pred);
    data::TablePtr on = run_transform(filter);
    parallel::SetMorselParallelism(1);
    data::TablePtr off = run_transform(filter);
    parallel::SetMorselParallelism(4);
    ASSERT_NE(on, nullptr);
    ASSERT_NE(off, nullptr);
    ASSERT_TRUE(on->Equals(*off));
  }
  {
    using transforms::FieldRef;
    transforms::AggregateOp::Params params;
    params.groupby = {FieldRef::Fixed("ss"), FieldRef::Fixed("bb")};
    params.fields = {FieldRef::Fixed("dd"), FieldRef::Fixed("dd"),
                     FieldRef::Fixed("ii"), FieldRef::Fixed("ss")};
    params.ops = {transforms::VegaAggOp::kMean, transforms::VegaAggOp::kStdev,
                  transforms::VegaAggOp::kSum, transforms::VegaAggOp::kMax};
    transforms::AggregateOp agg(params);
    data::TablePtr on = run_transform(agg);
    parallel::SetMorselParallelism(1);
    data::TablePtr off = run_transform(agg);
    parallel::SetMorselParallelism(4);
    ASSERT_NE(on, nullptr);
    ASSERT_NE(off, nullptr);
    ASSERT_TRUE(on->Equals(*off));
  }
}

}  // namespace
}  // namespace vegaplus
