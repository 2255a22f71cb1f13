#include <gtest/gtest.h>

#include <cmath>

#include "data/csv.h"
#include "expr/batch_eval.h"
#include "expr/kernels/kernels.h"
#include "sql/engine.h"

namespace vegaplus {
namespace sql {
namespace {

using data::DataType;
using data::TablePtr;
using data::Value;

class SqlExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = data::ReadCsvString(
        "id,origin,delay,distance,when\n"
        "1,SEA,10,100,2001-01-05\n"
        "2,SFO,-5,200,2001-01-20\n"
        "3,SEA,30,150,2001-02-02\n"
        "4,LAX,NA,500,2001-02-10\n"
        "5,SFO,20,250,2001-03-01\n"
        "6,SEA,0,120,2001-03-15\n");
    ASSERT_TRUE(t.ok()) << t.status();
    engine_.RegisterTable("flights", *t);
  }

  TablePtr Run(const std::string& sql) {
    auto r = engine_.Query(sql);
    EXPECT_TRUE(r.ok()) << r.status() << " for: " << sql;
    return r.ok() ? r->table : nullptr;
  }

  Engine engine_;
};

TEST_F(SqlExecutorTest, SelectStar) {
  TablePtr t = Run("SELECT * FROM flights");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 6u);
  EXPECT_EQ(t->num_columns(), 5u);
}

TEST_F(SqlExecutorTest, WhereFilters) {
  TablePtr t = Run("SELECT id FROM flights WHERE delay > 5");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->num_rows(), 3u);  // ids 1, 3, 5 (null delay excluded)
  EXPECT_EQ(t->ValueAt(0, "id"), Value::Int(1));
  EXPECT_EQ(t->ValueAt(1, "id"), Value::Int(3));
  EXPECT_EQ(t->ValueAt(2, "id"), Value::Int(5));
}

TEST_F(SqlExecutorTest, NullNeverMatchesComparison) {
  TablePtr gt = Run("SELECT id FROM flights WHERE delay > -1000");
  TablePtr lt = Run("SELECT id FROM flights WHERE delay < 1000");
  EXPECT_EQ(gt->num_rows(), 5u);
  EXPECT_EQ(lt->num_rows(), 5u);  // LAX row (null delay) excluded from both
}

TEST_F(SqlExecutorTest, IsNullPredicates) {
  EXPECT_EQ(Run("SELECT id FROM flights WHERE delay IS NULL")->num_rows(), 1u);
  EXPECT_EQ(Run("SELECT id FROM flights WHERE delay IS NOT NULL")->num_rows(), 5u);
}

TEST_F(SqlExecutorTest, ProjectionExpressions) {
  TablePtr t = Run("SELECT id, delay * 2 AS dbl, origin FROM flights WHERE id = 1");
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(t->ValueAt(0, "dbl").AsDouble(), 20.0);
  EXPECT_EQ(t->schema().field(1).name, "dbl");
}

TEST_F(SqlExecutorTest, GroupByCount) {
  TablePtr t = Run(
      "SELECT origin, COUNT(*) AS cnt FROM flights GROUP BY origin ORDER BY cnt DESC, "
      "origin");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->ValueAt(0, "origin"), Value::String("SEA"));
  EXPECT_EQ(t->ValueAt(0, "cnt"), Value::Int(3));
  EXPECT_EQ(t->ValueAt(1, "origin"), Value::String("SFO"));
  EXPECT_EQ(t->ValueAt(1, "cnt"), Value::Int(2));
  EXPECT_EQ(t->ValueAt(2, "origin"), Value::String("LAX"));
}

TEST_F(SqlExecutorTest, AggregatesSkipNulls) {
  TablePtr t = Run(
      "SELECT COUNT(*) AS all_rows, COUNT(delay) AS with_delay, SUM(delay) AS total, "
      "AVG(delay) AS mean, MIN(delay) AS lo, MAX(delay) AS hi FROM flights");
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->ValueAt(0, "all_rows"), Value::Int(6));
  EXPECT_EQ(t->ValueAt(0, "with_delay"), Value::Int(5));
  EXPECT_DOUBLE_EQ(t->ValueAt(0, "total").AsDouble(), 55.0);
  EXPECT_DOUBLE_EQ(t->ValueAt(0, "mean").AsDouble(), 11.0);
  EXPECT_DOUBLE_EQ(t->ValueAt(0, "lo").AsDouble(), -5.0);
  EXPECT_DOUBLE_EQ(t->ValueAt(0, "hi").AsDouble(), 30.0);
}

TEST_F(SqlExecutorTest, MedianAndStddev) {
  TablePtr t = Run("SELECT MEDIAN(delay) AS med, STDDEV(delay) AS sd FROM flights");
  // delays: 10, -5, 30, 20, 0 -> sorted -5 0 10 20 30, median 10.
  EXPECT_DOUBLE_EQ(t->ValueAt(0, "med").AsDouble(), 10.0);
  // sample stddev of {-5,0,10,20,30}: mean 11, var = (256+121+1+81+361)/4 = 205
  EXPECT_NEAR(t->ValueAt(0, "sd").AsDouble(), std::sqrt(205.0), 1e-9);
}

TEST_F(SqlExecutorTest, EmptyAggregateYieldsOneRow) {
  TablePtr t = Run("SELECT COUNT(*) AS c, SUM(delay) AS s FROM flights WHERE id > 99");
  ASSERT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->ValueAt(0, "c"), Value::Int(0));
  EXPECT_TRUE(t->ValueAt(0, "s").is_null());
}

TEST_F(SqlExecutorTest, GroupByExpression) {
  TablePtr t = Run(
      "SELECT FLOOR(distance / 100) * 100 AS bucket, COUNT(*) AS cnt FROM flights "
      "GROUP BY FLOOR(distance / 100) * 100 ORDER BY bucket");
  ASSERT_EQ(t->num_rows(), 3u);  // 100, 200, 500
  EXPECT_DOUBLE_EQ(t->ValueAt(0, "bucket").AsDouble(), 100.0);
  EXPECT_EQ(t->ValueAt(0, "cnt"), Value::Int(3));
  EXPECT_DOUBLE_EQ(t->ValueAt(2, "bucket").AsDouble(), 500.0);
}

TEST_F(SqlExecutorTest, SelectItemNotInGroupByFails) {
  auto r = engine_.Query("SELECT id, COUNT(*) FROM flights GROUP BY origin");
  EXPECT_FALSE(r.ok());
}

TEST_F(SqlExecutorTest, Having) {
  TablePtr t = Run(
      "SELECT origin, COUNT(*) AS cnt FROM flights GROUP BY origin HAVING cnt >= 2 "
      "ORDER BY origin");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->ValueAt(0, "origin"), Value::String("SEA"));
  EXPECT_EQ(t->ValueAt(1, "origin"), Value::String("SFO"));
}

TEST_F(SqlExecutorTest, SubqueryPipeline) {
  TablePtr t = Run(
      "SELECT origin, COUNT(*) AS cnt FROM (SELECT * FROM flights WHERE delay >= 0) "
      "AS f GROUP BY origin ORDER BY origin");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->ValueAt(0, "origin"), Value::String("SEA"));
  EXPECT_EQ(t->ValueAt(0, "cnt"), Value::Int(3));
  EXPECT_EQ(t->ValueAt(1, "cnt"), Value::Int(1));
}

TEST_F(SqlExecutorTest, OrderByMultipleKeys) {
  TablePtr t = Run("SELECT origin, delay FROM flights WHERE delay IS NOT NULL "
                   "ORDER BY origin, delay DESC");
  ASSERT_EQ(t->num_rows(), 5u);
  EXPECT_EQ(t->ValueAt(0, "origin"), Value::String("SEA"));
  EXPECT_DOUBLE_EQ(t->ValueAt(0, "delay").AsDouble(), 30.0);
  EXPECT_DOUBLE_EQ(t->ValueAt(2, "delay").AsDouble(), 0.0);
}

TEST_F(SqlExecutorTest, LimitOffset) {
  TablePtr t = Run("SELECT id FROM flights ORDER BY id LIMIT 2 OFFSET 3");
  ASSERT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->ValueAt(0, "id"), Value::Int(4));
  EXPECT_EQ(t->ValueAt(1, "id"), Value::Int(5));
}

TEST_F(SqlExecutorTest, WindowRunningSum) {
  TablePtr t = Run(
      "SELECT id, origin, SUM(delay) OVER (PARTITION BY origin ORDER BY id) AS run "
      "FROM flights ORDER BY id");
  ASSERT_EQ(t->num_rows(), 6u);
  // SEA rows: id 1 (10), id 3 (30), id 6 (0) -> running 10, 40, 40.
  EXPECT_DOUBLE_EQ(t->ValueAt(0, "run").AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(t->ValueAt(2, "run").AsDouble(), 40.0);
  EXPECT_DOUBLE_EQ(t->ValueAt(5, "run").AsDouble(), 40.0);
  // SFO rows: id 2 (-5), id 5 (20) -> -5, 15.
  EXPECT_DOUBLE_EQ(t->ValueAt(1, "run").AsDouble(), -5.0);
  EXPECT_DOUBLE_EQ(t->ValueAt(4, "run").AsDouble(), 15.0);
}

TEST_F(SqlExecutorTest, WindowRowNumber) {
  TablePtr t = Run(
      "SELECT id, ROW_NUMBER() OVER (PARTITION BY origin ORDER BY delay DESC) AS rn "
      "FROM flights WHERE delay IS NOT NULL ORDER BY id");
  ASSERT_EQ(t->num_rows(), 5u);
  // SEA delays 10,30,0 -> ranks: id3=1, id1=2, id6=3.
  EXPECT_EQ(t->ValueAt(0, "rn"), Value::Int(2));  // id 1
  EXPECT_EQ(t->ValueAt(2, "rn"), Value::Int(1));  // id 3
}

TEST_F(SqlExecutorTest, DateFunctions) {
  TablePtr t = Run(
      "SELECT id, MONTH(when) AS m FROM flights WHERE YEAR(when) = 2001 ORDER BY id");
  ASSERT_EQ(t->num_rows(), 6u);
  EXPECT_EQ(t->ValueAt(0, "m"), Value::Int(1));
  EXPECT_EQ(t->ValueAt(3, "m"), Value::Int(2));
}

TEST_F(SqlExecutorTest, DateTrunc) {
  TablePtr t = Run(
      "SELECT DATE_TRUNC('month', when) AS m, COUNT(*) AS cnt FROM flights "
      "GROUP BY DATE_TRUNC('month', when) ORDER BY m");
  ASSERT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->ValueAt(0, "cnt"), Value::Int(2));
  EXPECT_EQ(t->schema().field(0).type, DataType::kTimestamp);
}

TEST_F(SqlExecutorTest, CaseExpression) {
  TablePtr t = Run(
      "SELECT id, CASE WHEN delay > 15 THEN 'late' WHEN delay IS NULL THEN 'unknown' "
      "ELSE 'ok' END AS status FROM flights ORDER BY id");
  EXPECT_EQ(t->ValueAt(0, "status"), Value::String("ok"));
  EXPECT_EQ(t->ValueAt(2, "status"), Value::String("late"));
  EXPECT_EQ(t->ValueAt(3, "status"), Value::String("unknown"));
}

TEST_F(SqlExecutorTest, UnknownTableFails) {
  EXPECT_FALSE(engine_.Query("SELECT * FROM nope").ok());
}

TEST_F(SqlExecutorTest, StatsCountersPopulated) {
  auto r = engine_.Query("SELECT origin, COUNT(*) AS c FROM flights WHERE delay > 0 "
                         "GROUP BY origin");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.rows_scanned, 6u);
  EXPECT_GT(r->stats.rows_processed, 0u);
  EXPECT_EQ(r->stats.rows_output, r->table->num_rows());
  EXPECT_GE(r->stats.num_operators, 3);
}

TEST_F(SqlExecutorTest, OutputTypesInferred) {
  TablePtr t = Run("SELECT origin, COUNT(*) AS c, AVG(delay) AS a, MIN(origin) AS mo "
                   "FROM flights GROUP BY origin");
  EXPECT_EQ(t->schema().field(0).type, DataType::kString);
  EXPECT_EQ(t->schema().field(1).type, DataType::kInt64);
  EXPECT_EQ(t->schema().field(2).type, DataType::kFloat64);
  EXPECT_EQ(t->schema().field(3).type, DataType::kString);
}

// The rewriter's brush form `x BETWEEN LEAST(a, b) AND GREATEST(a, b)`
// folds to two compares against constants, so an in-memory brush runs the
// fused compare kernels and keeps the rows the interpreter keeps.
TEST(SqlBrushTest, LeastGreatestBrushRunsFusedKernels) {
  data::Column x(DataType::kFloat64);
  for (int r = 0; r < 1000; ++r) {
    if (r % 7 == 0) {
      x.AppendNull();
    } else {
      x.AppendDouble(r * 0.5);
    }
  }
  std::vector<data::Column> cols = {x};
  Engine engine;
  engine.RegisterTable("t", std::make_shared<data::Table>(
                                data::Schema({{"x", DataType::kFloat64}}),
                                std::move(cols)));
  const char* sql =
      "SELECT x FROM t WHERE (x BETWEEN LEAST(400, 50) AND GREATEST(400, 50))";

  const uint64_t before = kernels::BitmapSelections();
  auto fused = engine.Query(sql);
  ASSERT_TRUE(fused.ok()) << fused.status();
  EXPECT_GT(kernels::BitmapSelections() - before, 0u);

  expr::SetVectorizedEnabled(false);
  auto interpreted = engine.Query(sql);
  expr::SetVectorizedEnabled(true);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status();
  EXPECT_TRUE(fused->table->Equals(*interpreted->table));

  std::vector<double> want;
  for (size_t r = 0; r < x.length(); ++r) {
    if (!x.IsNull(r) && x.DoubleAt(r) >= 50 && x.DoubleAt(r) <= 400) {
      want.push_back(x.DoubleAt(r));
    }
  }
  ASSERT_EQ(fused->table->num_rows(), want.size());
  for (size_t r = 0; r < want.size(); ++r) {
    EXPECT_EQ(fused->table->ValueAt(r, "x"), Value::Double(want[r]));
  }
}

}  // namespace
}  // namespace sql
}  // namespace vegaplus
