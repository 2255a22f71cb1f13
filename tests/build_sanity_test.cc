// Build-substrate sanity check: links against every module library and
// touches one out-of-line symbol from each, so a module dropped from the
// CMake link graph fails here instead of in an unrelated downstream target.
#include <gtest/gtest.h>

#include "benchdata/datasets.h"
#include "common/str_util.h"
#include "data/data_type.h"
#include "dataflow/signal_registry.h"
#include "expr/kernels/kernels.h"
#include "expr/parser.h"
#include "json/json_value.h"
#include "ml/random_forest.h"
#include "optimizer/trainer.h"
#include "plan/encoder.h"
#include "rewrite/plan_builder.h"
#include "runtime/cache.h"
#include "spec/spec.h"
#include "sql/sql_parser.h"
#include "storage/zone_map.h"
#include "tiles/tile_store.h"
#include "transforms/binning.h"

namespace vegaplus {
namespace {

TEST(BuildSanityTest, EveryModuleLinks) {
  // common
  EXPECT_EQ(Join(Split("a,b", ','), "|"), "a|b");

  // json
  json::Value value = json::Value::MakeArray();
  value.Append(json::Value(1.0));
  EXPECT_TRUE(value.is_array());
  EXPECT_EQ(value.size(), 1u);

  // data
  EXPECT_EQ(data::DataTypeFromName("float64"), data::DataType::kFloat64);

  // kernels
  const uint8_t bits[4] = {1, 0, 1, 1};
  EXPECT_EQ(kernels::CountBits(bits, 4), 3u);

  // expr
  EXPECT_TRUE(expr::ParseExpression("1 + 2").ok());

  // ml
  ml::DecisionTree tree;
  tree.Train({{0.0}, {1.0}}, {0, 1});

  // storage
  EXPECT_TRUE(storage::ColumnZone().MayMatch(storage::Predicate(), -2));

  // sql
  EXPECT_TRUE(sql::ParseSql("SELECT a FROM t").ok());

  // dataflow
  dataflow::SignalRegistry registry;
  registry.Set("x", expr::EvalValue::Number(1.0), /*stamp=*/0);

  // transforms
  EXPECT_GT(transforms::ComputeBinning(0.0, 100.0, 10).step, 0.0);

  // spec + rewrite
  auto parsed_spec = spec::ParseSpecText(R"({"signals": [], "data": []})");
  ASSERT_TRUE(parsed_spec.ok()) << parsed_spec.status().ToString();
  rewrite::PlanBuilder builder(*parsed_spec);

  // tiles
  EXPECT_EQ(tiles::TileStore(/*engine=*/nullptr).stats().hits, 0u);

  // runtime
  runtime::QueryCache cache(/*capacity=*/4, /*max_result_rows=*/16);
  cache.Clear();

  // plan
  EXPECT_FALSE(plan::FeatureNames().empty());

  // optimizer
  EXPECT_TRUE(optimizer::MakePairs({}, /*max_pairs=*/8, /*seed=*/1).empty());

  // benchdata
  EXPECT_FALSE(benchdata::DatasetNames().empty());
}

}  // namespace
}  // namespace vegaplus
