// Differential tests: every rewritable transform executed client-side must
// agree with its SQL rewrite executed by the engine, across datasets and
// randomized parameters. This is the contract (§4) the optimizer's freedom
// to split anywhere rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "benchdata/datasets.h"
#include "common/random.h"
#include "common/str_util.h"
#include "data/ipc.h"
#include "dataflow/signal_registry.h"
#include "expr/parser.h"
#include "expr/sql_translator.h"
#include "json/json_parser.h"
#include "rewrite/rewriter.h"
#include "spec/transform_factory.h"
#include "sql/engine.h"
#include "sql_holes_test_util.h"
#include "transforms/transforms.h"

namespace vegaplus {
namespace {

using benchdata::Dataset;

/// One cell of the exact client/server comparison: the same type, then
/// both null, the same string, the same integer, or the same double bits —
/// except that any two NaNs match. Table::Equals is too weak for this:
/// Value::Compare treats NaN as equal to every number.
bool ExactCell(const data::Value& a, const data::Value& b) {
  if (a.type() != b.type()) return false;
  if (a.is_null()) return true;
  if (a.is_string()) return a.AsString() == b.AsString();
  if (!a.is_double()) return a.AsInt() == b.AsInt();
  const double x = a.AsDouble(), y = b.AsDouble();
  return (std::isnan(x) && std::isnan(y)) || std::memcmp(&x, &y, sizeof x) == 0;
}

/// Failure text for a cell (Value::ToString prints NaN as null).
std::string CellText(const data::Value& v) {
  return v.is_double() ? StrFormat("%.17g", v.AsDouble()) : v.ToString();
}

class DifferentialTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {
 protected:
  void SetUp() override {
    auto [name, seed] = GetParam();
    auto ds = benchdata::MakeDataset(name, 2500, seed);
    ASSERT_TRUE(ds.ok());
    dataset_ = std::make_unique<Dataset>(*ds);
    engine_.RegisterTable("src", dataset_->table);
    rng_.Seed(seed * 77 + 1);
  }

  // Run `transforms` (a JSON array of transform specs) both ways and
  // require the same table: the same columns (matched by name, since
  // column order may differ), each of the same type, cell for cell.
  void CheckPipeline(const std::string& transforms_json,
                     dataflow::SignalRegistry* signals) {
    auto doc = json::Parse(transforms_json);
    ASSERT_TRUE(doc.ok()) << doc.status() << "\n" << transforms_json;

    // Client side.
    data::TablePtr client = dataset_->table;
    rewrite::ServerPipeline pipeline = rewrite::MakeTablePipeline("src");
    int uid = 0;
    for (const auto& t : doc->array()) {
      spec::TransformSpec ts{t.GetString("type"), t};
      auto op = spec::BuildTransformOp(ts);
      ASSERT_TRUE(op.ok()) << op.status();
      auto result = (*op)->Evaluate(client, *signals);
      ASSERT_TRUE(result.ok()) << result.status();
      for (auto& [name, value] : result->signal_writes) {
        signals->Set(name, value, 1);
      }
      if (result->table) client = result->table;
      ASSERT_TRUE(rewrite::ExtendPipeline(&pipeline, ts, uid++).ok());
    }

    // Server side through the text oracle: fill holes as SQL text, parse, execute.
    std::string sql_template = rewrite::RenderPipelineSql(pipeline);
    rewrite::DerivedResolver resolver(*signals, pipeline.derived);
    ASSERT_TRUE(resolver.Materialize().ok());
    auto sql = testutil::FillSqlHoles(sql_template, resolver);
    ASSERT_TRUE(sql.ok()) << sql.status() << "\n" << sql_template;
    auto server = engine_.Query(*sql);
    ASSERT_TRUE(server.ok()) << server.status() << "\n" << *sql;

    // Prepared path (parse template once, bind parameters into the AST) must
    // be bit-identical to the fill-and-parse oracle.
    auto prepared = engine_.Prepare(sql_template);
    ASSERT_TRUE(prepared.ok()) << prepared.status() << "\n" << sql_template;
    auto bound = engine_.ExecuteBound(**prepared, resolver);
    ASSERT_TRUE(bound.ok()) << bound.status() << "\n" << (*prepared)->canonical_sql;
    EXPECT_TRUE(data::SerializeBinary(*bound->table) ==
                data::SerializeBinary(*server->table))
        << "prepared/oracle result mismatch\n" << *sql;

    const data::Table& st = *server->table;
    ASSERT_EQ(client->num_rows(), st.num_rows()) << *sql;
    ASSERT_EQ(client->num_columns(), st.num_columns()) << *sql;
    for (size_t c = 0; c < client->num_columns(); ++c) {
      const data::Field& field = client->schema().field(c);
      const int sc = st.schema().FieldIndex(field.name);
      ASSERT_GE(sc, 0) << "server missing " << field.name << "\n" << *sql;
      EXPECT_EQ(field.type, st.schema().field(static_cast<size_t>(sc)).type)
          << field.name << "\n" << *sql;
      const data::Column& client_col = client->column(c);
      const data::Column& server_col = st.column(static_cast<size_t>(sc));
      for (size_t r = 0; r < client->num_rows(); ++r) {
        const data::Value cv = client_col.ValueAt(r), sv = server_col.ValueAt(r);
        ASSERT_TRUE(ExactCell(cv, sv))
            << field.name << " row " << r << ": client " << CellText(cv) << ", server "
            << CellText(sv) << "\n" << *sql;
      }
    }
  }

  std::string Q(size_t i) const { return dataset_->quantitative[i % dataset_->quantitative.size()]; }
  std::string C(size_t i) const { return dataset_->categorical[i % dataset_->categorical.size()]; }

  std::unique_ptr<Dataset> dataset_;
  sql::Engine engine_;
  Rng rng_;
};

TEST_P(DifferentialTest, FilterCountsAgree) {
  dataflow::SignalRegistry signals;
  data::TableStats stats = data::ComputeTableStats(*dataset_->table);
  const data::ColumnStats* cs = stats.Find(Q(0));
  ASSERT_NE(cs, nullptr);
  double cut = cs->min + rng_.NextDouble() * (cs->max - cs->min);
  std::string json = StrFormat(
      R"x([{"type":"filter","expr":"datum.%s > %s"}])x", Q(0).c_str(),
      FormatDouble(cut).c_str());
  CheckPipeline(json, &signals);
}

TEST_P(DifferentialTest, ExtentBinAggregateAgree) {
  dataflow::SignalRegistry signals;
  signals.Set("mb", expr::EvalValue::Number(5 + static_cast<double>(rng_.Index(40))), 0);
  std::string json = StrFormat(
      R"x([{"type":"extent","field":"%s","signal":"e"},
           {"type":"bin","field":"%s","extent":{"signal":"e"},
            "maxbins":{"signal":"mb"},"as":["bin0","bin1"]},
           {"type":"aggregate","groupby":["bin0","bin1"],"ops":["count"],
            "fields":[null],"as":["count"]}])x",
      Q(0).c_str(), Q(0).c_str());
  CheckPipeline(json, &signals);
}

// A maxbins that is no finite count: NaN and ±Inf keep the transform's
// static maxbins, and finite values clamp to [1, INT_MAX], on the client
// (BinOp) and in the server's derived bin params alike. A plain cast of
// these doubles to int is undefined behaviour, which the UBSan job checks.
TEST_P(DifferentialTest, NonFiniteAndHugeMaxbinsAgree) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::string pipeline = R"x([{"type":"extent","field":"%s","signal":"e"},
           {"type":"bin","field":"%s","extent":{"signal":"e"},
            "maxbins":%s,"as":["bin0","bin1"]},
           {"type":"aggregate","groupby":["bin0","bin1"],"ops":["count"],
            "fields":[null],"as":["count"]}])x";
  for (double mb : {std::nan(""), inf, -inf, 1e300, -1e300}) {
    SCOPED_TRACE("maxbins signal " + FormatDouble(mb));
    dataflow::SignalRegistry signals;
    signals.Set("mb", expr::EvalValue::Number(mb), 0);
    CheckPipeline(StrFormat(pipeline.c_str(), Q(0).c_str(), Q(0).c_str(), R"({"signal":"mb"})"),
                  &signals);
  }
  for (const char* mb : {"1e300", "-1e300"}) {
    SCOPED_TRACE(std::string("maxbins literal ") + mb);
    dataflow::SignalRegistry signals;
    CheckPipeline(StrFormat(pipeline.c_str(), Q(0).c_str(), Q(0).c_str(), mb), &signals);
  }
}

TEST_P(DifferentialTest, GroupedStatisticsAgree) {
  dataflow::SignalRegistry signals;
  std::string json = StrFormat(
      R"x([{"type":"aggregate","groupby":["%s"],
            "ops":["count","sum","mean","min","max","median","stdev"],
            "fields":[null,"%s","%s","%s","%s","%s","%s"],
            "as":["n","s","m","lo","hi","med","sd"]}])x",
      C(0).c_str(), Q(0).c_str(), Q(0).c_str(), Q(0).c_str(), Q(0).c_str(),
      Q(0).c_str(), Q(0).c_str());
  CheckPipeline(json, &signals);
}

// Every Vega aggregate op over groups whose field holds +Inf, -Inf and NaN
// (first in some groups, so a NaN min/max sticks) beside finite values and
// nulls. Such groups have a NaN variance, which both placements must report
// as a NaN stdev rather than clamping it to 0.
TEST_P(DifferentialTest, NonFiniteGroupsAgreeForEveryOp) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {inf, -inf, std::nan("")};
  const data::Table& base = *dataset_->table;
  const data::Column& cat = *base.ColumnByName(C(0));
  const data::Column& num = *base.ColumnByName(Q(0));
  // Group g (by first-seen category) gets a non-finite value in every 7th
  // of its rows, starting with its first: none for g % 5 == 0, +Inf, -Inf
  // and NaN for 1..3, and all three in turn for 4.
  std::vector<std::string> seen;
  std::vector<size_t> group_rows;
  data::Column nf(data::DataType::kFloat64);
  for (size_t r = 0; r < base.num_rows(); ++r) {
    const std::string key = cat.ValueAt(r).ToString();
    const size_t g = static_cast<size_t>(
        std::find(seen.begin(), seen.end(), key) - seen.begin());
    if (g == seen.size()) {
      seen.push_back(key);
      group_rows.push_back(0);
    }
    const size_t k = group_rows[g]++;
    if (g % 5 != 0 && k % 7 == 0) {
      nf.AppendDouble(g % 5 == 4 ? specials[(k / 7) % 3] : specials[g % 5 - 1]);
    } else if (num.ValueAt(r).is_null()) {
      nf.AppendNull();
    } else {
      nf.AppendDouble(num.NumericAt(r));
    }
  }
  std::vector<data::Field> fields = base.schema().fields();
  fields.push_back({"nf", data::DataType::kFloat64});
  std::vector<data::Column> columns;
  for (size_t c = 0; c < base.num_columns(); ++c) columns.push_back(base.column(c));
  columns.push_back(std::move(nf));
  dataset_->table =
      std::make_shared<data::Table>(data::Schema(std::move(fields)), std::move(columns));
  engine_.RegisterTable("src", dataset_->table);

  dataflow::SignalRegistry signals;
  CheckPipeline(StrFormat(R"x([{"type":"aggregate","groupby":["%s"],
            "ops":["count","valid","sum","mean","min","max","median","stdev"],
            "fields":[null,"nf","nf","nf","nf","nf","nf","nf"]}])x",
                          C(0).c_str()),
                &signals);
}

TEST_P(DifferentialTest, FilterBinAggregateWithBrushAgree) {
  dataflow::SignalRegistry signals;
  data::TableStats stats = data::ComputeTableStats(*dataset_->table);
  const data::ColumnStats* cs = stats.Find(Q(1));
  ASSERT_NE(cs, nullptr);
  double lo = cs->min + 0.2 * (cs->max - cs->min);
  double hi = cs->min + (0.4 + 0.5 * rng_.NextDouble()) * (cs->max - cs->min);
  signals.Set("brush", expr::EvalValue::Array({data::Value::Double(lo),
                                               data::Value::Double(hi)}),
              0);
  signals.Set("ext", expr::EvalValue::Array({data::Value::Double(cs->min),
                                             data::Value::Double(cs->max)}),
              0);
  std::string json = StrFormat(
      R"x([{"type":"filter","expr":"inrange(datum.%s, brush)"},
           {"type":"bin","field":"%s","extent":{"signal":"ext"},
            "maxbins":20,"as":["bin0","bin1"]},
           {"type":"aggregate","groupby":["bin0"],"ops":["count"],
            "fields":[null],"as":["count"]}])x",
      Q(1).c_str(), Q(1).c_str());
  CheckPipeline(json, &signals);
}

TEST_P(DifferentialTest, StackAgree) {
  dataflow::SignalRegistry signals;
  std::string json = StrFormat(
      R"x([{"type":"aggregate","groupby":["%s","%s"],"ops":["count"],
            "fields":[null],"as":["count"]},
           {"type":"stack","field":"count","groupby":["%s"],
            "sort":{"field":"%s"},"as":["y0","y1"]}])x",
      C(0).c_str(), C(1).c_str(), C(0).c_str(), C(1).c_str());
  CheckPipeline(json, &signals);
}

TEST_P(DifferentialTest, TimeunitAggregateAgree) {
  dataflow::SignalRegistry signals;
  const std::string& t = dataset_->temporal[0];
  std::string json = StrFormat(
      R"x([{"type":"timeunit","field":"%s","units":"month"},
           {"type":"aggregate","groupby":["unit0","unit1"],
            "ops":["count","mean"],"fields":[null,"%s"],"as":["n","avg"]}])x",
      t.c_str(), Q(0).c_str());
  CheckPipeline(json, &signals);
}

TEST_P(DifferentialTest, CollectProjectFormulaAgree) {
  dataflow::SignalRegistry signals;
  std::string json = StrFormat(
      R"x([{"type":"formula","expr":"datum.%s * 2 + 1","as":"scaled"},
           {"type":"project","fields":["%s","scaled"],"as":["cat","scaled"]},
           {"type":"collect","sort":{"field":"scaled","order":["descending"]}}])x",
      Q(0).c_str(), C(0).c_str());
  CheckPipeline(json, &signals);
}

// The oracle itself: FillSqlHoles renders holes as SQL literals.
TEST(FillSqlHolesTest, ScalarAndIndexedHoles) {
  expr::MapSignalResolver signals;
  signals.Set("threshold", expr::EvalValue::Number(12.5));
  signals.Set("brush",
              expr::EvalValue::Array({data::Value::Double(1), data::Value::Double(9)}));
  auto filled = testutil::FillSqlHoles(
      "delay > ${threshold} AND x BETWEEN ${brush[0]} AND ${brush[1]}", signals);
  ASSERT_TRUE(filled.ok()) << filled.status();
  EXPECT_EQ(*filled, "delay > 12.5 AND x BETWEEN 1 AND 9");
}

TEST(FillSqlHolesTest, StringSignalQuoted) {
  expr::MapSignalResolver signals;
  signals.Set("field", expr::EvalValue::String("it's"));
  auto filled = testutil::FillSqlHoles("f = ${field}", signals);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, "f = 'it''s'");
}

TEST(FillSqlHolesTest, Errors) {
  expr::MapSignalResolver signals;
  signals.Set("arr", expr::EvalValue::Array({data::Value::Double(1)}));
  EXPECT_FALSE(testutil::FillSqlHoles("x = ${missing}", signals).ok());
  EXPECT_FALSE(testutil::FillSqlHoles("x = ${arr}", signals).ok());  // array without index
  EXPECT_FALSE(testutil::FillSqlHoles("x = ${arr[", signals).ok());  // malformed
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsBySeeds, DifferentialTest,
    ::testing::Combine(::testing::ValuesIn(benchdata::DatasetNames()),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, uint64_t>>& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace vegaplus
