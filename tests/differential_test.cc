// Differential tests: every rewritable transform executed client-side must
// agree with its SQL rewrite executed by the engine, across datasets and
// randomized parameters. This is the contract (§4) the optimizer's freedom
// to split anywhere rests on.
#include <gtest/gtest.h>

#include <cmath>
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
#include "transforms/transforms.h"

namespace vegaplus {
namespace {

using benchdata::Dataset;

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
  // compare row counts + per-column sums of the named check columns.
  void CheckPipeline(const std::string& transforms_json,
                     const std::vector<std::string>& check_columns,
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

    // Server side (legacy path: fill holes as SQL text, parse, execute).
    std::string sql_template = rewrite::RenderPipelineSql(pipeline);
    rewrite::DerivedResolver resolver(*signals, pipeline.derived);
    ASSERT_TRUE(resolver.Materialize().ok());
    auto sql = expr::FillSqlHoles(sql_template, resolver);
    ASSERT_TRUE(sql.ok()) << sql.status() << "\n" << sql_template;
    auto server = engine_.Query(*sql);
    ASSERT_TRUE(server.ok()) << server.status() << "\n" << *sql;

    // Prepared path (parse template once, bind parameters into the AST) must
    // be bit-identical to the legacy fill-and-parse path.
    auto prepared = engine_.Prepare(sql_template);
    ASSERT_TRUE(prepared.ok()) << prepared.status() << "\n" << sql_template;
    auto bound = engine_.ExecuteBound(**prepared, resolver);
    ASSERT_TRUE(bound.ok()) << bound.status() << "\n" << (*prepared)->canonical_sql;
    EXPECT_TRUE(data::SerializeBinary(*bound->table) ==
                data::SerializeBinary(*server->table))
        << "prepared/legacy result mismatch\n" << *sql;

    EXPECT_EQ(client->num_rows(), server->table->num_rows()) << *sql;
    for (const std::string& col : check_columns) {
      const data::Column* cc = client->ColumnByName(col);
      const data::Column* sc = server->table->ColumnByName(col);
      ASSERT_NE(cc, nullptr) << "client missing " << col;
      ASSERT_NE(sc, nullptr) << "server missing " << col << "\n" << *sql;
      double client_sum = 0, server_sum = 0;
      for (size_t r = 0; r < cc->length(); ++r) {
        double v = cc->NumericAt(r);
        if (!std::isnan(v)) client_sum += v;
      }
      for (size_t r = 0; r < sc->length(); ++r) {
        double v = sc->NumericAt(r);
        if (!std::isnan(v)) server_sum += v;
      }
      EXPECT_NEAR(client_sum, server_sum,
                  1e-6 * std::max(1.0, std::fabs(client_sum)))
          << col << "\n" << *sql;
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
  CheckPipeline(json, {Q(1)}, &signals);
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
  CheckPipeline(json, {"bin0", "count"}, &signals);
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
                  {"bin0", "count"}, &signals);
  }
  for (const char* mb : {"1e300", "-1e300"}) {
    SCOPED_TRACE(std::string("maxbins literal ") + mb);
    dataflow::SignalRegistry signals;
    CheckPipeline(StrFormat(pipeline.c_str(), Q(0).c_str(), Q(0).c_str(), mb),
                  {"bin0", "count"}, &signals);
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
  CheckPipeline(json, {"n", "s", "m", "lo", "hi", "med", "sd"}, &signals);
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
  CheckPipeline(json, {"count"}, &signals);
}

TEST_P(DifferentialTest, StackAgree) {
  dataflow::SignalRegistry signals;
  std::string json = StrFormat(
      R"x([{"type":"aggregate","groupby":["%s","%s"],"ops":["count"],
            "fields":[null],"as":["count"]},
           {"type":"stack","field":"count","groupby":["%s"],
            "sort":{"field":"%s"},"as":["y0","y1"]}])x",
      C(0).c_str(), C(1).c_str(), C(0).c_str(), C(1).c_str());
  CheckPipeline(json, {"y0", "y1", "count"}, &signals);
}

TEST_P(DifferentialTest, TimeunitAggregateAgree) {
  dataflow::SignalRegistry signals;
  const std::string& t = dataset_->temporal[0];
  std::string json = StrFormat(
      R"x([{"type":"timeunit","field":"%s","units":"month"},
           {"type":"aggregate","groupby":["unit0","unit1"],
            "ops":["count","mean"],"fields":[null,"%s"],"as":["n","avg"]}])x",
      t.c_str(), Q(0).c_str());
  CheckPipeline(json, {"n", "avg"}, &signals);
}

TEST_P(DifferentialTest, CollectProjectFormulaAgree) {
  dataflow::SignalRegistry signals;
  std::string json = StrFormat(
      R"x([{"type":"formula","expr":"datum.%s * 2 + 1","as":"scaled"},
           {"type":"project","fields":["%s","scaled"],"as":["cat","scaled"]},
           {"type":"collect","sort":{"field":"scaled","order":["descending"]}}])x",
      Q(0).c_str(), C(0).c_str());
  CheckPipeline(json, {"scaled"}, &signals);
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
