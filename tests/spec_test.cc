#include <gtest/gtest.h>

#include "benchdata/templates.h"
#include "json/json_parser.h"
#include "json/json_writer.h"
#include "spec/compiler.h"
#include "spec/spec.h"
#include "spec/transform_factory.h"

namespace vegaplus {
namespace spec {
namespace {

const char* kHistogramSpec = R"({
  "name": "histogram",
  "signals": [
    {"name": "field", "value": "delay",
     "bind": {"input": "select", "options": ["delay", "distance"]}},
    {"name": "maxbins", "value": 10,
     "bind": {"input": "range", "min": 5, "max": 50, "step": 1}}
  ],
  "data": [
    {"name": "source", "table": "flights"},
    {"name": "binned", "source": "source", "transform": [
      {"type": "extent", "field": {"signal": "field"}, "signal": "x_extent"},
      {"type": "bin", "field": {"signal": "field"}, "extent": {"signal": "x_extent"},
       "maxbins": {"signal": "maxbins"}, "as": ["bin0", "bin1"]},
      {"type": "aggregate", "groupby": ["bin0", "bin1"], "ops": ["count"],
       "fields": [null], "as": ["count"]}
    ]}
  ],
  "scales": [
    {"name": "x", "domain": {"signal": "x_extent"}},
    {"name": "y", "domain": {"data": "binned", "field": "count"}}
  ],
  "marks": [{"type": "rect", "from": {"data": "binned"}}]
})";

TEST(SpecParserTest, ParsesHistogram) {
  auto r = ParseSpecText(kHistogramSpec);
  ASSERT_TRUE(r.ok()) << r.status();
  const VegaSpec& spec = *r;
  EXPECT_EQ(spec.name, "histogram");
  ASSERT_EQ(spec.signals.size(), 2u);
  EXPECT_EQ(spec.signals[0].bind, BindKind::kSelect);
  EXPECT_EQ(spec.signals[0].options.size(), 2u);
  EXPECT_EQ(spec.signals[1].bind, BindKind::kRange);
  EXPECT_DOUBLE_EQ(spec.signals[1].bind_max, 50);
  ASSERT_EQ(spec.data.size(), 2u);
  EXPECT_EQ(spec.data[1].transforms.size(), 3u);
  EXPECT_EQ(spec.TotalOperators(), 3u);
  ASSERT_EQ(spec.marks.size(), 1u);
  EXPECT_EQ(spec.marks[0].from_data, "binned");
}

TEST(SpecParserTest, RoundTripsThroughJson) {
  auto r = ParseSpecText(kHistogramSpec);
  ASSERT_TRUE(r.ok());
  json::Value doc = SpecToJson(*r);
  auto r2 = ParseSpec(doc);
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(json::Write(SpecToJson(*r2)), json::Write(doc));
}

TEST(SpecParserTest, RejectsBadSpecs) {
  EXPECT_FALSE(ParseSpecText("[]").ok());
  EXPECT_FALSE(ParseSpecText(R"({"data":[{"name":"a","source":"nope"}]})").ok());
  EXPECT_FALSE(ParseSpecText(R"({"data":[{"name":"a"}]})").ok());  // root needs table
  EXPECT_FALSE(
      ParseSpecText(R"({"data":[{"name":"a","table":"t","transform":[{}]}]})").ok());
  EXPECT_FALSE(
      ParseSpecText(R"({"marks":[{"type":"rect","from":{"data":"ghost"}}]})").ok());
}

TEST(SpecTest, ClientReservedFromScalesAndMarks) {
  auto r = ParseSpecText(kHistogramSpec);
  ASSERT_TRUE(r.ok());
  std::set<std::string> reserved = ComputeClientReserved(*r);
  EXPECT_EQ(reserved.count("binned"), 1u);
  EXPECT_EQ(reserved.count("source"), 0u);
}

TEST(TransformFactoryTest, UnknownTypeFails) {
  TransformSpec ts{"mystery", json::Value::MakeObject()};
  EXPECT_FALSE(BuildTransformOp(ts).ok());
}

TEST(TransformFactoryTest, FilterNeedsValidExpression) {
  TransformSpec ts{"filter", *json::Parse(R"({"type":"filter","expr":"datum.x >"})")};
  EXPECT_FALSE(BuildTransformOp(ts).ok());
  TransformSpec unknown_fn{"filter",
                           *json::Parse(R"x({"type":"filter","expr":"nope(datum.x)"})x")};
  EXPECT_FALSE(BuildTransformOp(unknown_fn).ok());
}

TEST(TransformFactoryTest, AggregateDefaultsToCount) {
  TransformSpec ts{"aggregate",
                   *json::Parse(R"({"type":"aggregate","groupby":["g"]})")};
  auto op = BuildTransformOp(ts);
  ASSERT_TRUE(op.ok()) << op.status();
  EXPECT_EQ((*op)->type(), "aggregate");
}

// Vega rejects an aggregate op other than count without a field ("Null
// aggregate field specified."); so does the factory, and with it the SQL
// rewriter, which builds through the same function.
TEST(TransformFactoryTest, AggregateRejectsNullFieldForNonCountOps) {
  auto build = [](const char* params) {
    return BuildTransformOp(TransformSpec{"aggregate", *json::Parse(params)});
  };
  auto null_fields = build(
      R"({"type":"aggregate","ops":["sum","mean","valid"],"fields":[null,null,null]})");
  ASSERT_FALSE(null_fields.ok());
  EXPECT_TRUE(null_fields.status().IsParseError()) << null_fields.status();
  // A fields list shorter than ops leaves the later ops without a field.
  EXPECT_FALSE(build(R"({"type":"aggregate","ops":["count","max"],"fields":[null]})").ok());
  EXPECT_TRUE(build(R"({"type":"aggregate","ops":["count"],"fields":[null]})").ok());
  EXPECT_TRUE(build(R"({"type":"aggregate","ops":["count","sum"],
                        "fields":[null,{"signal":"f"}]})")
                  .ok());
}

TEST(TransformFactoryTest, BinRequiresExtent) {
  TransformSpec ts{"bin", *json::Parse(R"({"type":"bin","field":"x"})")};
  EXPECT_FALSE(BuildTransformOp(ts).ok());
}

TEST(CompilerTest, CompilesAndRunsHistogram) {
  auto r = ParseSpecText(kHistogramSpec);
  ASSERT_TRUE(r.ok());
  data::Schema schema({{"delay", data::DataType::kFloat64},
                       {"distance", data::DataType::kFloat64}});
  data::TableBuilder builder(schema);
  for (int i = 0; i < 100; ++i) {
    builder.AppendRow({data::Value::Double(i % 37), data::Value::Double(i * 3 % 97)});
  }
  std::map<std::string, data::TablePtr> tables{{"flights", builder.Build()}};
  auto compiled = CompileClientDataflow(*r, tables);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto stats = compiled->graph->Run();
  ASSERT_TRUE(stats.ok()) << stats.status();
  const CompiledEntry* binned = compiled->FindEntry("binned");
  ASSERT_NE(binned, nullptr);
  ASSERT_NE(binned->tail->output, nullptr);
  EXPECT_GT(binned->tail->output->num_rows(), 0u);
  EXPECT_TRUE(binned->tail->output->schema().HasField("count"));
  EXPECT_TRUE(binned->tail->client_reserved);
  // Interaction: shrink bins -> different histogram.
  size_t before = binned->tail->output->num_rows();
  ASSERT_TRUE(
      compiled->graph->Update({{"maxbins", expr::EvalValue::Number(45)}}).ok());
  EXPECT_GE(binned->tail->output->num_rows(), before);
}

TEST(CompilerTest, MissingTableFails) {
  auto r = ParseSpecText(kHistogramSpec);
  ASSERT_TRUE(r.ok());
  std::map<std::string, data::TablePtr> tables;
  EXPECT_FALSE(CompileClientDataflow(*r, tables).ok());
}

TEST(TemplateSmokeTest, AllTemplatesParseCompileRun) {
  // Every template x every dataset must compile into a runnable dataflow
  // whose mark entries produce output (the §6.1 expressivity claim).
  for (benchdata::TemplateId id : benchdata::AllTemplates()) {
    for (const std::string& ds : benchdata::DatasetNames()) {
      auto bc = benchdata::MakeBenchCase(id, ds, 800, 99);
      ASSERT_TRUE(bc.ok()) << benchdata::TemplateName(id) << " on " << ds << ": "
                           << bc.status();
      std::map<std::string, data::TablePtr> tables{{bc->dataset.name, bc->dataset.table}};
      auto compiled = CompileClientDataflow(bc->spec, tables);
      ASSERT_TRUE(compiled.ok()) << benchdata::TemplateName(id) << " on " << ds << ": "
                                 << compiled.status();
      auto run = compiled->graph->Run();
      ASSERT_TRUE(run.ok()) << benchdata::TemplateName(id) << " on " << ds << ": "
                            << run.status();
      for (const auto& m : bc->spec.marks) {
        const CompiledEntry* entry = compiled->FindEntry(m.from_data);
        ASSERT_NE(entry, nullptr);
        ASSERT_NE(entry->tail->output, nullptr)
            << benchdata::TemplateName(id) << " mark " << m.from_data;
        EXPECT_GT(entry->tail->output->num_rows(), 0u)
            << benchdata::TemplateName(id) << "/" << ds << " mark " << m.from_data;
      }
    }
  }
}

}  // namespace
}  // namespace spec
}  // namespace vegaplus
