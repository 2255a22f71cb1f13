#include <gtest/gtest.h>

#include <set>

#include "benchdata/datasets.h"
#include "benchdata/templates.h"
#include "benchdata/workload.h"
#include "expr/bind.h"
#include "expr/compiler.h"
#include "expr/parser.h"
#include "plan/enumerator.h"
#include "spec/transform_factory.h"

namespace vegaplus {
namespace benchdata {
namespace {

TEST(DatasetsTest, AllGeneratorsProduceRequestedRows) {
  for (const std::string& name : DatasetNames()) {
    auto ds = MakeDataset(name, 1234, 7);
    ASSERT_TRUE(ds.ok()) << name << ": " << ds.status();
    EXPECT_EQ(ds->table->num_rows(), 1234u) << name;
    EXPECT_GE(ds->quantitative.size(), 3u) << name;
    EXPECT_GE(ds->categorical.size(), 2u) << name;
    EXPECT_GE(ds->temporal.size(), 1u) << name;
    // Every advertised role must exist in the schema with a fitting type.
    for (const auto& f : ds->quantitative) {
      int idx = ds->table->schema().FieldIndex(f);
      ASSERT_GE(idx, 0) << name << "." << f;
      EXPECT_TRUE(data::IsNumericType(ds->table->schema().field(idx).type));
    }
    for (const auto& f : ds->temporal) {
      int idx = ds->table->schema().FieldIndex(f);
      ASSERT_GE(idx, 0);
      EXPECT_EQ(ds->table->schema().field(idx).type, data::DataType::kTimestamp);
    }
  }
}

TEST(DatasetsTest, DeterministicBySeed) {
  auto a = MakeDataset("flights", 500, 9);
  auto b = MakeDataset("flights", 500, 9);
  auto c = MakeDataset("flights", 500, 10);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_TRUE(a->table->Equals(*b->table));
  EXPECT_FALSE(a->table->Equals(*c->table));
}

TEST(DatasetsTest, UnknownNameFails) {
  EXPECT_FALSE(MakeDataset("nope", 10, 1).ok());
}

TEST(DatasetsTest, CategoricalSkewIsZipfian) {
  auto ds = MakeDataset("flights", 20000, 3);
  ASSERT_TRUE(ds.ok());
  data::TableStats stats = data::ComputeTableStats(*ds->table);
  const data::ColumnStats* origin = stats.Find("origin");
  ASSERT_NE(origin, nullptr);
  EXPECT_GE(origin->distinct_count, 10u);
  // Top category should dominate a uniform share by a wide margin.
  const data::Column* col = ds->table->ColumnByName("origin");
  std::map<std::string, size_t> counts;
  for (size_t r = 0; r < col->length(); ++r) ++counts[col->StringAt(r)];
  size_t top = 0;
  for (const auto& [k, v] : counts) top = std::max(top, v);
  EXPECT_GT(top, 20000u / 20 * 3);
}

TEST(TemplatesTest, OperatorAndPlanCounts) {
  // Table-1-style sanity: interactive multi-view templates must enumerate
  // strictly more plans than single-view ones.
  std::map<TemplateId, size_t> plans;
  std::map<TemplateId, size_t> ops;
  for (TemplateId id : AllTemplates()) {
    auto bc = MakeBenchCase(id, "flights", 600, 11);
    ASSERT_TRUE(bc.ok()) << TemplateName(id);
    rewrite::PlanBuilder builder(bc->spec);
    auto e = plan::EnumeratePlans(builder, 1u << 20);
    plans[id] = e.total_space;
    ops[id] = bc->spec.TotalOperators();
    EXPECT_GE(e.total_space, 2u) << TemplateName(id);
  }
  EXPECT_GT(plans[TemplateId::kCrossfilter], plans[TemplateId::kInteractiveHistogram]);
  EXPECT_GT(plans[TemplateId::kOverviewDetail], plans[TemplateId::kLineChart]);
  EXPECT_GT(ops[TemplateId::kCrossfilter], ops[TemplateId::kLineChart]);
  // Paper Table 1 reference points for the simple templates.
  EXPECT_EQ(ops[TemplateId::kLineChart], 2u);
  EXPECT_EQ(plans[TemplateId::kLineChart], 3u);
  EXPECT_EQ(ops[TemplateId::kInteractiveHistogram], 3u);
  EXPECT_EQ(plans[TemplateId::kInteractiveHistogram], 4u);
  EXPECT_EQ(ops[TemplateId::kTrellisStackedBar], 3u);
  EXPECT_EQ(plans[TemplateId::kTrellisStackedBar], 4u);
}

TEST(TemplatesTest, InteractiveTemplatesHaveBoundSignals) {
  for (TemplateId id : AllTemplates()) {
    auto bc = MakeBenchCase(id, "weather", 400, 12);
    ASSERT_TRUE(bc.ok());
    WorkloadGenerator workload(bc->spec, 1);
    EXPECT_EQ(workload.has_interactions(), IsInteractive(id)) << TemplateName(id);
  }
}

TEST(TemplatesTest, FieldChoicesVaryWithSeed) {
  std::set<std::string> exprs;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    auto ds = MakeDataset("flights", 100, 1);
    ASSERT_TRUE(ds.ok());
    Rng rng(seed);
    auto spec = BuildTemplate(TemplateId::kInteractiveHistogram, *ds, &rng);
    ASSERT_TRUE(spec.ok());
    exprs.insert(spec->signals[0].init.AsString());  // initial field choice
  }
  EXPECT_GT(exprs.size(), 1u);
}

// Every filter and formula of every template binds, under the initial
// signals and after each of 20 interactions, to a tree the vector compiler
// accepts: client-side execution of the paper's dashboards never falls back
// to the row interpreter. Each pipeline runs as it would on the client, so
// every expression compiles against the schema its transform really sees.
TEST(TemplatesTest, FiltersAndFormulasBindToVectorPrograms) {
  size_t checked = 0;
  for (TemplateId id : AllTemplates()) {
    for (const std::string& dataset : DatasetNames()) {
      auto bc = MakeBenchCase(id, dataset, 500, 11);
      ASSERT_TRUE(bc.ok()) << TemplateName(id) << " on " << dataset;
      expr::MapSignalResolver signals;
      for (const spec::SignalSpec& s : bc->spec.signals) {
        signals.Set(s.name, expr::EvalValue::FromJson(s.init));
      }
      WorkloadGenerator workload(bc->spec, 3);
      for (int draw = 0; draw <= 20; ++draw) {
        std::string state = "initial signals";
        if (draw > 0) {
          Interaction interaction = workload.Next();
          for (const auto& [name, value] : interaction.updates) signals.Set(name, value);
          state = "after " + interaction.description;
        }
        std::map<std::string, data::TablePtr> outputs;
        for (const spec::DataSpec& entry : bc->spec.data) {
          data::TablePtr table =
              entry.source.empty() ? bc->dataset.table : outputs.at(entry.source);
          for (const spec::TransformSpec& ts : entry.transforms) {
            if (ts.type == "filter" || ts.type == "formula") {
              const std::string text = ts.params.GetString("expr");
              auto parsed = expr::ParseExpression(text);
              ASSERT_TRUE(parsed.ok()) << text;
              std::vector<std::string> fields, unused;
              expr::CollectReferences(*parsed, &fields, &unused);
              for (const std::string& f : fields) {
                ASSERT_GE(table->schema().FieldIndex(f), 0) << text << " reads " << f;
              }
              const expr::NodePtr bound = expr::BindSignals(*parsed, signals);
              EXPECT_TRUE(expr::Compiler::Compile(bound, table->schema()).has_value())
                  << TemplateName(id) << " on " << dataset << ", " << state << ": " << text
                  << " bound to " << expr::ToString(bound) << " does not compile";
              ++checked;
            }
            auto op = spec::BuildTransformOp(ts);
            ASSERT_TRUE(op.ok()) << op.status();
            auto result = (*op)->Evaluate(table, signals);
            ASSERT_TRUE(result.ok()) << result.status();
            for (const auto& [name, value] : result->signal_writes) signals.Set(name, value);
            table = result->table;
          }
          outputs[entry.name] = table;
        }
      }
    }
  }
  // Five templates filter on signals; a template rename or a pipeline
  // change that hides them must not turn this into a vacuous pass.
  EXPECT_GE(checked, 5u * DatasetNames().size() * 21);
}

TEST(WorkloadTest, GeneratesValidUpdates) {
  auto bc = MakeBenchCase(TemplateId::kOverviewDetail, "stocks", 800, 14);
  ASSERT_TRUE(bc.ok());
  WorkloadGenerator workload(bc->spec, 15);
  std::set<std::string> signals_touched;
  for (int i = 0; i < 50; ++i) {
    Interaction interaction = workload.Next();
    ASSERT_EQ(interaction.updates.size(), 1u);
    const auto& [name, value] = interaction.updates[0];
    signals_touched.insert(name);
    const spec::SignalSpec* sig = bc->spec.FindSignal(name);
    ASSERT_NE(sig, nullptr);
    switch (sig->bind) {
      case spec::BindKind::kRange:
        EXPECT_GE(value.AsDouble(), sig->bind_min);
        EXPECT_LE(value.AsDouble(), sig->bind_max + sig->bind_step);
        break;
      case spec::BindKind::kInterval: {
        ASSERT_TRUE(value.is_array());
        double lo = value.array()[0].AsDouble();
        double hi = value.array()[1].AsDouble();
        EXPECT_LE(lo, hi);
        EXPECT_GE(lo, sig->bind_min - 1e-9);
        EXPECT_LE(hi, sig->bind_max + 1e-9);
        break;
      }
      case spec::BindKind::kPoint:
        EXPECT_TRUE(value.is_null() || value.scalar().is_string());
        break;
      default:
        break;
    }
  }
  // Both bound signals get exercised.
  EXPECT_GE(signals_touched.size(), 2u);
}

TEST(WorkloadTest, SessionLengthAndDeterminism) {
  auto bc = MakeBenchCase(TemplateId::kCrossfilter, "movies", 500, 16);
  ASSERT_TRUE(bc.ok());
  WorkloadGenerator w1(bc->spec, 42), w2(bc->spec, 42);
  auto s1 = w1.Session(20);
  auto s2 = w2.Session(20);
  ASSERT_EQ(s1.size(), 20u);
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].description, s2[i].description);
  }
}

TEST(WorkloadTest, StaticTemplateYieldsEmptyInteractions) {
  auto bc = MakeBenchCase(TemplateId::kLineChart, "weather", 300, 17);
  ASSERT_TRUE(bc.ok());
  WorkloadGenerator workload(bc->spec, 1);
  EXPECT_FALSE(workload.has_interactions());
  EXPECT_TRUE(workload.Next().updates.empty());
}

}  // namespace
}  // namespace benchdata
}  // namespace vegaplus
