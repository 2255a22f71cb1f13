// Differential suite for dictionary-encoded string columns: the same data
// built dictionary-encoded (the default) and flat (Column::DecodeFlat) must
// produce bit-identical results through every engine path — the expression
// corpus, string-heavy SQL (group-by / equality filters / ORDER BY /
// HAVING / windows), transforms, and IPC round trips — including
// morsel-parallel runs at 1/2/4/8 threads. Registered under both the
// `differential` and `concurrency` ctest labels so the TSan CI job
// exercises the parallel paths over shared dictionaries.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "data/ipc.h"
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

/// The same logical table in both physical forms.
struct TwinTables {
  TablePtr dict;
  TablePtr flat;
};

TwinTables MakeTwins(uint64_t seed, size_t rows) {
  TwinTables twins;
  twins.dict = testutil::MakeRandomExprTable(seed, rows);
  twins.flat = testutil::FlatTwin(*twins.dict);
  return twins;
}

TEST(DictDiffTest, TwinsShareValuesButNotRepresentation) {
  TwinTables twins = MakeTwins(11, 500);
  for (const char* name : {"ss", "sc", "sh"}) {
    const data::Column* d = twins.dict->ColumnByName(name);
    const data::Column* f = twins.flat->ColumnByName(name);
    ASSERT_NE(d, nullptr);
    ASSERT_NE(f, nullptr);
    EXPECT_TRUE(d->dict_encoded()) << name;
    EXPECT_FALSE(f->dict_encoded()) << name;
  }
  EXPECT_TRUE(twins.dict->Equals(*twins.flat));
  // Dictionary columns hold each distinct string exactly once.
  const data::Column* sc = twins.dict->ColumnByName("sc");
  EXPECT_LE(sc->dict().values.size(), 12u);
}

TEST(DictDiffTest, EncodeDecodeRoundTripsPreserveCells) {
  TwinTables twins = MakeTwins(13, 400);
  const data::Column* d = twins.dict->ColumnByName("sc");
  const data::Column* f = twins.flat->ColumnByName("sc");
  data::Column decoded = d->DecodeFlat();
  data::Column encoded = f->EncodeDictionary();
  EXPECT_FALSE(decoded.dict_encoded());
  EXPECT_TRUE(encoded.dict_encoded());
  ASSERT_EQ(decoded.length(), d->length());
  ASSERT_EQ(encoded.length(), f->length());
  for (size_t r = 0; r < d->length(); ++r) {
    EXPECT_TRUE(SameCell(d->ValueAt(r), decoded.ValueAt(r))) << r;
    EXPECT_TRUE(SameCell(f->ValueAt(r), encoded.ValueAt(r))) << r;
  }
}

// Appending a new unique string to a column whose dictionary is shared (via
// Take) clones the dictionary first: the sibling's view never changes.
TEST(DictDiffTest, SharedDictionaryCopyOnWrite) {
  data::Column col(data::DataType::kString);
  col.AppendString("a");
  col.AppendString("b");
  data::Column taken = col.Take({1, 0});
  ASSERT_TRUE(taken.dict_encoded());
  EXPECT_EQ(col.dict_shared().get(), taken.dict_shared().get());

  col.AppendString("c");  // new unique string -> dictionary clones
  EXPECT_NE(col.dict_shared().get(), taken.dict_shared().get());
  EXPECT_EQ(taken.dict().values.size(), 2u);
  EXPECT_EQ(col.dict().values.size(), 3u);
  EXPECT_EQ(taken.StringAt(0), "b");
  EXPECT_EQ(taken.StringAt(1), "a");
  EXPECT_EQ(col.StringAt(2), "c");

  // Appending an existing string shares the (possibly cloned) dictionary.
  data::Column sliced = col.Slice(0, 2);
  col.AppendString("a");
  EXPECT_EQ(col.length(), 4u);
  EXPECT_EQ(col.StringAt(3), "a");
  EXPECT_EQ(sliced.StringAt(0), "a");
}

TEST(DictDiffTest, CorpusCellsMatchFlat) {
  TwinTables twins = MakeTwins(7, 2000);
  size_t compiled = 0;
  for (const std::string& text : testutil::BuildExprCorpus()) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    auto program = expr::Compiler::Compile(*parsed, twins.dict->schema());
    if (!program) continue;  // scalar-only: no vector path to compare
    ++compiled;
    expr::Vec dict_v = expr::BatchEvaluator(*twins.dict).Run(*program);
    expr::Vec flat_v = expr::BatchEvaluator(*twins.flat).Run(*program);
    ASSERT_EQ(dict_v.kind, flat_v.kind) << text;
    ASSERT_EQ(dict_v.is_const, flat_v.is_const) << text;
    for (size_t r = 0; r < twins.dict->num_rows(); ++r) {
      ASSERT_TRUE(SameCell(dict_v.CellValue(r), flat_v.CellValue(r)))
          << text << " row " << r
          << ": dict=" << dict_v.CellValue(r).ToString()
          << " flat=" << flat_v.CellValue(r).ToString();
    }
  }
  EXPECT_GT(compiled, 1000u);
}

TEST(DictDiffTest, FilterSelectionsMatchFlat) {
  TwinTables twins = MakeTwins(23, 5000);
  const char* predicates[] = {
      "datum.sc == 'cat_3'",                 // fused code compare
      "datum.sc != 'cat_3'",                 // negated, nulls included
      "datum.sc == 'not_in_dict'",           // absent constant: empty
      "datum.sc != 'not_in_dict'",           // absent constant: everything
      "datum.sh == 'id_1'",                  // high-cardinality column
      "datum.sc == datum.ss",                // two distinct dictionaries
      "datum.sc < 'cat_5'",                  // ordered compare, general path
      "datum.dd > 0 && datum.sc == 'cat_1'",  // fused num+str conjunction
      "datum.sc == 'cat_1' && datum.ii < 5 && datum.dd > -10",
      "datum.sc",                            // bare truthiness
  };
  for (const char* text : predicates) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto program = expr::Compiler::Compile(*parsed, twins.dict->schema());
    ASSERT_TRUE(program.has_value()) << text;
    std::vector<int32_t> dict_sel, flat_sel;
    expr::BatchEvaluator(*twins.dict).RunFilter(*program, &dict_sel);
    expr::BatchEvaluator(*twins.flat).RunFilter(*program, &flat_sel);
    EXPECT_EQ(dict_sel, flat_sel) << text;
    // Morsel-parallel over shared dictionaries matches too.
    MorselConfigGuard guard(/*morsel_rows=*/311, /*threads=*/4);
    std::vector<int32_t> dict_morsel;
    expr::RunFilterMorselParallel(*twins.dict, *program, &dict_morsel);
    EXPECT_EQ(dict_morsel, flat_sel) << text << " (morsel)";
  }
}

// Conjunction fusion itself: the fused path and the general register path
// select identical rows for mixed numeric/string AND-chains.
TEST(DictDiffTest, FusedConjunctionsMatchRegisterPath) {
  TwinTables twins = MakeTwins(41, 4000);
  const char* predicates[] = {
      "datum.dd > -20 && datum.dd < 20",
      "datum.dd > -20 && datum.ii <= 5 && datum.dd != 0",
      "3 < datum.ii && datum.sc == 'cat_2'",
      "datum.sc != 'cat_0' && datum.ss == 'mid' && datum.ii >= -10",
  };
  for (const char* text : predicates) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto program = expr::Compiler::Compile(*parsed, twins.dict->schema());
    ASSERT_TRUE(program.has_value()) << text;
    ASSERT_GE(program->fused_preds.size(), 2u) << text;
    // Strip the fused plan to force the general register path.
    expr::Program general = *program;
    general.fused_preds.clear();
    for (const TablePtr& table : {twins.dict, twins.flat}) {
      std::vector<int32_t> fused, registers;
      expr::BatchEvaluator(*table).RunFilter(*program, &fused);
      expr::BatchEvaluator(*table).RunFilter(general, &registers);
      EXPECT_EQ(fused, registers) << text;
    }
  }
}

class DictQueryDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    twins_ = MakeTwins(31, 30000);
    dict_engine_.RegisterTable("t", twins_.dict);
    flat_engine_.RegisterTable("t", twins_.flat);
  }

  data::TablePtr Run(sql::Engine& engine, const char* sql,
                     const common::QueryContext* ctx = nullptr) {
    auto result = engine.Query(sql, ctx);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? result->table : nullptr;
  }

  void ExpectSame(const char* sql, const common::QueryContext* ctx = nullptr) {
    data::TablePtr dict_result = Run(dict_engine_, sql, ctx);
    data::TablePtr flat_result = Run(flat_engine_, sql, ctx);
    ASSERT_NE(dict_result, nullptr) << sql;
    ASSERT_NE(flat_result, nullptr) << sql;
    ASSERT_TRUE(dict_result->Equals(*flat_result))
        << sql << "\ndict:\n" << dict_result->ToString(8)
        << "flat:\n" << flat_result->ToString(8);
  }

  TwinTables twins_;
  sql::Engine dict_engine_;
  sql::Engine flat_engine_;
};

const char* kStringQueries[] = {
    "SELECT sc, COUNT(*) AS n, SUM(dd) AS s FROM t GROUP BY sc ORDER BY sc",
    "SELECT sc, sh, COUNT(*) AS n FROM t GROUP BY sc, sh ORDER BY n DESC, sc, "
    "sh LIMIT 200",
    "SELECT * FROM t WHERE sc = 'cat_3'",
    "SELECT COUNT(*) AS n FROM t WHERE sc != 'cat_3' AND dd > 0",
    "SELECT sc, dd FROM t WHERE dd IS NOT NULL ORDER BY sc, dd LIMIT 100",
    "SELECT sh FROM t ORDER BY sh DESC LIMIT 50",
    "SELECT sc, MIN(ss) AS lo, MAX(sh) AS hi FROM t GROUP BY sc ORDER BY sc",
    "SELECT sc, COUNT(*) AS n FROM t GROUP BY sc HAVING n > 100 ORDER BY sc",
    "SELECT UPPER(sc) AS u, COUNT(*) AS n FROM t GROUP BY UPPER(sc) ORDER BY u",
    "SELECT ii, SUM(dd) OVER (PARTITION BY sc ORDER BY ii) AS run FROM t "
    "ORDER BY ii, run LIMIT 500",
    "SELECT LOWER(sh) AS k, COUNT(*) AS n FROM t GROUP BY LOWER(sh) "
    "ORDER BY n DESC, k LIMIT 100",
};

TEST_F(DictQueryDiffTest, StringQueriesMatchFlat) {
  for (const char* sql : kStringQueries) ExpectSame(sql);
}

// The scalar interpreter reads dictionary columns through the same StringAt
// surface: with vectorization off the two forms still agree, and agree with
// the vectorized engine.
TEST_F(DictQueryDiffTest, ScalarPathStringQueriesMatchFlat) {
  for (const char* sql : kStringQueries) {
    ExpectSame(sql, &testutil::kInterpreted);
    data::TablePtr interpreted = Run(dict_engine_, sql, &testutil::kInterpreted);
    data::TablePtr vectorized = Run(dict_engine_, sql);
    ASSERT_NE(interpreted, nullptr) << sql;
    ASSERT_NE(vectorized, nullptr) << sql;
    ASSERT_TRUE(interpreted->Equals(*vectorized)) << sql;
  }
}

// Dictionary vs flat execution is invariant across morsel parallelism
// levels: dictionaries are shared read-only across workers and group ids
// come from the deterministic chunk merge.
TEST_F(DictQueryDiffTest, ResultsInvariantAcrossThreadsAndEncodings) {
  const char* sql =
      "SELECT sc, COUNT(*) AS n, SUM(dd) AS s, MIN(sh) AS lo FROM t "
      "WHERE sc != 'cat_0' GROUP BY sc ORDER BY sc";
  data::TablePtr reference;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    MorselConfigGuard guard(/*morsel_rows=*/1024, threads);
    for (bool dict : {true, false}) {
      data::TablePtr result = Run(dict ? dict_engine_ : flat_engine_, sql);
      ASSERT_NE(result, nullptr) << threads << " threads dict=" << dict;
      if (!reference) {
        reference = result;
      } else {
        ASSERT_TRUE(result->Equals(*reference))
            << threads << " threads dict=" << dict;
      }
    }
  }
}

TEST_F(DictQueryDiffTest, TransformsMatchFlat) {
  expr::MapSignalResolver signals;
  auto run_both = [&](dataflow::Operator& op) {
    auto dict_result = op.Evaluate(twins_.dict, signals);
    auto flat_result = op.Evaluate(twins_.flat, signals);
    ASSERT_TRUE(dict_result.ok()) << dict_result.status();
    ASSERT_TRUE(flat_result.ok()) << flat_result.status();
    ASSERT_NE(dict_result->table, nullptr);
    ASSERT_NE(flat_result->table, nullptr);
    ASSERT_TRUE(dict_result->table->Equals(*flat_result->table))
        << "dict:\n" << dict_result->table->ToString(8)
        << "flat:\n" << flat_result->table->ToString(8);
  };

  {
    auto pred = expr::ParseExpression("datum.sc == 'cat_2' || datum.dd > 40");
    ASSERT_TRUE(pred.ok());
    transforms::FilterOp filter(*pred);
    run_both(filter);
  }
  {
    using transforms::FieldRef;
    transforms::AggregateOp::Params params;
    params.groupby = {FieldRef::Fixed("sc"), FieldRef::Fixed("bb")};
    params.fields = {FieldRef::Fixed("dd"), FieldRef::Fixed("sh"),
                     FieldRef::Fixed("ii")};
    params.ops = {transforms::VegaAggOp::kMean, transforms::VegaAggOp::kMax,
                  transforms::VegaAggOp::kSum};
    transforms::AggregateOp agg(params);
    run_both(agg);
  }
  {
    using transforms::FieldRef;
    std::vector<transforms::CollectOp::SortKey> keys;
    keys.push_back({FieldRef::Fixed("sc"), false});
    keys.push_back({FieldRef::Fixed("sh"), true});
    transforms::CollectOp collect(std::move(keys));
    run_both(collect);
  }
  {
    auto formula = expr::ParseExpression("upper(datum.sc) + '_' + datum.ss");
    ASSERT_TRUE(formula.ok());
    transforms::FormulaOp op(*formula, "k");
    run_both(op);
  }
}

// Dictionary IPC: both forms round-trip losslessly, decode to equal tables,
// and the dictionary payload is smaller for low-cardinality data.
TEST_F(DictQueryDiffTest, BinaryIpcRoundTripsAndShrinks) {
  const std::string dict_bytes = data::SerializeBinary(*twins_.dict);
  const std::string flat_bytes = data::SerializeBinary(*twins_.flat);
  auto dict_back = data::DeserializeBinary(dict_bytes);
  auto flat_back = data::DeserializeBinary(flat_bytes);
  ASSERT_TRUE(dict_back.ok()) << dict_back.status();
  ASSERT_TRUE(flat_back.ok()) << flat_back.status();
  EXPECT_TRUE((*dict_back)->Equals(*twins_.dict));
  EXPECT_TRUE((*flat_back)->Equals(*twins_.flat));
  EXPECT_TRUE((*dict_back)->Equals(**flat_back));
  // The payload preserves the physical form.
  EXPECT_TRUE((*dict_back)->ColumnByName("sc")->dict_encoded());
  EXPECT_FALSE((*flat_back)->ColumnByName("sc")->dict_encoded());
  // sc (12 distinct over 30k rows) shrinks; the whole-table payload does
  // too, despite the mostly-unique sh column paying 4 bytes/row overhead.
  const data::Column* sc_dict = twins_.dict->ColumnByName("sc");
  data::Column sc_flat = sc_dict->DecodeFlat();
  data::Table one_dict(data::Schema({{"sc", data::DataType::kString}}), {*sc_dict});
  data::Table one_flat(data::Schema({{"sc", data::DataType::kString}}), {sc_flat});
  EXPECT_LT(data::SerializeBinary(one_dict).size(),
            data::SerializeBinary(one_flat).size());

  // A small slice still shares sh's ~30k-entry dictionary; the payload must
  // carry only the referenced entries, not the base table's cardinality.
  data::TablePtr head = twins_.dict->Slice(0, 20);
  const std::string head_bytes = data::SerializeBinary(*head);
  EXPECT_LT(head_bytes.size(), 10000u);
  auto head_back = data::DeserializeBinary(head_bytes);
  ASSERT_TRUE(head_back.ok()) << head_back.status();
  EXPECT_TRUE((*head_back)->Equals(*head));
}

}  // namespace
}  // namespace vegaplus
