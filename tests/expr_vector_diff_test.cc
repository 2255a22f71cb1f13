// Differential suite for the vectorized expression engine: every expression
// in a generated corpus (all binary/unary operators, ternaries, calls,
// nulls, NaNs, strings) runs through both the scalar interpreter
// (expr::Evaluate row-at-a-time) and the compiled column-at-a-time engine
// (expr::Compiler + expr::BatchEvaluator) over randomized columns, and the
// results must be identical cell for cell. A second layer checks whole SQL
// queries on the vectorized engine against the same queries run with
// QueryContext::vectorized = false. A third
// binds signal-reading expressions per signal state (expr::BindSignals) and
// checks the compiled bound tree against the interpreter on the original.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "data/column.h"
#include "data/table.h"
#include "exec_test_util.h"
#include "expr/batch_eval.h"
#include "expr/bind.h"
#include "expr/compiler.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "expr_corpus_test_util.h"
#include "sql/engine.h"
#include "transforms/transforms.h"

namespace vegaplus {
namespace {

using data::TablePtr;
using data::Value;
using testutil::BuildExprCorpus;
using testutil::SameCell;

constexpr size_t kRows = 400;

TablePtr MakeRandomTable(uint64_t seed) {
  return testutil::MakeRandomExprTable(seed, kRows);
}

/// SIMD-hostile batch lengths, ascending: empty, single row, one off either
/// side of typical register widths, and one off either side of the morsel
/// size.
std::vector<size_t> KernelBoundaryLengths() {
  const size_t morsel = parallel::MorselRows();
  return {0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 400, morsel - 1, morsel, morsel + 1};
}

/// A 32-row table with `like`'s schema and every cell null, exercising the
/// all-invalid fast paths.
TablePtr AllNullTwin(const data::Table& like) {
  std::vector<data::Column> cols;
  for (const auto& field : like.schema().fields()) {
    data::Column col(field.type);
    for (size_t r = 0; r < 32; ++r) col.AppendNull();
    cols.push_back(std::move(col));
  }
  return std::make_shared<data::Table>(like.schema(), std::move(cols));
}

// Compile-time CSE: repeated loads of one column are detected, the cached
// register is reused, and results stay identical to the scalar interpreter.
TEST(ColumnCseTest, RepeatedLoadsDetectedAndEquivalent) {
  TablePtr table = MakeRandomTable(11);
  auto parsed =
      expr::ParseExpression("datum.dd > 2 && datum.dd < 40 && datum.dd != 7");
  ASSERT_TRUE(parsed.ok());
  auto program = expr::Compiler::Compile(*parsed, table->schema());
  ASSERT_TRUE(program.has_value());
  int32_t dd = table->schema().FieldIndex("dd");
  ASSERT_GE(dd, 0);
  ASSERT_EQ(program->reused_cols.size(), 1u);
  EXPECT_EQ(program->reused_cols[0].first, dd);
  EXPECT_EQ(program->reused_cols[0].second, 3);

  std::vector<Value> actual;
  expr::BatchEvaluator(*table).RunToValues(*program, &actual);
  expr::EvalContext ctx;
  ctx.table = table.get();
  for (size_t r = 0; r < table->num_rows(); ++r) {
    ctx.row = r;
    Value expected = expr::Evaluate(*parsed, ctx).scalar();
    ASSERT_TRUE(SameCell(expected, actual[r])) << "row " << r;
  }
}

class VectorEngineDiffTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VectorEngineDiffTest, CorpusMatchesScalarInterpreter) {
  TablePtr table = MakeRandomTable(GetParam());
  size_t compiled = 0, fallback = 0;
  for (const std::string& text : BuildExprCorpus()) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    auto program = expr::Compiler::Compile(*parsed, table->schema());
    if (!program) {
      ++fallback;  // scalar fallback is the documented contract here
      continue;
    }
    ++compiled;
    std::vector<Value> actual;
    expr::BatchEvaluator(*table).RunToValues(*program, &actual);
    ASSERT_EQ(actual.size(), table->num_rows()) << text;
    expr::EvalContext ctx;
    ctx.table = table.get();
    for (size_t r = 0; r < table->num_rows(); ++r) {
      ctx.row = r;
      expr::EvalValue ev = expr::Evaluate(*parsed, ctx);
      Value expected = ev.is_array() ? Value::Null() : ev.scalar();
      ASSERT_TRUE(SameCell(expected, actual[r]))
          << text << " row " << r << ": scalar=" << expected.ToString()
          << " vector=" << actual[r].ToString();
    }
  }
  // Most of the corpus is vectorizable (the string/numeric mixes — heavily
  // represented since the string operands joined the operand pool — and
  // array expressions legitimately fall back); a compiler regression that
  // rejects everything should fail loudly, not silently shift the whole
  // suite onto the fallback path.
  EXPECT_GT(compiled, fallback) << compiled << " compiled, " << fallback
                                << " fell back";
  EXPECT_GT(compiled, 1000u);
}

TEST_P(VectorEngineDiffTest, FilterSelectionsMatchScalarTruthiness) {
  TablePtr table = MakeRandomTable(GetParam() * 31 + 7);
  const char* predicates[] = {
      "datum.dd > 0",        // fused compare (column lhs)
      "10 >= datum.dd",      // fused compare (column rhs, mirrored)
      "datum.ii == 4",       // fused equality
      "datum.ii != 4",       // fused inequality: null rows are included
      "datum.dd == null",    // null comparisons stay on the general path
      "datum.bb",            // bare column truthiness
      "datum.ss == 'mid'",
      "datum.dd > -10 && datum.ii <= 5",
      "!(datum.dd <= 0 || datum.bb)",
      "isValid(datum.dd) && datum.dd * 2 < 40",
      // Fused OR-trees: compiled to one bitmap-combine pass by the kernels.
      "datum.dd > 10 || datum.ii < -5",
      "datum.dd > 10 || datum.ii < -5 || datum.sc == 'cat_1'",
      "datum.dd > 0 && datum.ii < 10 || datum.dd < -40",
      "(datum.dd > 0 || datum.ii == 4) && datum.sc != 'cat_2'",
      "datum.ss == 'mid' || datum.dd >= 49",
  };
  for (const char* text : predicates) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    auto program = expr::Compiler::Compile(*parsed, table->schema());
    ASSERT_TRUE(program.has_value()) << text << " should vectorize";
    std::vector<int32_t> vec_sel;
    expr::BatchEvaluator(*table).RunFilter(*program, &vec_sel);
    std::vector<int32_t> scalar_sel;
    expr::EvalContext ctx;
    ctx.table = table.get();
    for (size_t r = 0; r < table->num_rows(); ++r) {
      ctx.row = r;
      if (expr::Evaluate(*parsed, ctx).Truthy()) {
        scalar_sel.push_back(static_cast<int32_t>(r));
      }
    }
    EXPECT_EQ(vec_sel, scalar_sel) << text;
  }
}

TEST_P(VectorEngineDiffTest, ExecutorAgreesWithScalarPath) {
  TablePtr table = MakeRandomTable(GetParam() * 131 + 17);
  sql::Engine engine;
  engine.RegisterTable("t", table);
  const char* queries[] = {
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
      "SELECT ii, ROW_NUMBER() OVER (PARTITION BY ss ORDER BY dd) AS rn FROM t "
      "ORDER BY ii, rn",
      "SELECT ii, SUM(dd) OVER (PARTITION BY bb ORDER BY ii) AS run FROM t "
      "ORDER BY ii, run",
      "SELECT MONTH(tt) AS m, COUNT(*) AS n FROM t GROUP BY MONTH(tt) ORDER BY m",
      "SELECT CASE WHEN dd > 10 THEN 'hi' WHEN dd IS NULL THEN 'null' "
      "ELSE 'lo' END AS bucket, ii FROM t ORDER BY ii LIMIT 50",
      // String-constant group keys: the grouping registers must own their
      // constants (regression: they once dangled into the freed Program).
      "SELECT CASE WHEN dd > 0 THEN 'pos' ELSE 'neg' END AS sign_s, "
      "COUNT(*) AS n FROM t GROUP BY CASE WHEN dd > 0 THEN 'pos' ELSE 'neg' END "
      "ORDER BY sign_s",
  };
  for (const char* sql : queries) {
    auto vec = engine.Query(sql);
    auto scalar = engine.Query(sql, &testutil::kInterpreted);
    ASSERT_TRUE(vec.ok()) << sql << ": " << vec.status();
    ASSERT_TRUE(scalar.ok()) << sql << ": " << scalar.status();
    ASSERT_EQ(vec->table->num_rows(), scalar->table->num_rows()) << sql;
    ASSERT_TRUE(vec->table->Equals(*scalar->table))
        << sql << "\nvectorized:\n" << vec->table->ToString(8)
        << "scalar:\n" << scalar->table->ToString(8);
  }
}

// Differential for the SIMD kernel library: RunFilter must select exactly
// the rows the scalar interpreter (the kernels' oracle) finds truthy,
// across SIMD-hostile batch lengths (empty, single row, one off either side
// of typical register widths, and one off either side of the morsel size)
// plus an all-null batch. The table mixes NaN/±Inf/−0.0/denormal doubles
// via MakeRandomExprTable.
TEST_P(VectorEngineDiffTest, KernelKillSwitchBitIdentical) {
  const char* predicates[] = {
      "datum.dd > 0",
      "datum.ii != 4",
      "datum.dd == 0",  // −0.0 == 0.0 must hold
      "datum.dd > -10 && datum.ii <= 5 && datum.dd != 7",
      "datum.sc == 'cat_1' && datum.dd > 0",
      "datum.dd > 10 || datum.ii < -5",
      "(datum.dd > 0 || datum.ii == 4) && datum.sc != 'cat_2'",
      "datum.ss == 'mid' || datum.dd >= 49",
  };
  const std::vector<size_t> lengths = KernelBoundaryLengths();
  const size_t max_len = lengths.back();
  TablePtr full = testutil::MakeRandomExprTable(GetParam() * 977 + 5, max_len);
  std::vector<TablePtr> tables;
  for (size_t len : lengths) tables.push_back(full->Slice(0, len));
  tables.push_back(AllNullTwin(*full));

  for (const char* text : predicates) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    for (const TablePtr& table : tables) {
      auto program = expr::Compiler::Compile(*parsed, table->schema());
      ASSERT_TRUE(program.has_value()) << text << " should vectorize";
      std::vector<int32_t> sel;
      expr::BatchEvaluator(*table).RunFilter(*program, &sel);
      std::vector<int32_t> scalar_sel;
      expr::EvalContext ctx;
      ctx.table = table.get();
      for (size_t r = 0; r < table->num_rows(); ++r) {
        ctx.row = r;
        if (expr::Evaluate(*parsed, ctx).Truthy()) {
          scalar_sel.push_back(static_cast<int32_t>(r));
        }
      }
      EXPECT_EQ(sel, scalar_sel)
          << text << " rows=" << table->num_rows() << " vs scalar interpreter";
    }
  }
}

// ---- Signal binding (expr::BindSignals) ----
//
// FilterOp and FormulaOp compile a per-pulse bound copy of their expression;
// the interpreter on the *original* tree stays the oracle. The signal states
// cover every way the binder folds: brush arrays of each bound shape,
// arrays too short to be ranges, non-array values, click scalars of each
// type (strings present in and absent from the dictionary), and unresolved
// names.

/// One signal state: brush-shaped `brush` and `brush2`, a click-shaped
/// `clicked` and a number-shaped `k`. Names a state leaves unset stay
/// unresolved.
struct SignalState {
  std::string label;
  expr::MapSignalResolver signals;
  /// The click is null, unresolved, or a string, as the templates' clicks
  /// are; the template filters must compile under every such state.
  bool template_like = true;
};

std::vector<SignalState> BindingStates() {
  using expr::EvalValue;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  auto num = [](double x) { return Value::Double(x); };
  auto range = [](Value lo, Value hi) { return EvalValue::Array({lo, hi}); };
  const std::pair<const char*, EvalValue> brushes[] = {
      {"ordered", range(num(-10), num(20))},
      {"reversed", range(num(20), num(-10))},
      {"equal", range(num(3), num(3))},
      {"nan_lo", range(num(nan), num(20))},
      {"nan_hi", range(num(-10), num(nan))},
      {"inf", range(num(-inf), num(inf))},
      {"inf_reversed", range(num(inf), num(5))},
      {"neg_zero", range(num(-0.0), num(0.0))},
      {"null_lo", range(Value::Null(), num(10))},
      {"null_hi", range(num(-10), Value::Null())},
      {"int_bounds", range(Value::Int(-5), Value::Int(5))},
      {"timestamps", range(Value::Timestamp(978307200000), Value::Timestamp(1041379200000))},
      {"three_elements", EvalValue::Array({num(-5), num(5), num(40)})},
      {"one_element", EvalValue::Array({num(3)})},
      {"empty", EvalValue::Array({})},
      {"number", EvalValue::Number(3)},
      {"string", EvalValue::String("mid")},
      {"null", EvalValue::Null()},
  };
  const std::pair<const char*, EvalValue> scalars[] = {
      {"number", EvalValue::Number(4)},
      {"zero", EvalValue::Number(0)},
      {"nan", EvalValue::Number(nan)},
      {"in_dict", EvalValue::String("cat_3")},
      {"absent", EvalValue::String("not_in_dict")},
      {"empty_string", EvalValue::String("")},
      {"null", EvalValue::Null()},
      {"true", EvalValue::Bool(true)},
      {"false", EvalValue::Bool(false)},
  };
  std::vector<SignalState> states;
  // Each brush shape beside a fixed click, each scalar beside fixed brushes.
  for (const auto& [label, brush] : brushes) {
    SignalState state;
    state.label = std::string("brush=") + label;
    state.signals.Set("brush", brush);
    state.signals.Set("brush2", range(num(-5), num(8)));
    state.signals.Set("clicked", EvalValue::String("cat_3"));
    state.signals.Set("k", EvalValue::Number(2));
    states.push_back(std::move(state));
  }
  for (const auto& [label, scalar] : scalars) {
    SignalState state;
    state.label = std::string("clicked=k=") + label;
    state.signals.Set("brush", range(num(-10), num(20)));
    state.signals.Set("brush2", range(num(-5), num(8)));
    state.signals.Set("clicked", scalar);
    state.signals.Set("k", scalar);
    state.template_like = scalar.is_null() || scalar.scalar().is_string();
    states.push_back(std::move(state));
  }
  states.push_back({"unresolved", {}, true});
  return states;
}

/// The filters of the five interactive templates (benchdata/templates.cc),
/// over this suite's columns.
const char* const kTemplateFilters[] = {
    // Zoomable Heatmap: both zoom domains.
    "inrange(datum.dd, brush) && inrange(datum.ii, brush2)",
    // Crossfilter: the other two views' brushes.
    "inrange(datum.tt, brush) && inrange(datum.dd, brush2)",
    // Heatmap-and-Bar: the bar click, on a dictionary column.
    "clicked == null || datum.sc == clicked",
    // Overview+Detail overview: the bar click, on a high-cardinality column.
    "clicked == null || datum.sh == clicked",
    // Overview+Detail detail: the bar click and the time brush.
    "(clicked == null || datum.sc == clicked) && inrange(datum.tt, brush)",
};

/// Signal-reading filters and formulas beyond the template shapes.
std::vector<std::string> SignalCorpus() {
  std::vector<std::string> corpus(std::begin(kTemplateFilters), std::end(kTemplateFilters));
  corpus.insert(corpus.end(), {
      // inrange over every column type (string operands fall back), a
      // missing field, negated, and over ranges built from signals.
      "inrange(datum.dd, brush)",
      "inrange(datum.ii, brush)",
      "inrange(datum.tt, brush)",
      "inrange(datum.bb, brush)",
      "inrange(datum.sc, brush)",
      "inrange(datum.ss, brush)",
      "inrange(datum.nope, brush)",
      "!inrange(datum.dd, brush)",
      "inrange(datum.dd, [brush[0], k])",
      "inrange(datum.dd, [datum.ii, 10])",
      "inrange(k, brush)",
      "inrange(datum.dd * 2, brush)",
      // Scalars derived from array signals.
      "datum.dd >= brush[0] && datum.dd <= brush[1]",
      "datum.dd > span(brush)",
      "datum.ii < brush.length",
      "datum.dd + brush[2]",
      // Click-style scalars against dictionary, flat, numeric and bool
      // columns.
      "datum.sc == clicked",
      "datum.sc != clicked",
      "datum.ss == clicked",
      "datum.ii == clicked",
      "datum.dd != clicked",
      "datum.bb == clicked",
      "datum.sc < clicked",
      "clicked != null && datum.sc == clicked",
      "isValid(clicked) && datum.ss == clicked",
      // Short-circuit collapse in each position, and value-blending
      // formulas.
      "clicked || datum.dd",
      "clicked && datum.dd",
      "datum.dd && clicked",
      "datum.bb || k",
      "k ? datum.dd : datum.ii",
      "clicked ? datum.ss : 'none'",
      "if(clicked, datum.dd, 0)",
      "k > 0 ? datum.dd : -datum.dd",
      // Numeric signals in arithmetic and compares.
      "datum.dd > k",
      "datum.ii <= -k",
      "datum.dd * k + 1",
      "datum.dd / k",
      "datum.ii % k",
      "datum.sc + clicked",
      "toNumber(k) * datum.dd",
      // Still not vectorizable once bound: array values and arrays indexed
      // by a field.
      "datum.dd + brush",
      "brush",
      "brush[datum.ii]",
      "indexof(brush, datum.dd) >= 0",
      "missing_signal == null || datum.dd > missing_signal",
  });
  return corpus;
}

/// The interpreter's verdict on the original tree, row by row.
struct Reference {
  std::vector<Value> cells;       // array results as null, as FormulaOp stores them
  std::vector<int32_t> selected;  // rows a filter keeps
};

Reference Interpret(const expr::NodePtr& node, const data::Table& table,
                    const expr::SignalResolver& signals) {
  Reference ref;
  expr::EvalContext ctx;
  ctx.table = &table;
  ctx.signals = &signals;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    ctx.row = r;
    expr::EvalValue v = expr::Evaluate(node, ctx);
    if (v.Truthy()) ref.selected.push_back(static_cast<int32_t>(r));
    ref.cells.push_back(v.is_array() ? Value::Null() : v.scalar());
  }
  return ref;
}

TEST_P(VectorEngineDiffTest, SignalBoundCorpusMatchesInterpreter) {
  const uint64_t seed = GetParam() * 53 + 3;
  TablePtr dict = testutil::MakeRandomExprTable(seed, kRows);
  const std::pair<const char*, TablePtr> tables[] = {
      {"dict", dict}, {"flat", testutil::FlatTwin(*dict)}, {"all_null", AllNullTwin(*dict)}};
  const std::vector<SignalState> states = BindingStates();
  size_t compiled = 0, fallback = 0;
  for (const std::string& text : SignalCorpus()) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
    for (const SignalState& state : states) {
      const expr::NodePtr bound = expr::BindSignals(*parsed, state.signals);
      for (const auto& [form, table] : tables) {
        auto program = expr::Compiler::Compile(bound, table->schema());
        if (!program) {
          ++fallback;
          continue;
        }
        ++compiled;
        const std::string where = text + " [" + state.label + ", " + form +
                                  "] bound to " + expr::ToString(bound);
        const Reference ref = Interpret(*parsed, *table, state.signals);
        std::vector<int32_t> sel;
        expr::BatchEvaluator(*table).RunFilter(*program, &sel);
        EXPECT_EQ(sel, ref.selected) << where;
        std::vector<Value> cells;
        expr::BatchEvaluator(*table).RunToValues(*program, &cells);
        ASSERT_EQ(cells.size(), ref.cells.size()) << where;
        for (size_t r = 0; r < cells.size(); ++r) {
          ASSERT_TRUE(SameCell(ref.cells[r], cells[r]))
              << where << " row " << r << ": scalar=" << ref.cells[r].ToString()
              << " vector=" << cells[r].ToString();
        }
      }
    }
  }
  // Binding is meant to put signal expressions on the vector engine; the
  // array-valued and string/number-mixed leftovers are the minority.
  EXPECT_GT(compiled, 2 * fallback) << compiled << " compiled, " << fallback
                                    << " fell back";
}

// The template filters compile under every template-like state (no
// interpreter fallback), ordered brushes bind to a fused AND-chain (which
// feeds zone pruning of in-memory morsels), and the selection matches the
// interpreter at the kernel boundary lengths, sequentially and
// morsel-parallel, over dictionary and flat strings. The two forms hold the
// same data, so one interpreter pass serves both (dict_diff_test checks the
// interpreter across forms).
TEST_P(VectorEngineDiffTest, TemplateFiltersBindToVectorProgramsAtEveryLength) {
  const std::vector<size_t> lengths = KernelBoundaryLengths();
  const uint64_t seed = GetParam() * 613 + 9;
  TablePtr dict = testutil::MakeRandomExprTable(seed, lengths.back());
  const std::pair<const char*, TablePtr> tables[] = {
      {"dict", dict}, {"flat", testutil::FlatTwin(*dict)}};
  for (const char* text : kTemplateFilters) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    for (const SignalState& state : BindingStates()) {
      if (!state.template_like) continue;
      const expr::NodePtr bound = expr::BindSignals(*parsed, state.signals);
      const Reference ref = Interpret(*parsed, *dict, state.signals);
      for (const auto& [form, table] : tables) {
        const std::string where = std::string(text) + " [" + state.label + ", " + form +
                                  "] bound to " + expr::ToString(bound);
        auto program = expr::Compiler::Compile(bound, table->schema());
        ASSERT_TRUE(program.has_value()) << where << " fell back to the interpreter";
        if (state.label == "brush=ordered") {
          EXPECT_FALSE(program->fused_preds.empty()) << where << " is not a fused AND-chain";
        }
        for (size_t len : lengths) {
          const std::vector<int32_t> want(
              ref.selected.begin(),
              std::lower_bound(ref.selected.begin(), ref.selected.end(),
                               static_cast<int32_t>(len)));
          TablePtr slice = table->Slice(0, len);
          std::vector<int32_t> sel, morsel_sel;
          expr::BatchEvaluator(*slice).RunFilter(*program, &sel);
          expr::RunFilterMorselParallel(*slice, *program, &morsel_sel);
          EXPECT_EQ(sel, want) << where << " rows=" << len;
          EXPECT_EQ(morsel_sel, want) << where << " rows=" << len << " morsel-parallel";
        }
      }
    }
  }
}

// The two call sites against the interpreter on the original tree. FilterOp
// keeps exactly the rows expr::Evaluate finds truthy, whether the bound
// tree compiles or not. FormulaOp runs the original tree on the interpreter
// when the bound tree does not compile; when it does, its cells equal the
// interpreter's values, while its column type follows the compiler's static
// type, as for signal-free formulas (the interpreted column's
// first-non-null type can coerce cells).
TEST_P(VectorEngineDiffTest, FilterAndFormulaOpsBindSignals) {
  TablePtr table = MakeRandomTable(GetParam() * 71 + 13);
  const std::vector<SignalState> states = BindingStates();
  for (const std::string& text : SignalCorpus()) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    transforms::FilterOp filter(*parsed);
    transforms::FormulaOp formula(*parsed, "out");
    for (const SignalState& state : states) {
      const std::string where = text + " [" + state.label + "]";
      auto kept = filter.Evaluate(table, state.signals);
      auto computed = formula.Evaluate(table, state.signals);
      ASSERT_TRUE(kept.ok() && computed.ok()) << where;
      const Reference ref = Interpret(*parsed, *table, state.signals);
      EXPECT_TRUE(kept->table->Equals(*table->Take(ref.selected))) << where;
      const bool compiles = expr::Compiler::Compile(expr::BindSignals(*parsed, state.signals),
                                                    table->schema())
                                .has_value();
      if (!compiles) continue;  // FormulaOp ran the interpreter itself
      const data::Column* out = computed->table->ColumnByName("out");
      ASSERT_NE(out, nullptr) << where;
      ASSERT_EQ(out->length(), ref.cells.size()) << where;
      for (size_t r = 0; r < out->length(); ++r) {
        ASSERT_TRUE(SameCell(ref.cells[r], out->ValueAt(r)))
            << where << " row " << r << ": interpreter=" << ref.cells[r].ToString()
            << " formula=" << out->ValueAt(r).ToString();
      }
    }
  }
}

// WHERE clauses with calls over literals, as the SQL executor folds them:
// the folded tree keeps the rows the interpreter keeps on the original, and
// the rewriter's LEAST/GREATEST brush becomes a fused AND-chain.
TEST_P(VectorEngineDiffTest, FoldedConstantCallsMatchInterpreter) {
  TablePtr table = MakeRandomTable(GetParam() * 37 + 5);
  const char* const brush =
      "datum.dd >= min(12.5, -3.5) && datum.dd <= max(12.5, -3.5)";
  const char* const corpus[] = {
      brush,
      "datum.dd >= min(null, 3) && datum.dd <= max(null, 3)",
      "datum.tt >= date_trunc('month', 1000000000000) && "
      "datum.tt < date_unit_end('year', 1000000000000)",
      "datum.ii == year(0) - 1970 + month(0)",
      "datum.dd > year(1e300) || datum.dd < year(log(-1))",
      "datum.ss == lower('MID') || datum.sc == 'cat_' + toString(abs(-3))",
      "inrange(datum.dd, [min(3, 1), max(3, 1)])",
      "datum.dd < length([1, 2, 3]) + span([1, 5])",
      "datum.dd > abs(some_signal)",
      "datum.dd > pow(2, clamp(datum.ii, 0, 3))",
  };
  size_t fallback = 0;
  for (const char* text : corpus) {
    auto parsed = expr::ParseExpression(text);
    ASSERT_TRUE(parsed.ok()) << text;
    const expr::NodePtr folded = expr::FoldConstantCalls(*parsed);
    const std::string where = std::string(text) + " folded to " + expr::ToString(folded);
    const expr::MapSignalResolver no_signals;
    const Reference ref = Interpret(*parsed, *table, no_signals);
    EXPECT_EQ(Interpret(folded, *table, no_signals).selected, ref.selected) << where;
    auto program = expr::Compiler::Compile(folded, table->schema());
    if (!program) {
      ++fallback;  // `inrange` over an array stays on the interpreter
      continue;
    }
    std::vector<int32_t> sel;
    expr::BatchEvaluator(*table).RunFilter(*program, &sel);
    EXPECT_EQ(sel, ref.selected) << where;
    if (text == brush) {
      EXPECT_EQ(program->fused_preds.size(), 2u) << where;
    }
  }
  EXPECT_EQ(fallback, 1u);
  // A call the interpreter cannot validate stays for Validate to report.
  auto unknown = expr::ParseExpression("datum.dd > no_such_fn(1)");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(expr::FoldConstantCalls(*unknown), *unknown);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VectorEngineDiffTest,
                         ::testing::Values(1u, 2u, 3u, 4u),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vegaplus
