// Shared corpus for the expression-engine differential suites: a randomized
// null/NaN-laden table over every column type, and a generated expression
// corpus covering all operators, ternaries, calls, and known scalar-only
// constructs. Used by expr_vector_diff_test.cc (scalar vs vectorized) and
// morsel_diff_test.cc (single-threaded vs morsel-parallel).
#ifndef VEGAPLUS_TESTS_EXPR_CORPUS_TEST_UTIL_H_
#define VEGAPLUS_TESTS_EXPR_CORPUS_TEST_UTIL_H_

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "data/table.h"

namespace vegaplus {
namespace testutil {

/// Random table with doubles (nulls + NaNs + ±Inf/−0.0/denormals), ints,
/// bools, short strings
/// (nulls + empties), timestamps (nulls), a low-cardinality category column
/// (`sc`, 12 distinct + nulls — the dictionary-encoding sweet spot), and a
/// high-cardinality string column (`sh`, mostly unique + nulls — the
/// dictionary worst case). String columns take whatever physical form the
/// data::SetDictionaryEncodingEnabled switch dictates at build time, so the
/// same call builds the dictionary-encoded table and the flat twin.
inline data::TablePtr MakeRandomExprTable(uint64_t seed, size_t rows) {
  using data::Column;
  using data::DataType;
  Rng rng(seed);
  Column dd(DataType::kFloat64);
  Column ii(DataType::kInt64);
  Column bb(DataType::kBool);
  Column ss(DataType::kString);
  Column tt(DataType::kTimestamp);
  Column sc(DataType::kString);
  Column sh(DataType::kString);
  const char* words[] = {"", "a", "mid", "zebra", "Mixed", "mid"};
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBool(0.1)) {
      dd.AppendNull();
    } else if (rng.NextBool(0.05)) {
      dd.AppendDouble(std::nan(""));
    } else if (rng.NextBool(0.05)) {
      // SIMD-hostile specials: infinities, signed zero, denormals — values
      // where a vectorized compare or accumulate could legally diverge from
      // scalar code if it took shortcuts (x*0, x-x, flush-to-zero).
      const double specials[] = {std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 -0.0,
                                 std::numeric_limits<double>::denorm_min(),
                                 -std::numeric_limits<double>::denorm_min(),
                                 std::numeric_limits<double>::min() / 2};
      dd.AppendDouble(specials[rng.Index(6)]);
    } else {
      dd.AppendDouble(rng.Uniform(-50, 50));
    }
    if (rng.NextBool(0.1)) {
      ii.AppendNull();
    } else {
      ii.AppendInt(rng.UniformInt(-20, 20));
    }
    if (rng.NextBool(0.1)) {
      bb.AppendNull();
    } else {
      bb.AppendBool(rng.NextBool());
    }
    if (rng.NextBool(0.1)) {
      ss.AppendNull();
    } else {
      ss.AppendString(words[rng.Index(6)]);
    }
    if (rng.NextBool(0.1)) {
      tt.AppendNull();
    } else {
      tt.AppendInt(946684800000LL + rng.UniformInt(0, 4LL * 365 * 86400000LL));
    }
    if (rng.NextBool(0.1)) {
      sc.AppendNull();
    } else {
      sc.AppendString("cat_" + std::to_string(rng.Index(12)));
    }
    if (rng.NextBool(0.1)) {
      sh.AppendNull();
    } else {
      sh.AppendString("id_" + std::to_string(rng.UniformInt(0, 1 << 30)));
    }
  }
  std::vector<Column> cols;
  cols.push_back(std::move(dd));
  cols.push_back(std::move(ii));
  cols.push_back(std::move(bb));
  cols.push_back(std::move(ss));
  cols.push_back(std::move(tt));
  cols.push_back(std::move(sc));
  cols.push_back(std::move(sh));
  return std::make_shared<data::Table>(
      data::Schema({{"dd", DataType::kFloat64},
                    {"ii", DataType::kInt64},
                    {"bb", DataType::kBool},
                    {"ss", DataType::kString},
                    {"tt", DataType::kTimestamp},
                    {"sc", DataType::kString},
                    {"sh", DataType::kString}}),
      std::move(cols));
}

/// Same value modulo boxing: the vectorized engine widens numerics to
/// double, which is exactly what the interpreter's arithmetic/comparison/
/// hash/compare semantics see (Value::AsDouble everywhere).
inline bool SameCell(const data::Value& a, const data::Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
  if (a.is_string() || b.is_string()) {
    return a.is_string() && b.is_string() && a.AsString() == b.AsString();
  }
  const double x = a.AsDouble(), y = b.AsDouble();
  return x == y || (std::isnan(x) && std::isnan(y));
}

/// The operand pool: every column, a missing field, and literals of each
/// type (including null) so operator null/type handling is fully exercised.
inline const std::vector<std::string>& ExprOperands() {
  static const std::vector<std::string> kOperands = {
      "datum.dd", "datum.ii", "datum.bb", "datum.ss",  "datum.tt",
      "datum.nope", "2.5",    "0",        "null",      "'mid'",
      "true",     "false",    "datum.sc", "'cat_3'",
  };
  return kOperands;
}

/// ~1.4k expressions: all binary/unary operators over the operand pool,
/// ternaries, calls, and known scalar-only constructs the compiler must
/// reject rather than miscompile.
inline std::vector<std::string> BuildExprCorpus() {
  std::vector<std::string> corpus;
  const char* binary_ops[] = {"+", "-", "*",  "/",  "%",  "==",
                              "!=", "<", "<=", ">",  ">=", "&&",
                              "||"};
  for (const std::string& a : ExprOperands()) {
    for (const std::string& b : ExprOperands()) {
      for (const char* op : binary_ops) {
        corpus.push_back(a + " " + op + " " + b);
      }
    }
  }
  for (const std::string& a : ExprOperands()) {
    corpus.push_back("-(" + a + ")");
    corpus.push_back("!(" + a + ")");
    corpus.push_back("+(" + a + ")");
    corpus.push_back("isValid(" + a + ")");
  }
  // Ternaries, including branch-type promotion and fallback-worthy mixes.
  const std::string conditions[] = {"datum.bb", "datum.dd > 0", "datum.ss"};
  for (const std::string& c : conditions) {
    corpus.push_back(c + " ? datum.dd : datum.ii");
    corpus.push_back(c + " ? datum.dd : null");
    corpus.push_back(c + " ? datum.ii > 0 : datum.dd");
    corpus.push_back(c + " ? datum.ss : 'other'");
    corpus.push_back(c + " ? datum.ss : datum.dd");  // string/num mix: fallback
  }
  // Calls over numeric, null, and string arguments.
  for (const char* fn : {"abs", "ceil", "floor", "round", "sqrt", "exp", "log"}) {
    corpus.push_back(std::string(fn) + "(datum.dd)");
    corpus.push_back(std::string(fn) + "(datum.ii / 3)");
  }
  // Date functions, also of values that name no date (null in both
  // engines): NaN and ±Inf in datum.dd, finite values past ±8.64e15 ms
  // (datum.ii * 1e15 straddles it) and past the int64 range.
  for (const char* fn :
       {"year", "month", "date", "day", "hours", "minutes", "seconds"}) {
    corpus.push_back(std::string(fn) + "(datum.tt)");
    corpus.push_back(std::string(fn) + "(datum.dd)");
    corpus.push_back(std::string(fn) + "(datum.ii * 1e15)");
    corpus.push_back(std::string(fn) + "(datum.dd * 1e300)");
  }
  for (const char* arg : {"datum.ii * 1e15", "datum.dd * 1e17", "datum.dd * 1e300",
                          "8.64e15", "-8.64e15", "8.640000000000001e15"}) {
    corpus.push_back(std::string("date_trunc('week', ") + arg + ")");
    corpus.push_back(std::string("date_unit_end('year', ") + arg + ")");
  }
  corpus.insert(corpus.end(), {
      "pow(datum.dd, 2)",
      "pow(datum.ii, datum.dd / 10)",
      "clamp(datum.dd, -10, 10)",
      "clamp(datum.dd, datum.ii, 30)",
      "min(datum.dd, datum.ii)",
      "max(datum.dd, datum.ii, 0)",
      "min(datum.dd)",
      "toNumber(datum.ii)",
      "toNumber(datum.ss)",  // string parsing: fallback
      "time(datum.tt)",
      "length(datum.ss)",
      "lower(datum.ss)",
      "upper(datum.ss)",
      "upper(datum.ss) == 'MID'",
      "date_trunc('month', datum.tt)",
      "date_unit_end('month', datum.tt)",
      "if(datum.bb, datum.dd, datum.ii)",
      // Known scalar-only constructs (arrays, signals, untranslatable fns):
      // the compiler must reject these, not miscompile them.
      "inrange(datum.dd, [0, 10])",
      "[datum.dd, datum.ii][1]",
      "indexof(datum.ss, 'i')",
      "format(datum.dd, '.2f')",
      "span([datum.ii, datum.dd])",
      "some_signal + datum.dd",
      // Deeply nested compounds.
      "(datum.dd * 2 + datum.ii / 7) > 3 && !(datum.bb) || datum.ii % 5 == 1",
      "((datum.dd + datum.ii) * (datum.dd - datum.ii)) / (datum.ii % 9 + 1)",
      "datum.ss + '_' + datum.ss",
      "datum.ss < 'mid' || datum.ss >= 'z'",
      "-datum.dd * +datum.ii - -3",
      "abs(datum.dd) > 10 ? floor(datum.dd / 10) : ceil(datum.dd * 2)",
      // Dictionary-relevant shapes: category equality (the code-compare fast
      // path), cross-column string compares (distinct dictionaries),
      // high-cardinality references, and fused conjunctions mixing numeric
      // and string conjuncts.
      "datum.sc == 'cat_3'",
      "datum.sc != 'cat_3'",
      "datum.sc == 'not_in_dict'",
      "datum.sc != 'not_in_dict'",
      "datum.sc == datum.ss",
      "datum.sc == datum.sh",
      "datum.sh == 'id_1'",
      "datum.sc < 'cat_5'",
      "upper(datum.sc)",
      "length(datum.sh)",
      "datum.bb ? datum.sc : datum.sh",
      "datum.dd > 0 && datum.sc == 'cat_1'",
      "datum.sc == 'cat_1' && datum.ii < 5 && datum.dd > -10",
      "datum.sc != 'cat_2' && datum.sh == 'id_1'",
  });
  return corpus;
}

}  // namespace testutil
}  // namespace vegaplus

#endif  // VEGAPLUS_TESTS_EXPR_CORPUS_TEST_UTIL_H_
