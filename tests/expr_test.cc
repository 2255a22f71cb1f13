#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "data/csv.h"
#include "data/table.h"
#include "expr/evaluator.h"
#include "expr/functions.h"
#include "expr/parser.h"
#include "expr/sql_translator.h"

namespace vegaplus {
namespace expr {
namespace {

using data::DataType;
using data::Schema;
using data::TablePtr;
using data::Value;

TablePtr Datum(double delay, const std::string& origin) {
  Schema schema({{"delay", DataType::kFloat64}, {"origin", DataType::kString}});
  return data::MakeTable(schema, {{Value::Double(delay), Value::String(origin)}});
}

EvalValue EvalOn(const std::string& text, const TablePtr& table,
                 const MapSignalResolver* signals = nullptr) {
  auto parsed = ParseExpression(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status() << " for " << text;
  if (!parsed.ok()) return EvalValue::Null();
  EXPECT_TRUE(Validate(*parsed).ok()) << text;
  EvalContext ctx;
  ctx.table = table.get();
  ctx.row = 0;
  ctx.signals = signals;
  return Evaluate(*parsed, ctx);
}

EvalValue Eval(const std::string& text) { return EvalOn(text, nullptr); }

TEST(ExprParserTest, Literals) {
  EXPECT_DOUBLE_EQ(Eval("3.5").AsDouble(), 3.5);
  EXPECT_EQ(Eval("'abc'").scalar(), Value::String("abc"));
  EXPECT_EQ(Eval("\"abc\"").scalar(), Value::String("abc"));
  EXPECT_TRUE(Eval("true").Truthy());
  EXPECT_FALSE(Eval("false").Truthy());
  EXPECT_TRUE(Eval("null").is_null());
}

TEST(ExprParserTest, Precedence) {
  EXPECT_DOUBLE_EQ(Eval("1 + 2 * 3").AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Eval("(1 + 2) * 3").AsDouble(), 9.0);
  EXPECT_DOUBLE_EQ(Eval("2 * 3 % 4").AsDouble(), 2.0);
  EXPECT_TRUE(Eval("1 + 1 == 2 && 3 > 2").Truthy());
  EXPECT_TRUE(Eval("false || true && true").Truthy());
}

TEST(ExprParserTest, Unary) {
  EXPECT_DOUBLE_EQ(Eval("-3 + 1").AsDouble(), -2.0);
  EXPECT_TRUE(Eval("!false").Truthy());
  EXPECT_DOUBLE_EQ(Eval("--2").AsDouble(), 2.0);
}

TEST(ExprParserTest, Ternary) {
  EXPECT_DOUBLE_EQ(Eval("1 < 2 ? 10 : 20").AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(Eval("1 > 2 ? 10 : 2 > 1 ? 30 : 40").AsDouble(), 30.0);
}

TEST(ExprParserTest, ArrayLiteralAndIndex) {
  EXPECT_DOUBLE_EQ(Eval("[10, 20, 30][1]").AsDouble(), 20.0);
  EXPECT_TRUE(Eval("[1, 2][5]").is_null());
}

TEST(ExprParserTest, Errors) {
  EXPECT_FALSE(ParseExpression("").ok());
  EXPECT_FALSE(ParseExpression("1 +").ok());
  EXPECT_FALSE(ParseExpression("(1").ok());
  EXPECT_FALSE(ParseExpression("datum.").ok());
  EXPECT_FALSE(ParseExpression("1 2").ok());
  EXPECT_FALSE(ParseExpression("'unterminated").ok());
}

TEST(ExprValidateTest, UnknownFunctionRejected) {
  auto parsed = ParseExpression("nosuchfn(1)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(Validate(*parsed).ok());
}

TEST(ExprValidateTest, ArityChecked) {
  auto parsed = ParseExpression("pow(2)");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(Validate(*parsed).ok());
}

TEST(ExprEvalTest, DatumFields) {
  TablePtr t = Datum(25.0, "SEA");
  EXPECT_TRUE(EvalOn("datum.delay > 10 && datum.delay < 30", t).Truthy());
  EXPECT_FALSE(EvalOn("datum.delay > 30", t).Truthy());
  EXPECT_TRUE(EvalOn("datum.origin == 'SEA'", t).Truthy());
  EXPECT_TRUE(EvalOn("datum['origin'] == 'SEA'", t).Truthy());
  EXPECT_TRUE(EvalOn("datum.missing", t).is_null());
}

TEST(ExprEvalTest, SignalsResolve) {
  MapSignalResolver signals;
  signals.Set("maxbins", EvalValue::Number(20));
  signals.Set("brush", EvalValue::Array({Value::Double(5), Value::Double(15)}));
  TablePtr t = Datum(10.0, "SEA");
  EXPECT_DOUBLE_EQ(EvalOn("maxbins * 2", t, &signals).AsDouble(), 40.0);
  EXPECT_DOUBLE_EQ(EvalOn("brush[1]", t, &signals).AsDouble(), 15.0);
  EXPECT_TRUE(EvalOn("inrange(datum.delay, brush)", t, &signals).Truthy());
  EXPECT_DOUBLE_EQ(EvalOn("brush.length", t, &signals).AsDouble(), 2.0);
}

TEST(ExprEvalTest, NullSemanticsMatchSql) {
  TablePtr t = Datum(1.0, "X");
  // Comparisons with null are false; arithmetic with null is null.
  EXPECT_FALSE(EvalOn("datum.missing > 0", t).Truthy());
  EXPECT_FALSE(EvalOn("datum.missing < 0", t).Truthy());
  EXPECT_TRUE(EvalOn("datum.missing + 1", t).is_null());
  // Equality with null is usable as a guard.
  EXPECT_TRUE(EvalOn("datum.missing == null", t).Truthy());
  EXPECT_TRUE(EvalOn("isValid(datum.delay)", t).Truthy());
  EXPECT_FALSE(EvalOn("isValid(datum.missing)", t).Truthy());
}

TEST(ExprEvalTest, DivisionAndModByZeroIsNull) {
  EXPECT_TRUE(Eval("1 / 0").is_null());
  EXPECT_TRUE(Eval("1 % 0").is_null());
}

TEST(ExprEvalTest, StringConcatWithPlus) {
  EXPECT_EQ(Eval("'a' + 'b'").scalar(), Value::String("ab"));
  EXPECT_EQ(Eval("'a' + 1").scalar(), Value::String("a1"));
}

TEST(ExprEvalTest, MathFunctions) {
  EXPECT_DOUBLE_EQ(Eval("abs(-3)").AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("floor(2.9)").AsDouble(), 2.0);
  EXPECT_DOUBLE_EQ(Eval("ceil(2.1)").AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("round(2.5)").AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("sqrt(16)").AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(Eval("pow(2, 10)").AsDouble(), 1024.0);
  EXPECT_DOUBLE_EQ(Eval("min(3, 1, 2)").AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(Eval("max(3, 1, 2)").AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Eval("clamp(15, 0, 10)").AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(Eval("exp(0)").AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(Eval("log(exp(1))").AsDouble(), 1.0);
}

TEST(ExprEvalTest, StringFunctions) {
  EXPECT_EQ(Eval("lower('AbC')").scalar(), Value::String("abc"));
  EXPECT_EQ(Eval("upper('AbC')").scalar(), Value::String("ABC"));
  EXPECT_DOUBLE_EQ(Eval("length('abcd')").AsDouble(), 4.0);
  EXPECT_DOUBLE_EQ(Eval("indexof('hello', 'll')").AsDouble(), 2.0);
}

TEST(ExprEvalTest, DateFunctions) {
  // 2001-02-03 04:05:06 UTC
  int64_t ms = 0;
  ASSERT_TRUE(data::ParseTimestamp("2001-02-03 04:05:06", &ms));
  MapSignalResolver signals;
  signals.Set("ts", EvalValue(Value::Timestamp(ms)));
  EXPECT_DOUBLE_EQ(EvalOn("year(ts)", nullptr, &signals).AsDouble(), 2001);
  EXPECT_DOUBLE_EQ(EvalOn("month(ts)", nullptr, &signals).AsDouble(), 2);
  EXPECT_DOUBLE_EQ(EvalOn("date(ts)", nullptr, &signals).AsDouble(), 3);
  EXPECT_DOUBLE_EQ(EvalOn("hours(ts)", nullptr, &signals).AsDouble(), 4);
  EXPECT_DOUBLE_EQ(EvalOn("minutes(ts)", nullptr, &signals).AsDouble(), 5);
  EXPECT_DOUBLE_EQ(EvalOn("seconds(ts)", nullptr, &signals).AsDouble(), 6);
  // 2001-02-03 was a Saturday.
  EXPECT_DOUBLE_EQ(EvalOn("day(ts)", nullptr, &signals).AsDouble(), 6);
}

// A date is finite and within ±8.64e15 ms, as for a JavaScript Date; the
// date functions of anything else (NaN, ±Inf, far out of range) are null.
TEST(ExprEvalTest, DateFunctionsOfNonDatesAreNull) {
  EXPECT_DOUBLE_EQ(Eval("year(8.64e15)").AsDouble(), 275760);
  EXPECT_DOUBLE_EQ(Eval("year(-8.64e15)").AsDouble(), -271821);
  for (const char* text :
       {"year(log(-1))", "month(exp(1000))", "date(-exp(1000))",
        "hours(8.640000000000001e15)", "seconds(-1e19)", "day(1e300)",
        "date_trunc('year', -1e19)", "date_unit_end('month', 9.3e18)",
        "timeFormat(exp(1000), '%Y')"}) {
    EXPECT_TRUE(Eval(text).is_null()) << text;
  }
  EXPECT_FALSE(TsMillis(std::nan("")).has_value());
  EXPECT_EQ(TsMillis(-1.9), std::optional<int64_t>(-1));
}

TEST(ExprFunctionsTest, TruncateAndUnitWidth) {
  int64_t ms = 0;
  ASSERT_TRUE(data::ParseTimestamp("2001-02-03 04:05:06", &ms));
  int64_t month_start = 0;
  ASSERT_TRUE(data::ParseTimestamp("2001-02-01", &month_start));
  EXPECT_EQ(TsTruncate(ms, "month"), month_start);
  EXPECT_EQ(TsUnitWidth(month_start, "month"), 28LL * 86400000LL);
  int64_t year_start = 0;
  ASSERT_TRUE(data::ParseTimestamp("2001-01-01", &year_start));
  EXPECT_EQ(TsTruncate(ms, "year"), year_start);
  EXPECT_EQ(TsUnitWidth(year_start, "year"), 365LL * 86400000LL);
  int64_t day_start = 0;
  ASSERT_TRUE(data::ParseTimestamp("2001-02-03", &day_start));
  EXPECT_EQ(TsTruncate(ms, "date"), day_start);
}

TEST(ExprAstTest, CollectReferences) {
  auto parsed = ParseExpression(
      "datum.delay > threshold && inrange(datum.dist, brush) && datum.delay < 100");
  ASSERT_TRUE(parsed.ok());
  std::vector<std::string> fields, signals;
  CollectReferences(*parsed, &fields, &signals);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "delay");
  EXPECT_EQ(fields[1], "dist");
  ASSERT_EQ(signals.size(), 2u);
  EXPECT_EQ(signals[0], "threshold");
  EXPECT_EQ(signals[1], "brush");
}

TEST(ExprAstTest, ToStringReparses) {
  auto parsed = ParseExpression("datum.a + 1 > 2 ? abs(datum.b) : min(1, 2)");
  ASSERT_TRUE(parsed.ok());
  auto reparsed = ParseExpression(ToString(*parsed));
  ASSERT_TRUE(reparsed.ok()) << ToString(*parsed);
  EXPECT_EQ(ToString(*parsed), ToString(*reparsed));
}

// ---- SQL translation ----

TEST(SqlTranslatorTest, PaperFilterExample) {
  // The exact example from §4 of the paper.
  auto parsed = ParseExpression("datum.delay > 10 && datum.delay < 30");
  ASSERT_TRUE(parsed.ok());
  auto frag = TranslateToSql(*parsed);
  ASSERT_TRUE(frag.ok()) << frag.status();
  EXPECT_EQ(frag->text, "((delay > 10) AND (delay < 30))");
  EXPECT_TRUE(frag->signal_deps.empty());
}

TEST(SqlTranslatorTest, SignalsBecomeHoles) {
  auto parsed = ParseExpression("datum.delay > threshold");
  ASSERT_TRUE(parsed.ok());
  auto frag = TranslateToSql(*parsed);
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ(frag->text, "(delay > ${threshold})");
  ASSERT_EQ(frag->signal_deps.size(), 1u);
  EXPECT_EQ(frag->signal_deps[0], "threshold");
}

TEST(SqlTranslatorTest, InrangeBecomesBetween) {
  auto parsed = ParseExpression("inrange(datum.dist, brush)");
  ASSERT_TRUE(parsed.ok());
  auto frag = TranslateToSql(*parsed);
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ(frag->text,
            "(dist BETWEEN LEAST(${brush[0]}, ${brush[1]}) AND "
            "GREATEST(${brush[0]}, ${brush[1]}))");
}

TEST(SqlTranslatorTest, TernaryBecomesCase) {
  auto parsed = ParseExpression("datum.x > 0 ? 1 : 2");
  ASSERT_TRUE(parsed.ok());
  auto frag = TranslateToSql(*parsed);
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ(frag->text, "(CASE WHEN (x > 0) THEN 1 ELSE 2 END)");
}

TEST(SqlTranslatorTest, EqualityAndLogicalOperators) {
  auto parsed = ParseExpression("datum.a == 'x' || !(datum.b != 2)");
  ASSERT_TRUE(parsed.ok());
  auto frag = TranslateToSql(*parsed);
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ(frag->text, "((a = 'x') OR (NOT (b <> 2)))");
}

TEST(SqlTranslatorTest, UntranslatableFunctionFails) {
  auto parsed = ParseExpression("format(datum.x, '.2f') == '1.00'");
  ASSERT_TRUE(parsed.ok());
  auto frag = TranslateToSql(*parsed);
  EXPECT_FALSE(frag.ok());
  EXPECT_TRUE(frag.status().IsNotImplemented());
}

TEST(SqlTranslatorTest, QuotesWeirdIdentifiers) {
  auto parsed = ParseExpression("datum['weird col'] > 1");
  ASSERT_TRUE(parsed.ok());
  auto frag = TranslateToSql(*parsed);
  ASSERT_TRUE(frag.ok());
  EXPECT_EQ(frag->text, "(\"weird col\" > 1)");
}

TEST(SqlTranslatorTest, StringLiteralEscaping) {
  EXPECT_EQ(SqlLiteral(data::Value::String("o'brien")), "'o''brien'");
  EXPECT_EQ(SqlLiteral(data::Value::Null()), "NULL");
  EXPECT_EQ(SqlLiteral(data::Value::Bool(true)), "TRUE");
}

TEST(FillSqlHolesTest, ScalarAndIndexedHoles) {
  MapSignalResolver signals;
  signals.Set("threshold", EvalValue::Number(12.5));
  signals.Set("brush", EvalValue::Array({Value::Double(1), Value::Double(9)}));
  auto filled = FillSqlHoles("delay > ${threshold} AND x BETWEEN ${brush[0]} AND ${brush[1]}",
                             signals);
  ASSERT_TRUE(filled.ok()) << filled.status();
  EXPECT_EQ(*filled, "delay > 12.5 AND x BETWEEN 1 AND 9");
}

TEST(FillSqlHolesTest, StringSignalQuoted) {
  MapSignalResolver signals;
  signals.Set("field", EvalValue::String("it's"));
  auto filled = FillSqlHoles("f = ${field}", signals);
  ASSERT_TRUE(filled.ok());
  EXPECT_EQ(*filled, "f = 'it''s'");
}

TEST(FillSqlHolesTest, Errors) {
  MapSignalResolver signals;
  signals.Set("arr", EvalValue::Array({Value::Double(1)}));
  EXPECT_FALSE(FillSqlHoles("x = ${missing}", signals).ok());
  EXPECT_FALSE(FillSqlHoles("x = ${arr}", signals).ok());       // array without index
  EXPECT_FALSE(FillSqlHoles("x = ${arr[", signals).ok());       // malformed
}

TEST(CollectHolesTest, FindsDistinctNames) {
  auto holes = CollectHoles("a ${x} b ${y[0]} c ${x}");
  ASSERT_EQ(holes.size(), 2u);
  EXPECT_EQ(holes[0], "x");
  EXPECT_EQ(holes[1], "y");
}

}  // namespace
}  // namespace expr
}  // namespace vegaplus
