// The Vega expression function library: evaluation callables plus SQL
// translation metadata. Shared by the evaluator and the SQL translator so
// client-side and server-side semantics stay aligned.
#ifndef VEGAPLUS_EXPR_FUNCTIONS_H_
#define VEGAPLUS_EXPR_FUNCTIONS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "expr/eval_value.h"

namespace vegaplus {
namespace expr {

/// \brief Registry entry for one expression function.
struct FunctionDef {
  std::string name;
  int min_args = 0;
  int max_args = 0;  // -1 == variadic
  /// Evaluate with already-evaluated arguments.
  std::function<EvalValue(const std::vector<EvalValue>&)> eval;
  /// Name of the SQL function this maps to 1:1, or "" when the translator
  /// has a bespoke emitter / no translation exists.
  std::string sql_name;
  /// False for functions with no SQL equivalent — forces client fallback,
  /// exercising the paper's "fall back to native execution in Vega" path.
  bool sql_translatable = true;
};

/// Lookup; nullptr for unknown functions.
const FunctionDef* FindFunction(const std::string& name);

/// All registered function names (for docs/tests).
std::vector<std::string> FunctionNames();

/// `millis` as whole epoch milliseconds (truncated toward zero) when it is a
/// date: finite and within ±8.64e15 ms, the range of a JavaScript Date,
/// which Vega's date functions use. NaN, ±Inf and values outside the range
/// are no date, so every date function of them is null, in the interpreter,
/// the vector engine and the SQL date functions alike. The bound also keeps
/// the calendar arithmetic below far from int64 overflow.
std::optional<int64_t> TsMillis(double millis);

// Date part helpers on epoch-milliseconds (UTC). Used by both the expression
// evaluator and the SQL engine's date functions so results agree. month and
// day-of-month are 1-based; day-of-week is 0=Sunday.
int64_t TsYear(int64_t millis);
int64_t TsMonth(int64_t millis);
int64_t TsDayOfMonth(int64_t millis);
int64_t TsDayOfWeek(int64_t millis);
int64_t TsHour(int64_t millis);
int64_t TsMinute(int64_t millis);
int64_t TsSecond(int64_t millis);

/// Truncate epoch-millis to the start of `unit` ("year", "month", "week",
/// "date"/"day", "hours", "minutes", "seconds"). Returns input on unknown
/// unit.
int64_t TsTruncate(int64_t millis, const std::string& unit);

/// Millisecond width of one `unit` step at `truncated` (month/year widths
/// vary; used by timeunit to compute interval ends).
int64_t TsUnitWidth(int64_t truncated, const std::string& unit);

}  // namespace expr
}  // namespace vegaplus

#endif  // VEGAPLUS_EXPR_FUNCTIONS_H_
