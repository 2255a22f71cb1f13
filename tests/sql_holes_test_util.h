// Text-level template filling: the oracle of sql::BindStatement. The engine
// binds parameters into a prepared AST (sql/prepared.h); the differential
// suite checks that path against filling the holes as SQL literal text and
// reparsing, which is what FillSqlHoles does.
#ifndef VEGAPLUS_TESTS_SQL_HOLES_TEST_UTIL_H_
#define VEGAPLUS_TESTS_SQL_HOLES_TEST_UTIL_H_

#include <string>

#include "common/result.h"
#include "common/str_util.h"
#include "expr/evaluator.h"
#include "expr/sql_translator.h"

namespace vegaplus {
namespace testutil {

/// Replace every ${name} / ${name[i]} / ${name:id} hole in `sql_template`
/// using `signals`. Plain holes render as SQL literals; `:id` holes render
/// the (string) signal value as a quoted identifier — the rewriter emits
/// them when a transform's target *field* is signal-driven (e.g. a field
/// dropdown). Unresolvable holes or array-valued signals used without an
/// index are errors.
inline Result<std::string> FillSqlHoles(const std::string& sql_template,
                                        const expr::SignalResolver& signals) {
  std::string out;
  out.reserve(sql_template.size());
  size_t pos = 0;
  while (pos < sql_template.size()) {
    size_t hole = sql_template.find("${", pos);
    if (hole == std::string::npos) {
      out.append(sql_template.substr(pos));
      break;
    }
    out.append(sql_template.substr(pos, hole - pos));
    size_t end = sql_template.find('}', hole);
    if (end == std::string::npos) {
      return Status::ParseError("sql template: unterminated hole");
    }
    std::string inner = sql_template.substr(hole + 2, end - hole - 2);
    std::string name = inner;
    int index = -1;
    bool as_identifier = false;
    if (EndsWith(inner, ":id")) {
      as_identifier = true;
      inner = inner.substr(0, inner.size() - 3);
      name = inner;
    }
    size_t bracket = inner.find('[');
    if (bracket != std::string::npos) {
      name = inner.substr(0, bracket);
      size_t close = inner.find(']', bracket);
      if (close == std::string::npos) {
        return Status::ParseError("sql template: bad hole index");
      }
      int64_t idx;
      if (!ParseInt64(inner.substr(bracket + 1, close - bracket - 1), &idx)) {
        return Status::ParseError("sql template: bad hole index");
      }
      index = static_cast<int>(idx);
    }
    expr::EvalValue v;
    if (!signals.Lookup(name, &v)) {
      return Status::KeyError("sql template: unresolved signal '" + name + "'");
    }
    if (as_identifier) {
      if (v.is_array() || !v.scalar().is_string()) {
        return Status::TypeError("sql template: identifier hole '" + name +
                                 "' needs a string signal");
      }
      out.append(expr::QuoteIdentifier(v.scalar().AsString()));
    } else if (index >= 0) {
      out.append(expr::SqlLiteral(v.At(static_cast<size_t>(index))));
    } else if (v.is_array()) {
      return Status::TypeError("sql template: array signal '" + name +
                               "' used without index");
    } else {
      out.append(expr::SqlLiteral(v.scalar()));
    }
    pos = end + 1;
  }
  return out;
}

}  // namespace testutil
}  // namespace vegaplus

#endif  // VEGAPLUS_TESTS_SQL_HOLES_TEST_UTIL_H_
