// Vega-expression → SQL translation (§4 of the paper: the filter transform's
// predicate expression is parsed to an AST and compiled to a WHERE clause).
//
// Signal references become *holes* written as ${name} or ${name[i]} in the
// emitted SQL text; the VDT operator fills them with SQL literals at dataflow
// evaluation time, when the signal values are known. Expressions using
// functions with no SQL equivalent return NotImplemented, which the rewriter
// treats as "fall back to native execution in Vega".
#ifndef VEGAPLUS_EXPR_SQL_TRANSLATOR_H_
#define VEGAPLUS_EXPR_SQL_TRANSLATOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "expr/ast.h"
#include "expr/evaluator.h"

namespace vegaplus {
namespace expr {

/// \brief SQL text plus the signal names it depends on (its holes).
struct SqlFragment {
  std::string text;
  std::vector<std::string> signal_deps;
};

/// Translate an expression AST to a SQL scalar expression.
Result<SqlFragment> TranslateToSql(const NodePtr& node);

/// Render a scalar as a SQL literal (strings quoted/escaped, null -> NULL).
std::string SqlLiteral(const data::Value& v);

/// Quote a column identifier if it is not a plain [A-Za-z_][A-Za-z0-9_]* name.
std::string QuoteIdentifier(const std::string& name);

/// Collect hole names appearing in `sql_template` (deduplicated).
std::vector<std::string> CollectHoles(const std::string& sql_template);

}  // namespace expr
}  // namespace vegaplus

#endif  // VEGAPLUS_EXPR_SQL_TRANSLATOR_H_
