// Prepared statements: parse a SQL template (with ${...} parameter holes)
// once, then bind parameter values per execution by substituting literals
// directly into a clone of the AST — no per-interaction lexing or parsing,
// and a canonical, formatting-insensitive statement identity.
//
// Binding is the one bind path: the middleware and the optimizer's labeler
// both bind here. Its semantics mirror filling the holes as SQL literal text
// and reparsing, including the errors: an unresolved name is a KeyError, an
// array value used without an index is a TypeError, and numeric values bind
// as doubles (the SQL parser produces double literals). The text filler
// survives only as this path's test oracle (tests/sql_holes_test_util.h),
// against which differential_test checks bound execution bit for bit.
#ifndef VEGAPLUS_SQL_PREPARED_H_
#define VEGAPLUS_SQL_PREPARED_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/evaluator.h"
#include "sql/sql_ast.h"

namespace vegaplus {
namespace sql {

/// \brief A parsed SQL template plus its parameter metadata.
struct PreparedStatement {
  /// Template AST; parameter holes are signal-reference nodes.
  SelectPtr stmt;
  /// Distinct parameter (hole) names, first-seen order.
  std::vector<std::string> params;
  /// ToSql(*stmt): whitespace/formatting-insensitive identity of the
  /// statement. Two templates that unparse identically are the same
  /// statement (and share cache keys downstream).
  std::string canonical_sql;
};

using PreparedPtr = std::shared_ptr<const PreparedStatement>;

/// Parse `sql_template` into a PreparedStatement.
Result<PreparedPtr> PrepareStatement(const std::string& sql_template);

/// Substitute every parameter hole in `stmt` with a literal looked up in
/// `params`, returning a fully bound statement ready for execution.
/// Subtrees without holes are shared, not copied.
Result<SelectPtr> BindStatement(const SelectStmt& stmt,
                                const expr::SignalResolver& params);

}  // namespace sql
}  // namespace vegaplus

#endif  // VEGAPLUS_SQL_PREPARED_H_
