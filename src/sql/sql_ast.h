// SQL statement AST. Scalar expressions desugar into the *same* expression
// kernel as the Vega expression language (expr::Node): column references
// become `datum.<col>` member nodes, CASE becomes ternary, IS NULL becomes
// isValid(), BETWEEN expands to a conjunction. This guarantees that a Vega
// transform executed client-side and its SQL rewrite executed server-side
// agree on scalar semantics — the equivalence the paper's rewriter relies on.
#ifndef VEGAPLUS_SQL_SQL_AST_H_
#define VEGAPLUS_SQL_SQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/aggregate.h"
#include "expr/ast.h"

namespace vegaplus {
namespace sql {

/// Aggregate operators supported by the engine: the aggregate core's ops
/// (expr/aggregate.h), which the Vega aggregate transform also runs on.
using AggOp = expr::AggOp;

const char* AggOpName(AggOp op);

/// Window function kinds (enough for the stack transform).
enum class WindowOp { kSum, kRowNumber };

struct SelectStmt;

struct OrderItem {
  expr::NodePtr expr;
  bool descending = false;
};

struct WindowSpec {
  WindowOp op = WindowOp::kSum;
  expr::NodePtr arg;  // null for ROW_NUMBER
  std::vector<expr::NodePtr> partition_by;
  std::vector<OrderItem> order_by;
};

/// One item of the SELECT list.
struct SelectItem {
  enum class Kind { kStar, kExpr, kAggregate, kWindow };
  Kind kind = Kind::kExpr;
  expr::NodePtr expr;      // kExpr
  AggOp agg_op = AggOp::kCount;  // kAggregate
  expr::NodePtr agg_arg;   // kAggregate: null == COUNT(*)
  WindowSpec window;       // kWindow
  std::string alias;       // output column name ("" -> derived)
};

/// FROM clause: a named table or a parenthesized subquery.
struct TableRef {
  std::string table_name;                  // empty when subquery
  std::shared_ptr<const SelectStmt> subquery;  // null when named table
  std::string alias;
};

/// A SELECT statement.
struct SelectStmt {
  std::vector<SelectItem> items;
  TableRef from;
  expr::NodePtr where;                 // nullable
  std::vector<expr::NodePtr> group_by;
  expr::NodePtr having;                // nullable
  std::vector<OrderItem> order_by;
  int64_t limit = -1;   // -1 == no limit
  int64_t offset = 0;
};

using SelectPtr = std::shared_ptr<const SelectStmt>;

/// Unparse a statement back to SQL text (used by the rewriter's flattening
/// rules and in tests; output re-parses to an equivalent statement).
std::string ToSql(const SelectStmt& stmt);

/// Unparse a scalar expression to SQL (columns unqualified).
std::string ExprToSql(const expr::NodePtr& node);

/// Derive the output column name of a select item (alias, else column name
/// for plain column refs, else op_field for aggregates, else a positional
/// name).
std::string DeriveItemName(const SelectItem& item, size_t position);

}  // namespace sql
}  // namespace vegaplus

#endif  // VEGAPLUS_SQL_SQL_AST_H_
