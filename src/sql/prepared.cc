#include "sql/prepared.h"

#include "sql/sql_parser.h"

namespace vegaplus {
namespace sql {

namespace {

using expr::EvalValue;
using expr::Node;
using expr::NodeKind;
using expr::NodePtr;

void AddUnique(std::vector<std::string>* names, const std::string& name) {
  for (const std::string& n : *names) {
    if (n == name) return;
  }
  names->push_back(name);
}

// Collect parameter names: bare identifiers (scalar holes), indexed
// identifiers (array-element holes), and __sigfield arguments (identifier
// holes). Matches what the template parser / rewriter can produce.
void CollectExprParams(const NodePtr& node, std::vector<std::string>* out) {
  if (!node) return;
  switch (node->kind) {
    case NodeKind::kIdentifier:
      if (node->name != "datum") AddUnique(out, node->name);
      return;
    case NodeKind::kMember:
      // datum.<col> is a column reference, not a parameter.
      if (node->a && node->a->kind == NodeKind::kIdentifier &&
          node->a->name == "datum") {
        return;
      }
      break;
    default:
      break;
  }
  CollectExprParams(node->a, out);
  CollectExprParams(node->b, out);
  CollectExprParams(node->c, out);
  for (const NodePtr& arg : node->args) CollectExprParams(arg, out);
}

void CollectStmtParams(const SelectStmt& stmt, std::vector<std::string>* out) {
  for (const SelectItem& item : stmt.items) {
    CollectExprParams(item.expr, out);
    CollectExprParams(item.agg_arg, out);
    CollectExprParams(item.window.arg, out);
    for (const NodePtr& p : item.window.partition_by) CollectExprParams(p, out);
    for (const OrderItem& o : item.window.order_by) CollectExprParams(o.expr, out);
  }
  CollectExprParams(stmt.where, out);
  for (const NodePtr& g : stmt.group_by) CollectExprParams(g, out);
  CollectExprParams(stmt.having, out);
  for (const OrderItem& o : stmt.order_by) CollectExprParams(o.expr, out);
  if (stmt.from.subquery) CollectStmtParams(*stmt.from.subquery, out);
}

// The text oracle renders bound values as SQL literal text and reparses;
// the reparse turns every numeric into a double literal. Mirror that here
// so bound execution stays bit-identical to fill-and-parse.
data::Value NormalizeBoundLiteral(const data::Value& v) {
  switch (v.type()) {
    case data::DataType::kInt64:
    case data::DataType::kFloat64:
    case data::DataType::kTimestamp:
      return data::Value::Double(v.AsDouble());
    default:
      return v;
  }
}

class Binder {
 public:
  explicit Binder(const expr::SignalResolver& params) : params_(params) {}

  Status status() const { return status_; }

  NodePtr BindExpr(const NodePtr& node) {
    if (!node || !status_.ok()) return node;
    switch (node->kind) {
      case NodeKind::kIdentifier: {
        if (node->name == "datum") return node;
        EvalValue v;
        if (!params_.Lookup(node->name, &v)) {
          status_ = Status::KeyError("bind: unresolved parameter '" + node->name + "'");
          return node;
        }
        if (v.is_array()) {
          status_ = Status::TypeError("bind: array parameter '" + node->name +
                                      "' used without index");
          return node;
        }
        return Node::Literal(NormalizeBoundLiteral(v.scalar()));
      }
      case NodeKind::kIndex: {
        // ${name[i]}: indexed parameter with a literal integer index.
        if (node->a && node->a->kind == NodeKind::kIdentifier &&
            node->a->name != "datum" && node->b &&
            node->b->kind == NodeKind::kLiteral && node->b->literal.is_numeric()) {
          EvalValue v;
          if (!params_.Lookup(node->a->name, &v)) {
            status_ =
                Status::KeyError("bind: unresolved parameter '" + node->a->name + "'");
            return node;
          }
          size_t idx = static_cast<size_t>(node->b->literal.AsDouble());
          return Node::Literal(NormalizeBoundLiteral(v.At(idx)));
        }
        break;
      }
      case NodeKind::kCall: {
        // ${name:id}: the parameter's string value is a column *name*.
        if (node->name == "__sigfield" && node->args.size() == 1 && node->args[0] &&
            node->args[0]->kind == NodeKind::kIdentifier) {
          const std::string& pname = node->args[0]->name;
          EvalValue v;
          if (!params_.Lookup(pname, &v)) {
            status_ = Status::KeyError("bind: unresolved parameter '" + pname + "'");
            return node;
          }
          if (v.is_array() || !v.scalar().is_string()) {
            status_ = Status::TypeError("bind: identifier parameter '" + pname +
                                        "' needs a string value");
            return node;
          }
          return Node::Member(Node::Identifier("datum"), v.scalar().AsString());
        }
        break;
      }
      default:
        break;
    }
    // Rebuild children only when something below changed (structural sharing).
    bool changed = false;
    auto visit = [&](const NodePtr& child) {
      NodePtr out = BindExpr(child);
      if (out != child) changed = true;
      return out;
    };
    auto copy = std::make_shared<Node>(*node);
    copy->a = visit(node->a);
    copy->b = visit(node->b);
    copy->c = visit(node->c);
    for (size_t i = 0; i < copy->args.size(); ++i) copy->args[i] = visit(node->args[i]);
    return changed ? NodePtr(copy) : node;
  }

 private:
  const expr::SignalResolver& params_;
  Status status_;
};

}  // namespace

Result<PreparedPtr> PrepareStatement(const std::string& sql_template) {
  VP_ASSIGN_OR_RETURN(SelectPtr stmt, ParseSqlTemplate(sql_template));
  auto prepared = std::make_shared<PreparedStatement>();
  prepared->stmt = stmt;
  CollectStmtParams(*stmt, &prepared->params);
  prepared->canonical_sql = ToSql(*stmt);
  return PreparedPtr(prepared);
}

Result<SelectPtr> BindStatement(const SelectStmt& stmt,
                                const expr::SignalResolver& params) {
  Binder binder(params);
  auto bound = std::make_shared<SelectStmt>(stmt);
  for (SelectItem& item : bound->items) {
    item.expr = binder.BindExpr(item.expr);
    item.agg_arg = binder.BindExpr(item.agg_arg);
    item.window.arg = binder.BindExpr(item.window.arg);
    for (NodePtr& p : item.window.partition_by) p = binder.BindExpr(p);
    for (OrderItem& o : item.window.order_by) o.expr = binder.BindExpr(o.expr);
  }
  bound->where = binder.BindExpr(bound->where);
  for (NodePtr& g : bound->group_by) g = binder.BindExpr(g);
  bound->having = binder.BindExpr(bound->having);
  for (OrderItem& o : bound->order_by) o.expr = binder.BindExpr(o.expr);
  if (bound->from.subquery) {
    VP_ASSIGN_OR_RETURN(bound->from.subquery, BindStatement(*bound->from.subquery, params));
  }
  VP_RETURN_IF_ERROR(binder.status());
  return SelectPtr(bound);
}

}  // namespace sql
}  // namespace vegaplus
