#include "rewrite/rewriter.h"

#include "common/str_util.h"
#include "expr/parser.h"
#include "expr/sql_translator.h"
#include "rewrite/flatten.h"
#include "spec/transform_factory.h"
#include "transforms/binning.h"
#include "transforms/transforms.h"

namespace vegaplus {
namespace rewrite {

namespace {

using expr::Node;
using expr::NodePtr;
using sql::SelectItem;
using sql::SelectStmt;
using transforms::FieldRef;

// Column node for a (possibly signal-driven) field.
NodePtr FieldNode(const FieldRef& f) {
  if (f.is_signal()) {
    return Node::Call("__sigfield", {Node::Identifier(f.signal)});
  }
  return Node::Member(Node::Identifier("datum"), f.field);
}

// Wrap the current statement as a subquery of a fresh SELECT.
std::shared_ptr<SelectStmt> WrapSubquery(const std::shared_ptr<SelectStmt>& inner) {
  auto outer = std::make_shared<SelectStmt>();
  outer->from.subquery = inner;
  outer->from.alias = "t";
  return outer;
}

SelectItem StarItem() {
  SelectItem item;
  item.kind = SelectItem::Kind::kStar;
  return item;
}

SelectItem ExprItem(NodePtr e, std::string alias) {
  SelectItem item;
  item.kind = SelectItem::Kind::kExpr;
  item.expr = std::move(e);
  item.alias = std::move(alias);
  return item;
}

// Derived bin params: start/step computed from the extent signal (+ maxbins
// signal) at query-build time — "the bin's step size is calculated to
// complete the query string" (Example 4.1).
void AddBinDerivedParams(const transforms::BinOp::Params& p, const std::string& prefix,
                         std::vector<DerivedParam>* derived) {
  auto compute = [p](const expr::SignalResolver& signals,
                     bool want_step) -> Result<expr::EvalValue> {
    expr::EvalValue extent;
    if (!signals.Lookup(p.extent_signal, &extent) || !extent.is_array() ||
        extent.array().size() < 2) {
      return Status::KeyError("bin: extent signal '" + p.extent_signal +
                              "' missing or malformed");
    }
    int maxbins = p.maxbins;
    if (!p.maxbins_signal.empty()) {
      expr::EvalValue mb;
      if (signals.Lookup(p.maxbins_signal, &mb) && !mb.is_array() &&
          mb.scalar().is_numeric()) {
        maxbins = transforms::MaxbinsFrom(mb.scalar().AsDouble(), p.maxbins);
      }
    }
    transforms::Binning bin = transforms::ComputeBinning(
        extent.array()[0].AsDouble(), extent.array()[1].AsDouble(), maxbins);
    return expr::EvalValue::Number(want_step ? bin.step : bin.start);
  };
  std::vector<std::string> deps{p.extent_signal};
  if (!p.maxbins_signal.empty()) deps.push_back(p.maxbins_signal);
  derived->push_back(
      {prefix + "_start",
       [compute](const expr::SignalResolver& s) { return compute(s, false); }, deps});
  derived->push_back(
      {prefix + "_step",
       [compute](const expr::SignalResolver& s) { return compute(s, true); }, deps});
}

}  // namespace

ServerPipeline MakeTablePipeline(const std::string& table) {
  ServerPipeline p;
  p.stmt = std::make_shared<SelectStmt>();
  p.stmt->items.push_back(StarItem());
  p.stmt->from.table_name = table;
  return p;
}

bool IsRewritable(const spec::TransformSpec& ts) {
  // Structural types always rewrite; expression-bearing types rewrite iff
  // their expression translates to SQL.
  if (ts.type == "extent" || ts.type == "bin" || ts.type == "aggregate" ||
      ts.type == "collect" || ts.type == "project" || ts.type == "stack" ||
      ts.type == "timeunit") {
    return true;
  }
  if (ts.type == "filter" || ts.type == "formula") {
    const json::Value* e = ts.params.Find("expr");
    if (e == nullptr || !e->is_string()) return false;
    auto parsed = expr::ParseExpression(e->AsString());
    if (!parsed.ok()) return false;
    return expr::TranslateToSql(*parsed).ok();
  }
  return false;
}

int RewritablePrefixLength(const spec::DataSpec& entry) {
  int n = 0;
  for (const auto& ts : entry.transforms) {
    if (!IsRewritable(ts)) break;
    ++n;
  }
  return n;
}

Status ExtendPipeline(ServerPipeline* pipeline, const spec::TransformSpec& ts,
                      int unique_id) {
  // Normalize params by instantiating the client operator and reading back
  // its typed parameters (single source of truth for parsing).
  VP_ASSIGN_OR_RETURN(std::unique_ptr<dataflow::Operator> built,
                      spec::BuildTransformOp(ts));

  if (auto* op = dynamic_cast<transforms::FilterOp*>(built.get())) {
    VP_RETURN_IF_ERROR(expr::TranslateToSql(op->predicate()).status());
    auto outer = WrapSubquery(pipeline->stmt);
    outer->items.push_back(StarItem());
    outer->where = op->predicate();
    FlattenStmt(outer.get());
    pipeline->stmt = outer;
    return Status::OK();
  }

  if (auto* op = dynamic_cast<transforms::ExtentOp*>(built.get())) {
    auto q = WrapSubquery(pipeline->stmt);
    SelectItem mn;
    mn.kind = SelectItem::Kind::kAggregate;
    mn.agg_op = sql::AggOp::kMin;
    mn.agg_arg = FieldNode(op->field());
    mn.alias = "min0";
    SelectItem mx = mn;
    mx.agg_op = sql::AggOp::kMax;
    mx.alias = "max0";
    q->items.push_back(std::move(mn));
    q->items.push_back(std::move(mx));
    FlattenStmt(q.get());
    ServerPipeline::SideQuery side;
    side.sql_template = sql::ToSql(*q);
    side.derived = pipeline->derived;
    side.output_signal = op->output_signal();
    pipeline->side_queries.push_back(std::move(side));
    // Data path passes through unchanged.
    return Status::OK();
  }

  if (auto* op = dynamic_cast<transforms::BinOp*>(built.get())) {
    const auto& p = op->params();
    std::string prefix = StrFormat("__d%d", unique_id);
    AddBinDerivedParams(p, prefix, &pipeline->derived);
    NodePtr start = Node::Identifier(prefix + "_start");
    NodePtr step = Node::Identifier(prefix + "_step");
    NodePtr fld = FieldNode(p.field);
    // bin0 = start + FLOOR((fld - start) / step) * step
    NodePtr bin0 = Node::Binary(
        expr::BinaryOp::kAdd, start,
        Node::Binary(expr::BinaryOp::kMul,
                     Node::Call("floor", {Node::Binary(
                                             expr::BinaryOp::kDiv,
                                             Node::Binary(expr::BinaryOp::kSub, fld, start),
                                             step)}),
                     step));
    NodePtr bin1 = Node::Binary(expr::BinaryOp::kAdd, bin0, step);
    auto outer = WrapSubquery(pipeline->stmt);
    outer->items.push_back(StarItem());
    outer->items.push_back(ExprItem(bin0, p.as0));
    outer->items.push_back(ExprItem(bin1, p.as1));
    pipeline->stmt = outer;  // projection extensions flatten later (R2)
    return Status::OK();
  }

  if (auto* op = dynamic_cast<transforms::AggregateOp*>(built.get())) {
    const auto& p = op->params();
    auto outer = WrapSubquery(pipeline->stmt);
    for (const FieldRef& g : p.groupby) {
      NodePtr node = FieldNode(g);
      outer->group_by.push_back(node);
      // Fixed fields are aliased explicitly so flattening (which may inline
      // a computed column like bin0 into the grouping expression) preserves
      // the output column name. Dynamic fields resolve at fill time (the
      // filled column ref carries the name).
      outer->items.push_back(ExprItem(node, g.is_signal() ? "" : g.field));
    }
    for (size_t i = 0; i < p.ops.size(); ++i) {
      // Same core op and argument as the client's AggregateOp; the spec
      // parser rejects ops other than count without a field.
      const transforms::CoreAgg core = transforms::CoreAggOf(p.ops[i]);
      SelectItem item;
      item.kind = SelectItem::Kind::kAggregate;
      item.agg_op = core.op;
      if (core.reads_field) item.agg_arg = FieldNode(p.fields[i]);
      item.alias = p.as[i];
      outer->items.push_back(std::move(item));
    }
    FlattenStmt(outer.get());
    pipeline->stmt = outer;
    return Status::OK();
  }

  if (auto* op = dynamic_cast<transforms::CollectOp*>(built.get())) {
    std::shared_ptr<SelectStmt> target = CloneStmt(*pipeline->stmt);
    if (!target->order_by.empty() || target->limit >= 0) {
      target = WrapSubquery(target);
      target->items.push_back(StarItem());
    }
    for (const auto& k : op->keys()) {
      sql::OrderItem item;
      item.expr = FieldNode(k.field);
      item.descending = k.descending;
      target->order_by.push_back(std::move(item));
    }
    pipeline->stmt = target;
    return Status::OK();
  }

  if (auto* op = dynamic_cast<transforms::ProjectOp*>(built.get())) {
    auto outer = WrapSubquery(pipeline->stmt);
    for (size_t i = 0; i < op->fields().size(); ++i) {
      std::string alias = i < op->as().size() ? op->as()[i] : "";
      outer->items.push_back(ExprItem(FieldNode(op->fields()[i]), alias));
    }
    FlattenStmt(outer.get());
    pipeline->stmt = outer;
    return Status::OK();
  }

  if (auto* op = dynamic_cast<transforms::StackOp*>(built.get())) {
    const auto& p = op->params();
    NodePtr fld = FieldNode(p.field);
    // Level 1: running inclusive sum as as1.
    auto level1 = WrapSubquery(pipeline->stmt);
    level1->items.push_back(StarItem());
    SelectItem win;
    win.kind = SelectItem::Kind::kWindow;
    win.window.op = sql::WindowOp::kSum;
    win.window.arg = fld;
    for (const FieldRef& g : p.groupby) win.window.partition_by.push_back(FieldNode(g));
    for (const auto& k : p.sort) {
      sql::OrderItem item;
      item.expr = FieldNode(k.field);
      item.descending = k.descending;
      win.window.order_by.push_back(std::move(item));
    }
    win.alias = p.as1;
    level1->items.push_back(std::move(win));
    // Level 2: as0 = as1 - field.
    auto level2 = WrapSubquery(level1);
    level2->items.push_back(StarItem());
    level2->items.push_back(ExprItem(
        Node::Binary(expr::BinaryOp::kSub,
                     Node::Member(Node::Identifier("datum"), p.as1), fld),
        p.as0));
    pipeline->stmt = level2;
    return Status::OK();
  }

  if (auto* op = dynamic_cast<transforms::TimeunitOp*>(built.get())) {
    const auto& p = op->params();
    NodePtr fld = FieldNode(p.field);
    NodePtr unit = Node::Literal(data::Value::String(p.unit));
    auto outer = WrapSubquery(pipeline->stmt);
    outer->items.push_back(StarItem());
    outer->items.push_back(ExprItem(Node::Call("date_trunc", {unit, fld}), p.as0));
    outer->items.push_back(ExprItem(Node::Call("date_unit_end", {unit, fld}), p.as1));
    pipeline->stmt = outer;
    return Status::OK();
  }

  if (auto* op = dynamic_cast<transforms::FormulaOp*>(built.get())) {
    VP_RETURN_IF_ERROR(expr::TranslateToSql(op->expression()).status());
    auto outer = WrapSubquery(pipeline->stmt);
    outer->items.push_back(StarItem());
    outer->items.push_back(ExprItem(op->expression(), op->as()));
    pipeline->stmt = outer;
    return Status::OK();
  }

  return Status::NotImplemented("rewrite: transform '" + ts.type +
                                "' has no SQL rewriting");
}

std::string RenderPipelineSql(const ServerPipeline& pipeline) {
  auto copy = CloneStmt(*pipeline.stmt);
  FlattenStmt(copy.get());
  return sql::ToSql(*copy);
}

}  // namespace rewrite
}  // namespace vegaplus
