#include "expr/bind.h"

#include <utility>
#include <vector>

namespace vegaplus {
namespace expr {

namespace {

bool IsLiteral(const NodePtr& node) {
  return node && node->kind == NodeKind::kLiteral;
}

bool IsDatumField(const NodePtr& node) {
  return node && node->kind == NodeKind::kMember && node->a &&
         node->a->kind == NodeKind::kIdentifier && node->a->name == "datum";
}

/// True when `node` can evaluate differently from one row to the next.
bool ReadsDatum(const NodePtr& node) {
  if (!node) return false;
  if (node->kind == NodeKind::kIdentifier) return node->name == "datum";
  for (const NodePtr& child : {node->a, node->b, node->c}) {
    if (ReadsDatum(child)) return true;
  }
  for (const NodePtr& arg : node->args) {
    if (ReadsDatum(arg)) return true;
  }
  return false;
}

class Binder {
 public:
  explicit Binder(const SignalResolver& signals) { ctx_.signals = &signals; }

  NodePtr Bind(const NodePtr& node) const {
    if (!node || node->kind == NodeKind::kLiteral) return node;
    if (!ReadsDatum(node)) return Fold(node);
    switch (node->kind) {
      case NodeKind::kMember:
        if (IsDatumField(node)) return node;
        return Rebuild(node, Bind(node->a), node->b, node->c);
      case NodeKind::kIndex:
        return Rebuild(node, Bind(node->a), Bind(node->b), node->c);
      case NodeKind::kUnary:
        return Rebuild(node, Bind(node->a), node->b, node->c);
      case NodeKind::kBinary: {
        NodePtr lhs = Bind(node->a);
        const BinaryOp op = node->binary_op;
        if (IsLiteral(lhs) && (op == BinaryOp::kAnd || op == BinaryOp::kOr)) {
          // a && b is a when a is falsy, else b; a || b is a when a is
          // truthy, else b.
          const bool keep_lhs = lhs->literal.Truthy() == (op == BinaryOp::kOr);
          return keep_lhs ? lhs : Bind(node->b);
        }
        return Rebuild(node, std::move(lhs), Bind(node->b), node->c);
      }
      case NodeKind::kTernary: {
        NodePtr cond = Bind(node->a);
        if (IsLiteral(cond)) return Bind(cond->literal.Truthy() ? node->b : node->c);
        return Rebuild(node, std::move(cond), Bind(node->b), Bind(node->c));
      }
      case NodeKind::kCall:
        return BindCall(node);
      case NodeKind::kArray: {
        std::vector<NodePtr> elements;
        if (!BindArgs(node->args, &elements)) return node;
        return Node::Array(std::move(elements));
      }
      case NodeKind::kLiteral:
      case NodeKind::kIdentifier:  // bare `datum`
        return node;
    }
    return node;
  }

 private:
  /// A datum-free subtree has one value for the whole pulse.
  NodePtr Fold(const NodePtr& node) const {
    EvalValue v = Evaluate(node, ctx_);
    if (v.is_array()) return node;
    return Node::Literal(v.scalar());
  }

  NodePtr BindCall(const NodePtr& node) const {
    const auto& args = node->args;
    if (node->name == "inrange" && args.size() == 2 && IsDatumField(args[0]) &&
        !ReadsDatum(args[1])) {
      return BindInrange(args[0], Evaluate(args[1], ctx_));
    }
    std::vector<NodePtr> bound;
    if (!BindArgs(args, &bound)) return node;
    return Node::Call(node->name, std::move(bound));
  }

  /// The `inrange` function (functions.cc) as two compares: literal false
  /// when `range` is not an array of at least two elements, else its first
  /// two elements AsDouble, swapped when reversed. A null field fails both
  /// compares, as it fails `inrange`.
  static NodePtr BindInrange(const NodePtr& field, const EvalValue& range) {
    if (!range.is_array() || range.array().size() < 2) {
      return Node::Literal(data::Value::Bool(false));
    }
    double lo = range.array()[0].AsDouble();
    double hi = range.array()[1].AsDouble();
    if (lo > hi) std::swap(lo, hi);
    return Node::Binary(
        BinaryOp::kAnd,
        Node::Binary(BinaryOp::kGte, field, Node::Literal(data::Value::Double(lo))),
        Node::Binary(BinaryOp::kLte, field, Node::Literal(data::Value::Double(hi))));
  }

  /// Binds every argument into `out`; true when any of them changed.
  bool BindArgs(const std::vector<NodePtr>& args, std::vector<NodePtr>* out) const {
    bool changed = false;
    out->reserve(args.size());
    for (const NodePtr& arg : args) {
      out->push_back(Bind(arg));
      changed = changed || out->back() != arg;
    }
    return changed;
  }

  /// `node` with its a/b/c children replaced, or `node` itself when none
  /// of them changed.
  static NodePtr Rebuild(const NodePtr& node, NodePtr a, NodePtr b, NodePtr c) {
    if (a == node->a && b == node->b && c == node->c) return node;
    auto copy = std::make_shared<Node>(*node);
    copy->a = std::move(a);
    copy->b = std::move(b);
    copy->c = std::move(c);
    return copy;
  }

  EvalContext ctx_;  // no table: only datum-free subtrees are evaluated
};

}  // namespace

NodePtr BindSignals(const NodePtr& node, const SignalResolver& signals) {
  return Binder(signals).Bind(node);
}

NodePtr FoldConstantCalls(const NodePtr& node) {
  if (!node || node->kind == NodeKind::kLiteral) return node;
  if (node->kind == NodeKind::kCall && !ReadsDatum(node) && Validate(node).ok()) {
    EvalValue v = Evaluate(node, EvalContext());
    return v.is_array() ? node : Node::Literal(v.scalar());
  }
  Node folded = *node;
  bool changed = false;
  for (NodePtr* child : {&folded.a, &folded.b, &folded.c}) {
    NodePtr f = FoldConstantCalls(*child);
    changed = changed || f != *child;
    *child = std::move(f);
  }
  for (NodePtr& arg : folded.args) {
    NodePtr f = FoldConstantCalls(arg);
    changed = changed || f != arg;
    arg = std::move(f);
  }
  return changed ? std::make_shared<Node>(std::move(folded)) : node;
}

}  // namespace expr
}  // namespace vegaplus
