#include "expr/compiler.h"

#include <utility>

namespace vegaplus {
namespace expr {

namespace {

using data::DataType;

/// Compile-time description of the register a subtree produces.
struct RegInfo {
  RegKind kind;
  DataType type;
};

class CompilerImpl {
 public:
  CompilerImpl(const data::Schema& schema, Program* program)
      : schema_(schema), program_(program) {}

  std::optional<RegInfo> Emit(const NodePtr& node, std::vector<Instr>* out);

 private:
  std::optional<RegInfo> EmitBinary(const Node& node, std::vector<Instr>* out);
  std::optional<RegInfo> EmitCall(const Node& node, std::vector<Instr>* out);
  std::optional<RegInfo> EmitTernary(const NodePtr& cond, const NodePtr& then_branch,
                                     const NodePtr& else_branch,
                                     std::vector<Instr>* out);

  /// Emit a subtree that must end up numeric; inserts kBoolToNum when the
  /// subtree produces a bool register. Returns false when not possible.
  bool EmitNum(const NodePtr& node, std::vector<Instr>* out);

  int32_t AddNumConst(double v, bool is_null) {
    program_->num_consts.push_back({v, is_null});
    return static_cast<int32_t>(program_->num_consts.size() - 1);
  }
  int32_t AddStrConst(std::string s) {
    program_->str_consts.push_back(std::move(s));
    return static_cast<int32_t>(program_->str_consts.size() - 1);
  }

  const data::Schema& schema_;
  Program* program_;
};

bool CompilerImpl::EmitNum(const NodePtr& node, std::vector<Instr>* out) {
  std::vector<Instr> tmp;
  auto r = Emit(node, &tmp);
  if (!r) return false;
  if (r->kind == RegKind::kBool) {
    tmp.push_back({VecOp::kBoolToNum, 0});
  } else if (r->kind != RegKind::kNum) {
    return false;
  }
  out->insert(out->end(), tmp.begin(), tmp.end());
  return true;
}

std::optional<RegInfo> CompilerImpl::EmitBinary(const Node& node,
                                                std::vector<Instr>* out) {
  std::vector<Instr> lhs_code, rhs_code;
  auto lhs = Emit(node.a, &lhs_code);
  auto rhs = Emit(node.b, &rhs_code);
  if (!lhs || !rhs) return std::nullopt;

  const bool lhs_str = lhs->kind == RegKind::kStr;
  const bool rhs_str = rhs->kind == RegKind::kStr;
  const BinaryOp op = node.binary_op;

  // String operands vectorize only against string operands; a string mixed
  // with a numeric operand keeps the interpreter's ToString/AsDouble quirks
  // and is left to the scalar fallback.
  if (lhs_str != rhs_str) return std::nullopt;

  if (lhs_str) {
    out->insert(out->end(), lhs_code.begin(), lhs_code.end());
    out->insert(out->end(), rhs_code.begin(), rhs_code.end());
    switch (op) {
      case BinaryOp::kAdd:
        out->push_back({VecOp::kConcat, 0});
        return RegInfo{RegKind::kStr, DataType::kString};
      case BinaryOp::kLt: out->push_back({VecOp::kLtStr, 0}); break;
      case BinaryOp::kLte: out->push_back({VecOp::kLteStr, 0}); break;
      case BinaryOp::kGt: out->push_back({VecOp::kGtStr, 0}); break;
      case BinaryOp::kGte: out->push_back({VecOp::kGteStr, 0}); break;
      case BinaryOp::kEq: out->push_back({VecOp::kEqStr, 0}); break;
      case BinaryOp::kNeq: out->push_back({VecOp::kNeqStr, 0}); break;
      default:
        return std::nullopt;  // string arithmetic / logic: scalar fallback
    }
    return RegInfo{RegKind::kBool, DataType::kBool};
  }

  // &&/|| on two bool registers is pure bit logic; on value registers it is
  // a JS-style truthiness blend that preserves the operand values.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    if (lhs->kind == RegKind::kBool && rhs->kind == RegKind::kBool) {
      out->insert(out->end(), lhs_code.begin(), lhs_code.end());
      out->insert(out->end(), rhs_code.begin(), rhs_code.end());
      out->push_back({op == BinaryOp::kAnd ? VecOp::kAndBool : VecOp::kOrBool, 0});
      return RegInfo{RegKind::kBool, DataType::kBool};
    }
    out->insert(out->end(), lhs_code.begin(), lhs_code.end());
    if (lhs->kind == RegKind::kBool) out->push_back({VecOp::kBoolToNum, 0});
    out->insert(out->end(), rhs_code.begin(), rhs_code.end());
    if (rhs->kind == RegKind::kBool) out->push_back({VecOp::kBoolToNum, 0});
    out->push_back({op == BinaryOp::kAnd ? VecOp::kAndNum : VecOp::kOrNum, 0});
    DataType t = lhs->type == rhs->type ? lhs->type : DataType::kFloat64;
    return RegInfo{RegKind::kNum, t};
  }

  out->insert(out->end(), lhs_code.begin(), lhs_code.end());
  if (lhs->kind == RegKind::kBool) out->push_back({VecOp::kBoolToNum, 0});
  out->insert(out->end(), rhs_code.begin(), rhs_code.end());
  if (rhs->kind == RegKind::kBool) out->push_back({VecOp::kBoolToNum, 0});
  switch (op) {
    case BinaryOp::kAdd: out->push_back({VecOp::kAdd, 0}); break;
    case BinaryOp::kSub: out->push_back({VecOp::kSub, 0}); break;
    case BinaryOp::kMul: out->push_back({VecOp::kMul, 0}); break;
    case BinaryOp::kDiv: out->push_back({VecOp::kDiv, 0}); break;
    case BinaryOp::kMod: out->push_back({VecOp::kMod, 0}); break;
    case BinaryOp::kLt: out->push_back({VecOp::kLtNum, 0}); break;
    case BinaryOp::kLte: out->push_back({VecOp::kLteNum, 0}); break;
    case BinaryOp::kGt: out->push_back({VecOp::kGtNum, 0}); break;
    case BinaryOp::kGte: out->push_back({VecOp::kGteNum, 0}); break;
    case BinaryOp::kEq: out->push_back({VecOp::kEqNum, 0}); break;
    case BinaryOp::kNeq: out->push_back({VecOp::kNeqNum, 0}); break;
    default:
      return std::nullopt;
  }
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return RegInfo{RegKind::kNum, DataType::kFloat64};
    default:
      return RegInfo{RegKind::kBool, DataType::kBool};
  }
}

std::optional<RegInfo> CompilerImpl::EmitTernary(const NodePtr& cond,
                                                 const NodePtr& then_branch,
                                                 const NodePtr& else_branch,
                                                 std::vector<Instr>* out) {
  std::vector<Instr> cond_code, then_code, else_code;
  auto c = Emit(cond, &cond_code);
  auto t = Emit(then_branch, &then_code);
  auto e = Emit(else_branch, &else_code);
  if (!c || !t || !e) return std::nullopt;

  RegKind branch_kind;
  DataType type;
  if (t->kind == e->kind) {
    branch_kind = t->kind;
    type = t->type == e->type
               ? t->type
               : (branch_kind == RegKind::kStr ? DataType::kString
                                               : DataType::kFloat64);
  } else if ((t->kind == RegKind::kBool && e->kind == RegKind::kNum) ||
             (t->kind == RegKind::kNum && e->kind == RegKind::kBool)) {
    branch_kind = RegKind::kNum;
    type = DataType::kFloat64;
  } else {
    return std::nullopt;  // string/number branch mixing: scalar fallback
  }

  out->insert(out->end(), cond_code.begin(), cond_code.end());
  out->insert(out->end(), then_code.begin(), then_code.end());
  if (branch_kind == RegKind::kNum && t->kind == RegKind::kBool) {
    out->push_back({VecOp::kBoolToNum, 0});
  }
  out->insert(out->end(), else_code.begin(), else_code.end());
  if (branch_kind == RegKind::kNum && e->kind == RegKind::kBool) {
    out->push_back({VecOp::kBoolToNum, 0});
  }
  out->push_back({VecOp::kSelect, 0});
  return RegInfo{branch_kind, type};
}

std::optional<RegInfo> CompilerImpl::EmitCall(const Node& node,
                                              std::vector<Instr>* out) {
  const std::string& fn = node.name;
  const auto& args = node.args;

  struct Num1Entry {
    const char* name;
    Num1Fn fn;
  };
  static constexpr Num1Entry kNum1[] = {
      {"abs", Num1Fn::kAbs},   {"ceil", Num1Fn::kCeil}, {"floor", Num1Fn::kFloor},
      {"round", Num1Fn::kRound}, {"sqrt", Num1Fn::kSqrt}, {"exp", Num1Fn::kExp},
      {"log", Num1Fn::kLog},
  };
  for (const auto& entry : kNum1) {
    if (fn == entry.name && args.size() == 1) {
      if (!EmitNum(args[0], out)) return std::nullopt;
      out->push_back({VecOp::kCallNum1, static_cast<int32_t>(entry.fn)});
      return RegInfo{RegKind::kNum, DataType::kFloat64};
    }
  }

  struct DateEntry {
    const char* name;
    DatePart part;
  };
  static constexpr DateEntry kDates[] = {
      {"year", DatePart::kYear},       {"month", DatePart::kMonth},
      {"date", DatePart::kDate},       {"day", DatePart::kDay},
      {"hours", DatePart::kHours},     {"minutes", DatePart::kMinutes},
      {"seconds", DatePart::kSeconds},
  };
  for (const auto& entry : kDates) {
    if (fn == entry.name && args.size() == 1) {
      if (!EmitNum(args[0], out)) return std::nullopt;
      out->push_back({VecOp::kCallDatePart, static_cast<int32_t>(entry.part)});
      // The scalar interpreter returns Number() for date parts, so the
      // inferred value type stays kFloat64 for output-column parity.
      return RegInfo{RegKind::kNum, DataType::kFloat64};
    }
  }

  if ((fn == "date_trunc" || fn == "date_unit_end") && args.size() == 2) {
    // The unit must be a literal string (it always is in translated SQL).
    if (!args[0] || args[0]->kind != NodeKind::kLiteral ||
        !args[0]->literal.is_string()) {
      return std::nullopt;
    }
    if (!EmitNum(args[1], out)) return std::nullopt;
    int32_t unit = AddStrConst(args[0]->literal.AsString());
    out->push_back({fn == "date_trunc" ? VecOp::kCallDateTrunc
                                       : VecOp::kCallDateUnitEnd,
                    unit});
    return RegInfo{RegKind::kNum, DataType::kTimestamp};
  }

  if (fn == "pow" && args.size() == 2) {
    if (!EmitNum(args[0], out) || !EmitNum(args[1], out)) return std::nullopt;
    out->push_back({VecOp::kCallPow, 0});
    return RegInfo{RegKind::kNum, DataType::kFloat64};
  }
  if (fn == "clamp" && args.size() == 3) {
    for (const NodePtr& a : args) {
      if (!EmitNum(a, out)) return std::nullopt;
    }
    out->push_back({VecOp::kCallClamp, 0});
    return RegInfo{RegKind::kNum, DataType::kFloat64};
  }
  if ((fn == "min" || fn == "max") && !args.empty()) {
    for (const NodePtr& a : args) {
      if (!EmitNum(a, out)) return std::nullopt;
    }
    out->push_back({fn == "min" ? VecOp::kCallMin : VecOp::kCallMax,
                    static_cast<int32_t>(args.size())});
    return RegInfo{RegKind::kNum, DataType::kFloat64};
  }
  if ((fn == "toNumber" || fn == "time") && args.size() == 1) {
    // Numeric identity on already-numeric operands; string parsing falls back.
    if (!EmitNum(args[0], out)) return std::nullopt;
    out->push_back({VecOp::kPlusNum, 0});
    return RegInfo{RegKind::kNum, DataType::kFloat64};
  }
  if (fn == "isValid" && args.size() == 1) {
    std::vector<Instr> tmp;
    if (!Emit(args[0], &tmp)) return std::nullopt;
    out->insert(out->end(), tmp.begin(), tmp.end());
    out->push_back({VecOp::kIsValid, 0});
    return RegInfo{RegKind::kBool, DataType::kBool};
  }
  if (fn == "if" && args.size() == 3) {
    return EmitTernary(args[0], args[1], args[2], out);
  }
  if ((fn == "length" || fn == "lower" || fn == "upper") && args.size() == 1) {
    std::vector<Instr> tmp;
    auto r = Emit(args[0], &tmp);
    if (!r || r->kind != RegKind::kStr) return std::nullopt;
    out->insert(out->end(), tmp.begin(), tmp.end());
    if (fn == "length") {
      out->push_back({VecOp::kCallLenStr, 0});
      return RegInfo{RegKind::kNum, DataType::kFloat64};
    }
    out->push_back({fn == "lower" ? VecOp::kCallLower : VecOp::kCallUpper, 0});
    return RegInfo{RegKind::kStr, DataType::kString};
  }
  return std::nullopt;
}

std::optional<RegInfo> CompilerImpl::Emit(const NodePtr& node,
                                          std::vector<Instr>* out) {
  if (!node) return std::nullopt;
  switch (node->kind) {
    case NodeKind::kLiteral: {
      const data::Value& v = node->literal;
      switch (v.type()) {
        case DataType::kNull:
          out->push_back({VecOp::kLoadNullNum, 0});
          return RegInfo{RegKind::kNum, DataType::kFloat64};
        case DataType::kBool:
          out->push_back({VecOp::kLoadBoolConst, v.AsBool() ? 1 : 0});
          return RegInfo{RegKind::kBool, DataType::kBool};
        case DataType::kInt64:
        case DataType::kFloat64:
        case DataType::kTimestamp:
          out->push_back({VecOp::kLoadNumConst, AddNumConst(v.AsDouble(), false)});
          return RegInfo{RegKind::kNum, v.type()};
        case DataType::kString:
          out->push_back({VecOp::kLoadStrConst, AddStrConst(v.AsString())});
          return RegInfo{RegKind::kStr, DataType::kString};
      }
      return std::nullopt;
    }
    case NodeKind::kIdentifier:
      // Signal references are bound to literals per pulse beforehand
      // (expr/bind.h); one left over is array-valued: scalar fallback.
      // A bare `datum` evaluates to null in the interpreter.
      if (node->name == "datum") {
        out->push_back({VecOp::kLoadNullNum, 0});
        return RegInfo{RegKind::kNum, DataType::kFloat64};
      }
      return std::nullopt;
    case NodeKind::kMember: {
      if (!node->a || node->a->kind != NodeKind::kIdentifier ||
          node->a->name != "datum") {
        return std::nullopt;  // array .length etc: scalar fallback
      }
      int idx = schema_.FieldIndex(node->name);
      if (idx < 0) {
        out->push_back({VecOp::kLoadNullNum, 0});
        return RegInfo{RegKind::kNum, DataType::kFloat64};
      }
      DataType t = schema_.field(static_cast<size_t>(idx)).type;
      if (t == DataType::kNull) {
        out->push_back({VecOp::kLoadNullNum, 0});
        return RegInfo{RegKind::kNum, DataType::kFloat64};
      }
      out->push_back({VecOp::kLoadCol, idx});
      if (t == DataType::kString) return RegInfo{RegKind::kStr, t};
      return RegInfo{RegKind::kNum, t};
    }
    case NodeKind::kUnary: {
      if (node->unary_op == UnaryOp::kNot) {
        std::vector<Instr> tmp;
        if (!Emit(node->a, &tmp)) return std::nullopt;
        out->insert(out->end(), tmp.begin(), tmp.end());
        out->push_back({VecOp::kNot, 0});
        return RegInfo{RegKind::kBool, DataType::kBool};
      }
      // Fold negated numeric literals into one constant, so `x > -20`
      // keeps the three-instruction shape the fused-predicate detector
      // (and the broadcast-constant machinery) recognizes.
      if (node->unary_op == UnaryOp::kNeg && node->a &&
          node->a->kind == NodeKind::kLiteral && node->a->literal.is_numeric()) {
        out->push_back(
            {VecOp::kLoadNumConst, AddNumConst(-node->a->literal.AsDouble(), false)});
        return RegInfo{RegKind::kNum, DataType::kFloat64};
      }
      if (!EmitNum(node->a, out)) return std::nullopt;
      out->push_back({node->unary_op == UnaryOp::kNeg ? VecOp::kNegNum
                                                      : VecOp::kPlusNum,
                      0});
      return RegInfo{RegKind::kNum, DataType::kFloat64};
    }
    case NodeKind::kBinary:
      return EmitBinary(*node, out);
    case NodeKind::kTernary:
      return EmitTernary(node->a, node->b, node->c, out);
    case NodeKind::kCall:
      return EmitCall(*node, out);
    case NodeKind::kIndex:
    case NodeKind::kArray:
      return std::nullopt;  // array values: scalar fallback
  }
  return std::nullopt;
}

/// Match a `column <cmp> constant` compare (in either operand order) at
/// code[i..i+2]. Numeric compares accept any of the six operators against a
/// non-null constant; string compares accept ==/!= against a literal.
bool MatchFusedCompare(const Program& p, size_t i, Program::FusedPred* out) {
  if (i + 2 >= p.code.size()) return false;
  const Instr& a = p.code[i];
  const Instr& b = p.code[i + 1];
  const Instr& cmp = p.code[i + 2];
  kernels::Cmp op;
  bool is_str = false;
  switch (cmp.op) {
    case VecOp::kLtNum: op = kernels::Cmp::kLt; break;
    case VecOp::kLteNum: op = kernels::Cmp::kLte; break;
    case VecOp::kGtNum: op = kernels::Cmp::kGt; break;
    case VecOp::kGteNum: op = kernels::Cmp::kGte; break;
    case VecOp::kEqNum: op = kernels::Cmp::kEq; break;
    case VecOp::kNeqNum: op = kernels::Cmp::kNeq; break;
    case VecOp::kEqStr: op = kernels::Cmp::kEq; is_str = true; break;
    case VecOp::kNeqStr: op = kernels::Cmp::kNeq; is_str = true; break;
    default: return false;
  }
  const VecOp const_op = is_str ? VecOp::kLoadStrConst : VecOp::kLoadNumConst;
  const Instr* col = nullptr;
  const Instr* cst = nullptr;
  if (a.op == VecOp::kLoadCol && b.op == const_op) {
    col = &a;
    cst = &b;
  } else if (a.op == const_op && b.op == VecOp::kLoadCol) {
    col = &b;
    cst = &a;
    // Mirror the comparison so the column sits on the left.
    switch (op) {
      case kernels::Cmp::kLt: op = kernels::Cmp::kGt; break;
      case kernels::Cmp::kLte: op = kernels::Cmp::kGte; break;
      case kernels::Cmp::kGt: op = kernels::Cmp::kLt; break;
      case kernels::Cmp::kGte: op = kernels::Cmp::kLte; break;
      default: break;  // ==/!= are symmetric
    }
  } else {
    return false;
  }
  out->col = col->imm;
  out->cmp = op;
  out->is_str = is_str;
  if (is_str) {
    out->str_const = cst->imm;
  } else {
    const Program::NumConst& c = p.num_consts[static_cast<size_t>(cst->imm)];
    if (c.is_null) return false;  // null comparisons keep the general path
    out->num_const = c.value;
  }
  return true;
}

/// Detect programs that are an AND/OR tree of `column <cmp> constant`
/// compares — `a > x`, `a > x && b < y && s == 'k'`, `a > x || b == y`, any
/// association and mixing — and record the leaf list plus a postfix combine
/// program so RunFilter runs one bitmap pass over the compare kernels
/// instead of per-leaf bool registers plus blends. Pure AND chains
/// additionally populate fused_preds (the conjunct list the zone-map
/// pruning paths consume; OR nodes would break their semantics).
void DetectFusedPredicates(Program* p) {
  std::vector<Program::FusedPred> leaves;
  std::vector<int32_t> ops;
  size_t bools_on_stack = 0;
  bool has_or = false;
  size_t i = 0;
  while (i < p->code.size()) {
    Program::FusedPred pred;
    if (MatchFusedCompare(*p, i, &pred)) {
      ops.push_back(static_cast<int32_t>(leaves.size()));
      leaves.push_back(pred);
      ++bools_on_stack;
      i += 3;
      continue;
    }
    const VecOp op = p->code[i].op;
    if ((op == VecOp::kAndBool || op == VecOp::kOrBool) &&
        bools_on_stack >= 2) {
      has_or = has_or || op == VecOp::kOrBool;
      ops.push_back(op == VecOp::kAndBool ? Program::kTreeAnd
                                          : Program::kTreeOr);
      --bools_on_stack;
      ++i;
      continue;
    }
    return;  // anything else: not a fused predicate tree
  }
  if (bools_on_stack != 1 || leaves.empty()) return;
  if (!has_or) p->fused_preds = leaves;
  p->fused_tree_leaves = std::move(leaves);
  p->fused_tree_ops = std::move(ops);
}

/// Compile-time CSE analysis: record columns loaded more than once (and how
/// often) so the evaluator caches their registers per program run.
void DetectReusedColumns(Program* p) {
  std::vector<std::pair<int32_t, int32_t>> counts;
  for (const Instr& instr : p->code) {
    if (instr.op != VecOp::kLoadCol) continue;
    bool found = false;
    for (auto& [col, n] : counts) {
      if (col == instr.imm) {
        ++n;
        found = true;
        break;
      }
    }
    if (!found) counts.emplace_back(instr.imm, 1);
  }
  for (const auto& entry : counts) {
    if (entry.second >= 2) p->reused_cols.push_back(entry);
  }
}

}  // namespace

std::optional<Program> Compiler::Compile(const NodePtr& node,
                                         const data::Schema& schema) {
  Program program;
  CompilerImpl impl(schema, &program);
  auto result = impl.Emit(node, &program.code);
  if (!result) return std::nullopt;
  program.result_kind = result->kind;
  program.result_type = result->type;
  DetectFusedPredicates(&program);
  DetectReusedColumns(&program);
  return program;
}

}  // namespace expr
}  // namespace vegaplus
