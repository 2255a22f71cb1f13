#include "expr/sql_translator.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/str_util.h"
#include "expr/functions.h"

namespace vegaplus {
namespace expr {

namespace {

bool IsPlainIdentifier(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_') return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

void AddDep(SqlFragment* frag, const std::string& name) {
  if (std::find(frag->signal_deps.begin(), frag->signal_deps.end(), name) ==
      frag->signal_deps.end()) {
    frag->signal_deps.push_back(name);
  }
}

class Translator {
 public:
  Result<SqlFragment> Translate(const NodePtr& node) {
    std::string text;
    VP_RETURN_IF_ERROR(Emit(node, &text));
    frag_.text = std::move(text);
    return frag_;
  }

 private:
  Status Emit(const NodePtr& node, std::string* out) {
    if (!node) return Status::InvalidArgument("sql translate: null node");
    switch (node->kind) {
      case NodeKind::kLiteral:
        out->append(SqlLiteral(node->literal));
        return Status::OK();
      case NodeKind::kIdentifier:
        // A bare identifier is a signal reference -> hole.
        AddDep(&frag_, node->name);
        out->append("${" + node->name + "}");
        return Status::OK();
      case NodeKind::kMember:
        if (node->a && node->a->kind == NodeKind::kIdentifier &&
            node->a->name == "datum") {
          out->append(QuoteIdentifier(node->name));
          return Status::OK();
        }
        return Status::NotImplemented("sql translate: member access on non-datum");
      case NodeKind::kIndex: {
        // signal[i] with a literal integer index -> indexed hole.
        if (node->a && node->a->kind == NodeKind::kIdentifier &&
            node->a->name != "datum" && node->b &&
            node->b->kind == NodeKind::kLiteral && node->b->literal.is_numeric()) {
          double d = node->b->literal.AsDouble();
          if (d >= 0 && d == std::floor(d)) {
            AddDep(&frag_, node->a->name);
            out->append(StrFormat("${%s[%d]}", node->a->name.c_str(),
                                  static_cast<int>(d)));
            return Status::OK();
          }
        }
        return Status::NotImplemented("sql translate: dynamic index");
      }
      case NodeKind::kUnary:
        switch (node->unary_op) {
          case UnaryOp::kNot:
            out->append("(NOT ");
            VP_RETURN_IF_ERROR(Emit(node->a, out));
            out->append(")");
            return Status::OK();
          case UnaryOp::kNeg:
            out->append("(-");
            VP_RETURN_IF_ERROR(Emit(node->a, out));
            out->append(")");
            return Status::OK();
          case UnaryOp::kPlus:
            return Emit(node->a, out);
        }
        return Status::NotImplemented("sql translate: unary op");
      case NodeKind::kBinary: {
        const char* op = nullptr;
        switch (node->binary_op) {
          case BinaryOp::kAdd: op = "+"; break;
          case BinaryOp::kSub: op = "-"; break;
          case BinaryOp::kMul: op = "*"; break;
          case BinaryOp::kDiv: op = "/"; break;
          case BinaryOp::kMod: op = "%"; break;
          case BinaryOp::kEq: op = "="; break;
          case BinaryOp::kNeq: op = "<>"; break;
          case BinaryOp::kLt: op = "<"; break;
          case BinaryOp::kLte: op = "<="; break;
          case BinaryOp::kGt: op = ">"; break;
          case BinaryOp::kGte: op = ">="; break;
          case BinaryOp::kAnd: op = "AND"; break;
          case BinaryOp::kOr: op = "OR"; break;
        }
        out->append("(");
        VP_RETURN_IF_ERROR(Emit(node->a, out));
        out->append(" ");
        out->append(op);
        out->append(" ");
        VP_RETURN_IF_ERROR(Emit(node->b, out));
        out->append(")");
        return Status::OK();
      }
      case NodeKind::kTernary:
        out->append("(CASE WHEN ");
        VP_RETURN_IF_ERROR(Emit(node->a, out));
        out->append(" THEN ");
        VP_RETURN_IF_ERROR(Emit(node->b, out));
        out->append(" ELSE ");
        VP_RETURN_IF_ERROR(Emit(node->c, out));
        out->append(" END)");
        return Status::OK();
      case NodeKind::kCall:
        return EmitCall(node, out);
      case NodeKind::kArray:
        return Status::NotImplemented("sql translate: bare array literal");
    }
    return Status::NotImplemented("sql translate: unknown node");
  }

  Status EmitCall(const NodePtr& node, std::string* out) {
    // Internal marker used by the rewriter: __sigfield(sig) is a column
    // whose *name* is the string value of signal `sig` -> identifier hole.
    if (node->name == "__sigfield") {
      if (node->args.size() != 1 || !node->args[0] ||
          node->args[0]->kind != NodeKind::kIdentifier) {
        return Status::InvalidArgument("sql translate: __sigfield needs a signal");
      }
      AddDep(&frag_, node->args[0]->name);
      out->append("${" + node->args[0]->name + ":id}");
      return Status::OK();
    }
    const FunctionDef* def = FindFunction(node->name);
    if (def == nullptr) {
      return Status::KeyError("sql translate: unknown function '" + node->name + "'");
    }
    if (!def->sql_translatable) {
      return Status::NotImplemented("sql translate: function '" + node->name +
                                    "' has no SQL equivalent");
    }
    // Bespoke emitters.
    if (node->name == "isValid") {
      out->append("(");
      VP_RETURN_IF_ERROR(Emit(node->args[0], out));
      out->append(" IS NOT NULL)");
      return Status::OK();
    }
    if (node->name == "if") {
      out->append("(CASE WHEN ");
      VP_RETURN_IF_ERROR(Emit(node->args[0], out));
      out->append(" THEN ");
      VP_RETURN_IF_ERROR(Emit(node->args[1], out));
      out->append(" ELSE ");
      VP_RETURN_IF_ERROR(Emit(node->args[2], out));
      out->append(" END)");
      return Status::OK();
    }
    if (node->name == "clamp") {
      out->append("LEAST(GREATEST(");
      VP_RETURN_IF_ERROR(Emit(node->args[0], out));
      out->append(", ");
      VP_RETURN_IF_ERROR(Emit(node->args[1], out));
      out->append("), ");
      VP_RETURN_IF_ERROR(Emit(node->args[2], out));
      out->append(")");
      return Status::OK();
    }
    if (node->name == "inrange") {
      // inrange(x, sig) / inrange(x, [a, b]) -> (x BETWEEN lo AND hi).
      const NodePtr& range = node->args[1];
      std::string lo, hi;
      if (range->kind == NodeKind::kIdentifier) {
        AddDep(&frag_, range->name);
        lo = "${" + range->name + "[0]}";
        hi = "${" + range->name + "[1]}";
      } else if (range->kind == NodeKind::kArray && range->args.size() == 2) {
        VP_RETURN_IF_ERROR(Emit(range->args[0], &lo));
        VP_RETURN_IF_ERROR(Emit(range->args[1], &hi));
      } else {
        return Status::NotImplemented("sql translate: inrange needs a signal or pair");
      }
      out->append("(");
      VP_RETURN_IF_ERROR(Emit(node->args[0], out));
      out->append(" BETWEEN LEAST(" + lo + ", " + hi + ") AND GREATEST(" + lo + ", " +
                  hi + "))");
      return Status::OK();
    }
    if (def->sql_name.empty()) {
      return Status::NotImplemented("sql translate: function '" + node->name +
                                    "' has no SQL emitter");
    }
    out->append(def->sql_name);
    out->append("(");
    for (size_t i = 0; i < node->args.size(); ++i) {
      if (i > 0) out->append(", ");
      VP_RETURN_IF_ERROR(Emit(node->args[i], out));
    }
    out->append(")");
    return Status::OK();
  }

  SqlFragment frag_;
};

}  // namespace

std::string SqlLiteral(const data::Value& v) {
  switch (v.type()) {
    case data::DataType::kNull:
      return "NULL";
    case data::DataType::kBool:
      return v.AsBool() ? "TRUE" : "FALSE";
    case data::DataType::kInt64:
    case data::DataType::kTimestamp:
      return StrFormat("%lld", static_cast<long long>(v.AsInt()));
    case data::DataType::kFloat64:
      return FormatDouble(v.AsDouble());
    case data::DataType::kString: {
      std::string out = "'";
      for (char c : v.AsString()) {
        if (c == '\'') out += "''";
        else out.push_back(c);
      }
      out += "'";
      return out;
    }
  }
  return "NULL";
}

std::string QuoteIdentifier(const std::string& name) {
  if (IsPlainIdentifier(name)) return name;
  std::string out = "\"";
  for (char c : name) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

Result<SqlFragment> TranslateToSql(const NodePtr& node) {
  return Translator().Translate(node);
}

std::vector<std::string> CollectHoles(const std::string& sql_template) {
  std::vector<std::string> holes;
  size_t pos = 0;
  while ((pos = sql_template.find("${", pos)) != std::string::npos) {
    size_t end = sql_template.find('}', pos);
    if (end == std::string::npos) break;
    std::string inner = sql_template.substr(pos + 2, end - pos - 2);
    // Strip [i] and :id suffixes.
    size_t cut = inner.find_first_of("[:");
    std::string name = cut == std::string::npos ? inner : inner.substr(0, cut);
    if (std::find(holes.begin(), holes.end(), name) == holes.end()) {
      holes.push_back(name);
    }
    pos = end + 1;
  }
  return holes;
}

}  // namespace expr
}  // namespace vegaplus
