// Vectorized expression compilation: lowers a NodePtr tree into a flat
// postfix program over typed vector registers so a whole column batch can be
// evaluated without materializing per-row Values (see batch_eval.h for the
// executor).
//
// Compilation is best-effort: expressions that reference signals, arrays,
// unsupported functions, or mix string and numeric operands return nullopt
// and the caller falls back to the row-at-a-time scalar interpreter
// (expr::Evaluate). Client-side callers bind signals first
// (expr::BindSignals, expr/bind.h), which removes most signal references.
// Everything a compiled program computes is bit-identical to the scalar
// interpreter over the same rows — the differential suite
// (tests/expr_vector_diff_test.cc) enforces this.
#ifndef VEGAPLUS_EXPR_COMPILER_H_
#define VEGAPLUS_EXPR_COMPILER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/schema.h"
#include "expr/ast.h"
#include "expr/kernels/kernels.h"

namespace vegaplus {
namespace expr {

/// Kind of a vector register at execution time.
enum class RegKind : uint8_t {
  kNum,    // doubles + validity mask (ints/timestamps/bools widen, like Value::AsDouble)
  kBool,   // 0/1 bytes, never null (comparison / logical results)
  kStr,    // string views + implicit validity (nullptr == null)
  kBoxed,  // boxed Values; produced only by scalar fallbacks, never by programs
};

/// Postfix opcodes of the vector VM. Each instruction pops its operands from
/// the register stack and pushes one result register.
enum class VecOp : uint8_t {
  // Pushes.
  kLoadCol,        // imm = column index in the table schema
  kLoadNumConst,   // imm = index into num_consts
  kLoadNullNum,    // all-null numeric register
  kLoadBoolConst,  // imm = 0/1
  kLoadStrConst,   // imm = index into str_consts
  // Numeric arithmetic (null-propagating; div/mod by zero -> null).
  kAdd, kSub, kMul, kDiv, kMod,
  // Numeric comparisons -> bool (null compares false; ==/!= treat null==null
  // as true, matching Value::Compare).
  kLtNum, kLteNum, kGtNum, kGteNum, kEqNum, kNeqNum,
  // String comparisons -> bool.
  kLtStr, kLteStr, kGtStr, kGteStr, kEqStr, kNeqStr,
  // String concatenation (null-propagating).
  kConcat,
  // Logical. Bool/bool operands collapse to bitwise ops; num/num operands
  // blend values JS-style (a && b == truthy(a) ? b : a).
  kAndBool, kOrBool, kAndNum, kOrNum,
  kNot,            // any kind -> bool (negated truthiness)
  // Numeric unary (null-propagating). kPlusNum is the numeric identity and
  // also implements toNumber()/time() on numeric operands.
  kNegNum, kPlusNum,
  kBoolToNum,      // kind coercion: 0/1, always valid
  kSelect,         // [cond, then, else] -> blend; then/else share a kind
  kIsValid,        // any kind -> bool validity mask
  // Calls.
  kCallNum1,       // imm = Num1Fn
  kCallPow,
  kCallClamp,
  kCallMin,        // imm = arg count (variadic LEAST semantics)
  kCallMax,        // imm = arg count
  kCallDatePart,   // imm = DatePart
  kCallDateTrunc,  // imm = str_consts index of the unit
  kCallDateUnitEnd,  // imm = str_consts index of the unit
  kCallLenStr,
  kCallLower, kCallUpper,
};

/// One-argument numeric functions (imm of kCallNum1).
enum class Num1Fn : int32_t { kAbs, kCeil, kFloor, kRound, kSqrt, kExp, kLog };

/// Date part extractors (imm of kCallDatePart).
enum class DatePart : int32_t {
  kYear, kMonth, kDate, kDay, kHours, kMinutes, kSeconds,
};

struct Instr {
  VecOp op;
  int32_t imm = 0;
};

/// \brief A compiled expression: postfix code plus constant pools, and an
/// optional fused predicate fast path that lets the filter executor emit a
/// selection vector without materializing any register.
struct Program {
  struct NumConst {
    double value = 0;
    bool is_null = false;
  };

  std::vector<Instr> code;
  std::vector<NumConst> num_consts;
  std::vector<std::string> str_consts;

  RegKind result_kind = RegKind::kNum;
  /// Best-effort static result type (column passthrough keeps the column
  /// type; arithmetic is kFloat64; date_trunc is kTimestamp; ...).
  data::DataType result_type = data::DataType::kFloat64;

  /// One conjunct of the fused predicate fast path: `column <cmp> constant`
  /// (normalized so the column is on the left-hand side). Numeric conjuncts
  /// carry a double constant; string conjuncts (==/!= only) carry a
  /// str_consts index — against a dictionary-encoded column the constant is
  /// looked up once per batch and the row loop compares int32 codes. An
  /// ordered numeric compare (<, <=, >, >=) against a null constant is false
  /// on every row: it fuses with null_const set, selects nothing, and every
  /// zone refutes it. ==/!= against null keep the general path.
  struct FusedPred {
    int32_t col = -1;
    kernels::Cmp cmp = kernels::Cmp::kLt;
    bool is_str = false;
    bool null_const = false;
    double num_const = 0;
    int32_t str_const = -1;  // index into str_consts (is_str only)
  };

  /// Non-empty when the whole program is an AND-tree of FusedPreds: the
  /// filter executor evaluates all conjuncts in one selection loop instead
  /// of materializing per-conjunct bool registers and blending them.
  /// Deliberately AND-only — zone-map pruning (morsel skips and shard chunk
  /// pushdown) assumes conjunction semantics over this list.
  std::vector<FusedPred> fused_preds;

  /// Postfix combine ops for fused_tree_leaves: an op >= 0 pushes that
  /// leaf's selection bitmap, kTreeAnd/kTreeOr pop two and combine.
  static constexpr int32_t kTreeAnd = -1;
  static constexpr int32_t kTreeOr = -2;

  /// Non-empty when the whole program is an arbitrary AND/OR tree of
  /// FusedPred leaves — a superset of the fused_preds case (a pure AND
  /// chain populates both). The filter executor compiles the tree to one
  /// bitmap-combine pass over the compare kernels instead of falling back
  /// to the general register path.
  std::vector<FusedPred> fused_tree_leaves;
  std::vector<int32_t> fused_tree_ops;

  /// Common-subexpression elimination for column loads: (column, load count)
  /// for every column that appears in two or more kLoadCol instructions
  /// (compound predicates like `datum.a > x && datum.a < y` load `a`
  /// repeatedly). The evaluator materializes each such column register once
  /// per run and reuses it — copying for intermediate uses, moving on the
  /// final one — instead of re-running the typed widening loop per load.
  std::vector<std::pair<int32_t, int32_t>> reused_cols;
};

/// \brief Lowers expression trees to vector programs.
class Compiler {
 public:
  /// Compile `node` against `schema` (the batch's column layout). Returns
  /// nullopt when the expression is not vectorizable (signal references,
  /// arrays, unsupported functions, string/numeric type mixing); callers
  /// fall back to the scalar interpreter.
  static std::optional<Program> Compile(const NodePtr& node,
                                        const data::Schema& schema);
};

}  // namespace expr
}  // namespace vegaplus

#endif  // VEGAPLUS_EXPR_COMPILER_H_
