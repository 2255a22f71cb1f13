// Per-pulse signal binding: specializes an expression to the current signal
// values so the vector compiler (expr/compiler.h), which rejects signal
// references, can lower client-side brush and click filters too. Constant
// call folding does the same for SQL WHERE clauses.
//
// Binding and folding are exact by construction. Every value they fold is
// computed by the scalar interpreter (expr::Evaluate) itself, and every
// expression function is pure, so the bound tree evaluates to the same value
// as the original on every row of the pulse it was bound for. The
// differential suite (tests/expr_vector_diff_test.cc) checks this against
// the interpreter on the original tree.
#ifndef VEGAPLUS_EXPR_BIND_H_
#define VEGAPLUS_EXPR_BIND_H_

#include "expr/ast.h"
#include "expr/evaluator.h"

namespace vegaplus {
namespace expr {

/// Returns a copy of `node` specialized to the values `signals` holds now;
/// valid until a signal changes. Untouched subtrees are shared, not copied.
///
/// - A subtree that reads no `datum` field is evaluated once; a scalar
///   result replaces it as a literal (`sig[0]`, `span(sig)`,
///   `clicked == null`). Array results stay as they are.
/// - `inrange(datum.f, r)` with a datum-free `r` becomes
///   `datum.f >= lo && datum.f <= hi`, with lo/hi taken exactly as the
///   `inrange` function takes them, or literal `false` when `r` is not an
///   array of at least two elements.
/// - `&&`, `||` and `?:` whose left operand or condition became a literal
///   collapse by the interpreter's short-circuit rule, so
///   `clicked == null || datum.c == clicked` binds to one compare.
///
/// Whatever still references a signal afterwards (an array-valued signal
/// used in some other way) is left in place; the compiler then rejects the
/// bound tree and the caller runs the original on the interpreter.
NodePtr BindSignals(const NodePtr& node, const SignalResolver& signals);

/// Returns a copy of `node` in which every call that reads no `datum` field
/// and passes Validate is replaced by the literal Evaluate returns for it
/// with no table and no signals, the context the SQL executor filters rows
/// in. Array results stay as they are, as do comparisons, `&&`, `||` and
/// `?:`. Untouched subtrees are shared, not copied.
///
/// The SQL executor folds WHERE once per query, so the rewriter's brush form
/// `x BETWEEN LEAST(a, b) AND GREATEST(a, b)` reaches the compiler as
/// `x >= c && x <= d`: fused compares the zone maps can prune on.
NodePtr FoldConstantCalls(const NodePtr& node);

}  // namespace expr
}  // namespace vegaplus

#endif  // VEGAPLUS_EXPR_BIND_H_
