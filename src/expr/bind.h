// Per-pulse signal binding: specializes an expression to the current signal
// values so the vector compiler (expr/compiler.h), which rejects signal
// references, can lower client-side brush and click filters too.
//
// Binding is exact by construction. Every value it folds is computed by the
// scalar interpreter (expr::Evaluate) itself, and every expression function
// is pure, so the bound tree evaluates to the same value as the original on
// every row of the pulse it was bound for. The differential suite
// (tests/expr_vector_diff_test.cc) checks this against the interpreter on
// the original tree.
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

}  // namespace expr
}  // namespace vegaplus

#endif  // VEGAPLUS_EXPR_BIND_H_
