// SQL query execution: filter -> aggregate/project(+window) -> having ->
// sort -> limit over the columnar table substrate. Expressions execute
// column-at-a-time through the vectorized engine (expr::Compiler +
// expr::BatchEvaluator) with a row-at-a-time scalar fallback for
// expressions the compiler rejects; columnar storage in and out.
#ifndef VEGAPLUS_SQL_EXECUTOR_H_
#define VEGAPLUS_SQL_EXECUTOR_H_

#include "common/cancel.h"
#include "common/result.h"
#include "data/table.h"
#include "sql/catalog.h"
#include "sql/sql_ast.h"

namespace vegaplus {
namespace sql {

/// \brief Work counters from one execution; the latency model converts these
/// into simulated server time.
struct ExecStats {
  /// Rows read from base tables (scan volume).
  size_t rows_scanned = 0;
  /// Total operator-row touches across the plan (CPU volume).
  size_t rows_processed = 0;
  /// Rows in the final result.
  size_t rows_output = 0;
  /// Plan nodes executed (per-operator overhead).
  int num_operators = 0;

  void Add(const ExecStats& other) {
    rows_scanned += other.rows_scanned;
    rows_processed += other.rows_processed;
    rows_output += other.rows_output;
    num_operators += other.num_operators;
  }
};

/// Execute `stmt` against `catalog`; work counters accumulate into `stats`
/// (which may be null).
///
/// `ctx` (optional) carries the query's execution options and its
/// cooperative cancellation token (common/cancel.h); this function and its
/// helpers are the only readers of the options. The pipeline checkpoints
/// between stages and between morsels/chunks inside the scan, filter, and
/// aggregation loops; a fired token aborts with Status::Cancelled /
/// kDeadlineExceeded. Work counters for the stages that did run are still
/// added to `stats` on abort, so a cancelled scan reports the rows it
/// actually touched.
Result<data::TablePtr> ExecuteSelect(const SelectStmt& stmt, const Catalog& catalog,
                                     ExecStats* stats,
                                     const common::QueryContext* ctx = nullptr);

/// Infer the output type of a scalar expression over `input` (used to build
/// typed result columns without a separate analyzer pass).
data::DataType InferType(const expr::NodePtr& node, const data::Schema& input);

}  // namespace sql
}  // namespace vegaplus

#endif  // VEGAPLUS_SQL_EXECUTOR_H_
