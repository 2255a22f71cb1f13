// The aggregate core: one implementation of every aggregate the system
// computes, shared by the SQL executor's GROUP BY and the Vega aggregate
// transform (transforms::AggregateOp). An aggregate placed in the client
// dataflow and the same aggregate pushed down to the DBMS accumulate, merge
// and finish through the functions below, so both placements return the
// same cells — the equivalence the optimizer's freedom to split a pipeline
// anywhere rests on (§4).
//
// Each caller keeps what is its own: how it groups (key registers and the
// representative row per group), its output column names and types, and
// how many rows a no-groupby aggregate over zero rows yields.
#ifndef VEGAPLUS_EXPR_AGGREGATE_H_
#define VEGAPLUS_EXPR_AGGREGATE_H_

#include <cstdint>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "data/value.h"

namespace vegaplus {
namespace expr {

struct Vec;  // expr/batch_eval.h

/// Aggregate operators of the core (the SQL engine's set, a superset of
/// what the Vega aggregate transform maps onto; see
/// transforms::CoreAggOf).
enum class AggOp {
  kCount,  // COUNT(*) (no argument) or COUNT(x) (non-null cells)
  kSum,
  kAvg,
  kMin,
  kMax,
  kMedian,
  kStddev,
  kVariance,
};

/// Fixed chunking of `positions` grouped positions for `num_aggs`
/// aggregates over `num_groups` groups. Boundaries are a function of the
/// data shape only (parallel::AggChunkSize), never of the thread count, so
/// the chunk-order merge in AggregateGroups is bit-identical at any
/// parallelism. Compute once and share across a statement's aggregates.
std::vector<parallel::Range> AggChunks(size_t positions, size_t num_groups,
                                       size_t num_aggs);

/// One aggregate per group, finished. Position `pos` of `rows`/`group_of`
/// contributes the cell at row `rows[pos]` of `arg` to group
/// `group_of[pos]`; `arg == nullptr` counts every position (COUNT(*)).
/// Each chunk accumulates its own partial states (across the morsel pool)
/// and the partials merge in chunk order; returns `num_groups` values.
///
/// Semantics (null cells are skipped by everything but COUNT(*)):
///   - COUNT: Int64, never null.
///   - SUM/AVG/MEDIAN: Float64, null for a group without valid cells.
///   - STDDEV/VARIANCE: sample statistics, null below two valid cells; a
///     negative rounding residue clamps to 0, a NaN variance stays NaN.
///   - MIN/MAX: strict compares — the first valid cell initializes, ties
///     keep the earlier cell, and a NaN never replaces an extremum (but a
///     NaN that arrives first sticks). Numeric cells box as Double.
/// Numeric and bool registers accumulate through the kernel library's
/// typed loops; string and boxed registers update per row.
///
/// `cancel` is polled between chunks; once it fires the result is
/// unspecified and the caller must discard it.
std::vector<data::Value> AggregateGroups(AggOp op, const Vec* arg,
                                         const std::vector<int32_t>& rows,
                                         const std::vector<uint32_t>& group_of,
                                         size_t num_groups,
                                         const std::vector<parallel::Range>& chunks,
                                         const common::CancelToken* cancel = nullptr);

}  // namespace expr
}  // namespace vegaplus

#endif  // VEGAPLUS_EXPR_AGGREGATE_H_
