// Morsel-driven parallel execution primitives (HyPer-style): the shared
// process-wide executor that the SQL executor and the dataflow transforms
// use to run filter / projection / aggregation work morsel-at-a-time across
// all cores.
//
// Design rules, in order of importance:
//
//  1. *No deadlocks with the middleware's DBMS worker pool.* A DBMS worker
//     (runtime::WorkerPool thread) that reaches ParallelFor while the morsel
//     pool is saturated must still make progress, so the calling thread
//     always participates in its own work: helpers are best-effort
//     acceleration, never a dependency. The two pools never submit work to
//     each other, so there is no cycle to deadlock on.
//  2. *Determinism.* Work is claimed from a shared atomic counter, but
//     morsel boundaries are a pure function of the input size and the
//     configured morsel size — never of the thread count — so callers can
//     merge per-morsel results in morsel order and get results that are
//     bit-identical run to run and at any parallelism.
//  3. *One sequential path.* SetMorselParallelism(1) routes every
//     ParallelFor through the inline sequential path (same chunking, same
//     merge order) for debugging and differential testing.
#ifndef VEGAPLUS_COMMON_PARALLEL_H_
#define VEGAPLUS_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "common/cancel.h"

namespace vegaplus {
namespace parallel {

/// Number of threads (caller included) a ParallelFor may use. 0 (the
/// default) means std::thread::hardware_concurrency(). At 1, ParallelFor
/// runs tasks inline on the calling thread in index order. Benchmarks set
/// this to measure scaling at fixed thread counts.
///
/// The two morsel knobs are process-wide, unlike the per-query options of
/// common::QueryContext: a thread count never changes a result, and one
/// morsel size must be shared by the tile trees, the executor and the shard
/// writer, whose chunk boundaries SUM/AVG bit-identity depends on.
size_t MorselParallelism();
void SetMorselParallelism(size_t threads);

/// Rows per morsel for table-shaped work (default 16384). Morsel boundaries
/// feed deterministic merges, so tests shrink this to exercise many-morsel
/// paths on small tables. Must be >= 1.
size_t MorselRows();
void SetMorselRows(size_t rows);

/// Run fn(0) .. fn(num_tasks - 1), possibly concurrently on the shared
/// morsel pool. The calling thread participates (it claims tasks from the
/// same queue), so this never blocks on pool capacity — if every pool
/// thread is busy, the caller simply runs all tasks itself. Returns after
/// every task has finished. Task index order across threads is unspecified;
/// use per-task slots and merge in index order for deterministic results.
/// If a task throws, the first exception is rethrown on the calling thread
/// after all tasks complete.
///
/// `cancel` (optional) is the cooperative-cancellation checkpoint between
/// morsels: once the token fires, indices claimed afterwards skip `fn`
/// entirely (their output slots stay unwritten) but still count toward
/// completion, so ParallelFor always returns promptly and waiters never
/// hang. Callers must poll the token after the call and discard the
/// (partially written) results if it fired — ParallelFor itself has no
/// error channel for cancellation.
void ParallelFor(size_t num_tasks, const std::function<void(size_t)>& fn,
                 const common::CancelToken* cancel = nullptr);

/// One contiguous half-open range of rows/positions.
struct Range {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Split [0, n) into consecutive ranges of `chunk` (the last may be short).
/// n == 0 yields no ranges; chunk is clamped to >= 1.
std::vector<Range> SplitRanges(size_t n, size_t chunk);

/// Morsel decomposition of an n-row input at the configured MorselRows().
std::vector<Range> MorselRanges(size_t n);

/// Chunk size for partial-aggregate accumulation over `n` positions when
/// each chunk must hold `states_per_chunk` partial states (groups x
/// aggregates). Starts at MorselRows() and doubles until the total
/// partial-state footprint is bounded, so high-cardinality group-bys do not
/// multiply their hash state by the chunk count. Deterministic in
/// (n, states_per_chunk, MorselRows()) only — never the thread count — so
/// the parallel and sequential paths merge identically-shaped partials.
size_t AggChunkSize(size_t n, size_t states_per_chunk);

}  // namespace parallel
}  // namespace vegaplus

#endif  // VEGAPLUS_COMMON_PARALLEL_H_
