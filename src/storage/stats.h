// Process-wide storage work counters.
//
// Counters are global atomics because chunk pruning happens deep inside the
// expression engine and the SQL scan path, far from any session object.
// Nothing rebases them: readers (benchmarks, tests) take deltas around the
// work they measure, and concurrent work anywhere in the process counts
// into the same numbers. They stay process-wide until per-query counters
// reach common::QueryContext, because perfbench reads them. The execution
// options (zone-map pruning) are per query (common::QueryContext).
#ifndef VEGAPLUS_STORAGE_STATS_H_
#define VEGAPLUS_STORAGE_STATS_H_

#include <cstddef>
#include <cstdint>

namespace vegaplus {
namespace storage {

// ---- Counters (monotone except the resident-bytes gauge) ----

/// On-disk chunks skipped by zone maps before decode.
void AddChunksPruned(uint64_t n);
uint64_t ChunksPruned();

/// In-memory morsels skipped by zone maps inside RunFilterMorselParallel.
void AddMorselsPruned(uint64_t n);
uint64_t MorselsPruned();

/// On-disk chunks decoded into memory (cache misses).
void AddChunksPagedIn(uint64_t n);
uint64_t ChunksPagedIn();

/// Gauge: bytes of decoded chunks currently resident across all readers.
void AddResidentBytes(int64_t delta);
uint64_t ResidentBytes();

}  // namespace storage
}  // namespace vegaplus

#endif  // VEGAPLUS_STORAGE_STATS_H_
