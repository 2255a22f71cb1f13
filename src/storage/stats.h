// Process-wide storage configuration owners and counters.
//
// Configuration follows the repo convention: free functions own the storage
// for each switch, runtime::EngineConfig snapshots and applies them
// coherently. Counters are global atomics because chunk pruning happens deep
// inside the expression engine and the SQL scan path, far from any session
// object. Nothing rebases them: readers (benchmarks, tests) take deltas
// around the work they measure, and concurrent work anywhere in the process
// counts into the same numbers.
#ifndef VEGAPLUS_STORAGE_STATS_H_
#define VEGAPLUS_STORAGE_STATS_H_

#include <cstddef>
#include <cstdint>

namespace vegaplus {
namespace storage {

/// Zone-map pruning kill switch (default on). When off, every scan decodes
/// and evaluates every chunk/morsel — the differential baseline for proving
/// pruned execution bit-identical.
bool ZoneMapPruningEnabled();
void SetZoneMapPruningEnabled(bool enabled);

/// Default byte budget for a Reader's resident decoded chunks (LRU evicted
/// beyond it). 0 = unbounded. Readers snapshot this at Open(); it can also
/// be overridden per reader.
size_t DefaultResidencyBudget();
void SetDefaultResidencyBudget(size_t bytes);

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
