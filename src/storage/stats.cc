#include "storage/stats.h"

#include <atomic>

namespace vegaplus {
namespace storage {

namespace {
std::atomic<uint64_t> g_chunks_pruned{0};
std::atomic<uint64_t> g_morsels_pruned{0};
std::atomic<uint64_t> g_chunks_paged_in{0};
std::atomic<int64_t> g_resident_bytes{0};
}  // namespace

void AddChunksPruned(uint64_t n) {
  g_chunks_pruned.fetch_add(n, std::memory_order_relaxed);
}
uint64_t ChunksPruned() {
  return g_chunks_pruned.load(std::memory_order_relaxed);
}

void AddMorselsPruned(uint64_t n) {
  g_morsels_pruned.fetch_add(n, std::memory_order_relaxed);
}
uint64_t MorselsPruned() {
  return g_morsels_pruned.load(std::memory_order_relaxed);
}

void AddChunksPagedIn(uint64_t n) {
  g_chunks_paged_in.fetch_add(n, std::memory_order_relaxed);
}
uint64_t ChunksPagedIn() {
  return g_chunks_paged_in.load(std::memory_order_relaxed);
}

void AddResidentBytes(int64_t delta) {
  g_resident_bytes.fetch_add(delta, std::memory_order_relaxed);
}
uint64_t ResidentBytes() {
  const int64_t v = g_resident_bytes.load(std::memory_order_relaxed);
  return v > 0 ? static_cast<uint64_t>(v) : 0;
}

}  // namespace storage
}  // namespace vegaplus
