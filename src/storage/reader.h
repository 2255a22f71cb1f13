// Reader: on-demand materialization over a ColumnFile with LRU chunk
// residency and zone-map predicate pushdown.
//
// Chunks page in on first touch (DecodeChunk) and stay resident in an LRU
// cache bounded by a byte budget (payload size approximates decoded size;
// the budget is a target, not a hard cap — the chunk being served is always
// kept). Every scan runs one chunk loop (Scan): chunks whose zones prove no
// row can pass the caller's conjunction are skipped before page-in, the
// survivors page in as morsels across the morsel pool, each through the
// caller's row filter, and the kept rows concatenate in chunk order — so
// the result is the rows of a full scan that pass the filter, in scan
// order, at any thread count and with pruning on or off.
//
// Thread safety: all methods are safe concurrently. Decoding happens outside
// the cache lock; two threads racing on the same cold chunk may both decode,
// one insertion wins.
#ifndef VEGAPLUS_STORAGE_READER_H_
#define VEGAPLUS_STORAGE_READER_H_

#include <atomic>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "data/table.h"
#include "storage/column_file.h"
#include "storage/zone_map.h"

namespace vegaplus {
namespace storage {

/// Keeps rows of one decoded chunk: appends the ids of the rows to keep, in
/// ascending order, to `keep`.
using ChunkFilter =
    std::function<void(const data::Table& chunk, std::vector<int32_t>* keep)>;

/// Per-call scan accounting (the process-global counters in stats.h count
/// chunks pruned and paged in). Counts only the chunks a call actually
/// paged in, so a scan aborted by a fired CancelToken leaves an honest
/// partial count behind (rows_scanned strictly below the full-scan total is
/// the observable proof of a mid-scan abort).
struct ScanStats {
  uint64_t rows_scanned = 0;  ///< Rows of chunks paged in (pre row-filter).
};

/// Chaos seam for the out-of-core path (storage cannot depend on runtime, so
/// runtime::FaultInjector bridges in through this free function — the same
/// storage-owner pattern as stats.h). The hook runs on every chunk page-in
/// (cache miss, before decode), keyed by shard path + chunk index; a non-OK
/// return surfaces as the page-in's status (the retry/degraded machinery
/// upstream sees an IO-shaped failure, never a crash). The hook itself is
/// responsible for any injected stall. Pass nullptr to clear.
using PageInFaultHook =
    std::function<Status(const std::string& path, size_t chunk_index)>;
void SetPageInFaultHook(PageInFaultHook hook);

/// Byte budget for a new Reader's resident decoded chunks.
constexpr size_t kDefaultResidencyBudget = size_t{256} << 20;

class Reader {
 public:
  /// Open a shard for reading. The residency budget starts at
  /// kDefaultResidencyBudget and is adjustable per reader afterwards.
  static Result<std::shared_ptr<Reader>> Open(const std::string& path);

  ~Reader();
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  const ColumnFile& file() const { return *file_; }
  const data::Schema& schema() const { return file_->schema(); }
  uint64_t total_rows() const { return file_->total_rows(); }
  size_t num_chunks() const { return file_->num_chunks(); }

  /// Byte budget for resident decoded chunks; 0 = unbounded.
  void set_residency_budget(size_t bytes);
  size_t residency_budget() const { return budget_.load(std::memory_order_relaxed); }
  /// Bytes of decoded chunks currently resident in this reader.
  size_t resident_bytes() const;

  /// Chunk `i`, decoding and caching it on first touch.
  Result<data::TablePtr> Chunk(size_t i) const;

  /// The one chunk loop. Chunks whose zones prove that no row passes the
  /// conjunction `preds` are skipped before page-in (string constants
  /// resolve against the file's dictionary pages; empty `preds` prune
  /// nothing). The survivors run as morsels on the shared pool
  /// (parallel::ParallelFor): each task pages its chunk in and, when
  /// `filter` is set, keeps the rows `filter` selects. The kept rows are
  /// concatenated in chunk order. `preds` must be implied by `filter`
  /// (every kept row passes every conjunct); pruning then never changes the
  /// result. `cancel` is polled before each chunk page-in: a fired token
  /// aborts the scan with its status, leaving partial counts in `stats`.
  Result<data::TablePtr> Scan(const std::vector<Predicate>& preds,
                              const ChunkFilter& filter,
                              const common::CancelToken* cancel = nullptr,
                              ScanStats* stats = nullptr) const;

  /// The whole shard as one table: Scan with no predicate and no filter.
  /// Built fresh per call; only chunks are cached.
  Result<data::TablePtr> ReadAll(const common::CancelToken* cancel = nullptr,
                                 ScanStats* stats = nullptr) const;

  /// Drop every resident chunk (tests and benchmarks).
  void EvictAll() const;

 private:
  explicit Reader(std::shared_ptr<const ColumnFile> file);

  Result<data::TablePtr> Concat(const std::vector<data::TablePtr>& chunks) const;

  std::shared_ptr<const ColumnFile> file_;
  std::atomic<size_t> budget_;

  mutable std::mutex mu_;
  struct Resident {
    data::TablePtr table;
    size_t bytes = 0;
    std::list<size_t>::iterator lru_it;
  };
  mutable std::list<size_t> lru_;  // front = most recently used
  mutable std::unordered_map<size_t, Resident> resident_;
  mutable size_t resident_bytes_ = 0;
};

}  // namespace storage
}  // namespace vegaplus

#endif  // VEGAPLUS_STORAGE_READER_H_
