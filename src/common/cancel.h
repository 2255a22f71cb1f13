// Cooperative cancellation: a cheap, polled token threaded from the
// middleware down through SQL execution, morsel loops, storage page-in, and
// tile builds; and the per-query context (QueryContext) that carries it
// with the query's execution options.
//
// Design rules:
//
//  1. *Polling only.* There is no interruption: a fired token makes the next
//     checkpoint (typically a morsel boundary, every MorselRows() rows) turn
//     the remaining work into no-ops and the enclosing call return
//     Status::Cancelled / Status::DeadlineExceeded. Holders of partial
//     results must discard them after a fired poll — morsels that were
//     skipped leave their output slots unwritten.
//  2. *Cheap when cold.* fired() is one relaxed atomic load when no deadline
//     is set, one steady_clock read otherwise. It is safe to poll per morsel
//     (16k rows), not per row.
//  3. *Hierarchy.* A token may have a parent: hedged attempts carry a child
//     token so the middleware can abandon one attempt without touching its
//     sibling, while a fired parent (ticket cancelled) stops both.
#ifndef VEGAPLUS_COMMON_CANCEL_H_
#define VEGAPLUS_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>

#include "common/status.h"

namespace vegaplus {
namespace common {

class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(std::chrono::steady_clock::time_point deadline)
      : has_deadline_(true), deadline_(deadline) {}

  /// Child token: fires when explicitly cancelled, when its own deadline
  /// passes, or when `parent` fires. Used for hedged attempts.
  CancelToken(std::shared_ptr<const CancelToken> parent,
              std::optional<std::chrono::steady_clock::time_point> deadline)
      : parent_(std::move(parent)) {
    if (deadline.has_value()) {
      has_deadline_ = true;
      deadline_ = *deadline;
    }
  }

  /// Request cancellation. Idempotent, thread-safe, never blocks.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }

  /// True once the token has fired (explicit Cancel, expired deadline, or
  /// fired parent). Checkpoints poll this.
  bool fired() const {
    if (cancelled_.load(std::memory_order_acquire)) return true;
    if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
      return true;
    }
    return parent_ != nullptr && parent_->fired();
  }

  /// True when Cancel() was called explicitly (deadline expiry alone does
  /// not set this). Distinguishes kCancelled from kDeadlineExceeded.
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_acquire) ||
           (parent_ != nullptr && parent_->cancel_requested());
  }

  bool has_deadline() const { return has_deadline_; }
  std::chrono::steady_clock::time_point deadline() const { return deadline_; }

  /// The status a checkpoint should return once fired(): kCancelled when an
  /// explicit Cancel (own or parent's) fired it, else kDeadlineExceeded.
  Status status() const {
    if (cancel_requested()) {
      return Status::Cancelled("query cancelled at morsel checkpoint");
    }
    return Status::DeadlineExceeded("deadline expired at morsel checkpoint");
  }

 private:
  std::atomic<bool> cancelled_{false};
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::shared_ptr<const CancelToken> parent_;
};

/// Per-query execution context handed from the middleware into the engine:
/// the cancellation token and the execution options of this one query. Two
/// queries in one process never see each other's options. A null context
/// means no token and every option at its default.
///
/// The morsel thread count and morsel size stay process-wide
/// (common/parallel.h): a thread count never changes a result, and one
/// morsel size must be shared by the tile trees, the executor and the shard
/// writer for SUM/AVG bit-identity.
struct QueryContext {
  std::shared_ptr<CancelToken> cancel;
  /// Compiled column-at-a-time evaluation (expr::Compiler). False runs every
  /// expression of the query on the scalar interpreter: the differential
  /// and benchmark baseline.
  bool vectorized = true;
  /// Zone-map pruning of shard chunks and in-memory morsels. False scans
  /// and filters every chunk and morsel: the baseline that proves pruned
  /// execution bit-identical.
  bool zone_map_pruning = true;

  /// Borrowed pointer for the hot-path plumbing (ParallelFor, readers).
  /// Null when cancellation is not in play.
  const CancelToken* token() const { return cancel.get(); }
};

/// Poll helper: true when `cancel` is non-null and fired.
inline bool Fired(const CancelToken* cancel) {
  return cancel != nullptr && cancel->fired();
}

}  // namespace common
}  // namespace vegaplus

#endif  // VEGAPLUS_COMMON_CANCEL_H_
