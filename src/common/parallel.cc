#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
#include <thread>

namespace vegaplus {
namespace parallel {

namespace {

std::atomic<size_t> g_parallelism{0};     // 0 = hardware_concurrency
std::atomic<size_t> g_morsel_rows{16384};

/// Shared state of one ParallelFor call. Helpers hold it by shared_ptr, so a
/// helper that wakes up after the caller returned (all work already claimed)
/// touches only this block, never the caller's dead stack frame. The task
/// function itself is only invoked for claimed indices, and the caller does
/// not return until every claimed index has completed, so everything `fn`
/// captures by reference outlives every invocation.
struct ForState {
  size_t n = 0;
  const std::function<void(size_t)>* fn = nullptr;
  const common::CancelToken* cancel = nullptr;
  std::atomic<size_t> next{0};

  std::mutex mu;
  std::condition_variable done_cv;
  size_t completed = 0;
  std::exception_ptr first_error;
};

/// Claim-and-run loop shared by the caller and every helper.
void RunWork(ForState& s) {
  size_t done_local = 0;
  std::exception_ptr error;
  for (size_t i = s.next.fetch_add(1, std::memory_order_relaxed); i < s.n;
       i = s.next.fetch_add(1, std::memory_order_relaxed)) {
    // Cancellation checkpoint: a fired token turns the remaining morsels
    // into no-ops, but claimed indices still count as completed so the
    // caller's done_cv wait always terminates. The caller observes the
    // fired token itself and discards the partial output.
    if (!common::Fired(s.cancel)) {
      try {
        (*s.fn)(i);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    ++done_local;
  }
  if (done_local == 0 && !error) return;
  std::lock_guard<std::mutex> lock(s.mu);
  s.completed += done_local;
  if (error && !s.first_error) s.first_error = error;
  if (s.completed == s.n) s.done_cv.notify_all();
}

/// The process-wide morsel pool. Threads are spawned lazily up to the
/// largest parallelism ever requested and parked on a condition variable
/// between bursts; the pool is joined at static destruction.
class MorselPool {
 public:
  static MorselPool& Instance() {
    static MorselPool pool;
    return pool;
  }

  /// Enqueue `count` helper shares of `state`. Best-effort: helpers
  /// accelerate the caller, which is already running the same claim loop.
  void SubmitHelpers(size_t count, std::shared_ptr<ForState> state) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
      for (size_t i = 0; i < count; ++i) queue_.push_back(state);
      // Spawn lazily, capped at the largest helper count any single call
      // has asked for (one ParallelFor at full parallelism). Concurrent
      // callers share this fixed crew rather than growing it: every caller
      // runs its own claim loop regardless, so an unserved helper share
      // costs throughput fairness, never progress — while sizing threads to
      // queue depth would oversubscribe every core under concurrent load
      // and never retire the surplus.
      max_helpers_ = std::max(max_helpers_, count);
      try {
        while (threads_.size() < max_helpers_ &&
               threads_.size() < queue_.size() + busy_) {
          threads_.emplace_back([this] { WorkerLoop(); });
        }
      } catch (const std::system_error&) {
        // Thread exhaustion: helpers are best-effort, the callers still
        // complete their own work on whatever crew exists.
      }
    }
    cv_.notify_all();
  }

  ~MorselPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
      queue_.clear();
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

 private:
  void WorkerLoop() {
    while (true) {
      std::shared_ptr<ForState> state;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (stopping_) return;
        state = std::move(queue_.front());
        queue_.pop_front();
        ++busy_;
      }
      RunWork(*state);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --busy_;
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<ForState>> queue_;
  std::vector<std::thread> threads_;
  size_t busy_ = 0;
  size_t max_helpers_ = 0;
  bool stopping_ = false;
};

size_t EffectiveParallelism() {
  size_t p = g_parallelism.load(std::memory_order_relaxed);
  if (p == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    p = hw == 0 ? 1 : static_cast<size_t>(hw);
  }
  return p;
}

}  // namespace

size_t MorselParallelism() { return EffectiveParallelism(); }
void SetMorselParallelism(size_t threads) {
  g_parallelism.store(threads, std::memory_order_relaxed);
}

size_t MorselRows() { return g_morsel_rows.load(std::memory_order_relaxed); }
void SetMorselRows(size_t rows) {
  g_morsel_rows.store(rows == 0 ? 1 : rows, std::memory_order_relaxed);
}

void ParallelFor(size_t num_tasks, const std::function<void(size_t)>& fn,
                 const common::CancelToken* cancel) {
  if (num_tasks == 0) return;
  const size_t workers = std::min(num_tasks, EffectiveParallelism());
  if (workers <= 1) {
    for (size_t i = 0; i < num_tasks; ++i) {
      if (common::Fired(cancel)) return;
      fn(i);
    }
    return;
  }
  auto state = std::make_shared<ForState>();
  state->n = num_tasks;
  state->fn = &fn;
  state->cancel = cancel;
  MorselPool::Instance().SubmitHelpers(workers - 1, state);
  RunWork(*state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->completed == state->n; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

std::vector<Range> SplitRanges(size_t n, size_t chunk) {
  if (chunk == 0) chunk = 1;
  std::vector<Range> ranges;
  if (n == 0) return ranges;
  ranges.reserve((n + chunk - 1) / chunk);
  for (size_t begin = 0; begin < n; begin += chunk) {
    ranges.push_back(Range{begin, std::min(begin + chunk, n)});
  }
  return ranges;
}

std::vector<Range> MorselRanges(size_t n) { return SplitRanges(n, MorselRows()); }

size_t AggChunkSize(size_t n, size_t states_per_chunk) {
  // Cap the total partial-state footprint across chunks; ~1<<18 states keeps
  // the common low-cardinality case (dozens of chunks, few groups) fully
  // parallel while collapsing high-cardinality group-bys toward one chunk.
  constexpr size_t kMaxPartialStates = size_t{1} << 18;
  if (states_per_chunk == 0) states_per_chunk = 1;
  size_t chunk = MorselRows();
  while (chunk < n) {
    const size_t num_chunks = (n + chunk - 1) / chunk;
    if (num_chunks * states_per_chunk <= kMaxPartialStates) break;
    chunk *= 2;
  }
  return chunk;
}

}  // namespace parallel
}  // namespace vegaplus
