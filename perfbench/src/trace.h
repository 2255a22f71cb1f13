// Benchmark-side tracing: an in-memory span store and a QueryService
// decorator that times every VDT request from outside the library.
//
// The recorded hierarchy (a span's self time is its duration minus the part
// of that interval its child spans cover):
//
//   rewrite.build                      PlanBuilder::Build of one session
//     runtime.prepare                  Session::Prepare of one VDT template
//   dataflow.render | dataflow.pulse   Dataflow::Run | Dataflow::Update
//     runtime.request                  Submit -> ticket completion
//       sql.execute                    before_dbms_execute -> completion
//
// TracingService wraps one runtime::Session. Submit forwards at once, so the
// prefetches of one dataflow wave still overlap, and hands the ticket to a
// watcher thread that awaits it and stamps the completion. The split between
// middleware and engine comes from MiddlewareOptions::before_dbms_execute,
// which reports the cache key of the request about to run on the engine;
// DbmsStartLog attributes it to the oldest outstanding request with that key.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rewrite/query_service.h"
#include "sql/prepared.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Interval = std::pair<Clock::time_point, Clock::time_point>;

inline double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// One timed interval at a layer boundary.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t id = 0;
  int64_t parent = -1;   ///< -1 for roots
  int64_t request = -1;  ///< shared by the spans of one request or pulse
};

/// Thread-safe in-memory span store, written out once when the run ends.
class Tracer {
 public:
  int64_t NewId();
  void Add(Span span);
  std::vector<Span> spans() const;

  /// One JSON object per line, times in ms since `origin`.
  bool WriteJsonLines(const std::string& path, Clock::time_point origin) const;

 private:
  mutable std::mutex mu_;
  int64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Length of the union of `intervals` clipped to [lo, hi], in ms.
double CoveredMs(std::vector<Interval> intervals, Clock::time_point lo, Clock::time_point hi);

/// Per span name: span count, total duration, and self time.
struct SelfTime {
  size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SelfTime> SelfTimes(const std::vector<Span>& spans);

/// What the traced run learns about one VDT request.
struct RequestRecord {
  int64_t id = 0;       ///< span id of the request
  int64_t parent = -1;  ///< span id of the pulse or build that submitted it
  std::string sql_template;
  std::vector<vegaplus::rewrite::QueryParam> params;
  std::string key;  ///< the middleware's cache key of the request
  Clock::time_point submit;
  Clock::time_point dbms_start;  ///< valid when reached_dbms
  Clock::time_point done;
  bool reached_dbms = false;
  bool ok = false;
};

/// Attributes before_dbms_execute callbacks to the requests that caused them.
class DbmsStartLog {
 public:
  /// The callback to install as MiddlewareOptions::before_dbms_execute. It
  /// refers to this log, which must outlive the middleware.
  std::function<void(const std::string&)> Hook();
  /// Off until enabled, so an untraced phase pays one atomic load per
  /// engine execution.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  void Expect(const std::shared_ptr<RequestRecord>& record);
  void Forget(const RequestRecord& record);
  /// Engine executions no outstanding request claimed (retries, or a cache
  /// key format this file no longer mirrors).
  size_t unmatched() const;

 private:
  void OnDbmsExecute(const std::string& key);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::deque<std::shared_ptr<RequestRecord>>> open_;
  size_t unmatched_ = 0;
};

/// QueryService decorator over one session; see the file comment. Driven
/// from one client thread.
class TracingService : public vegaplus::rewrite::QueryService {
 public:
  TracingService(vegaplus::rewrite::QueryService* inner, DbmsStartLog* dbms_log,
                 Tracer* tracer);
  ~TracingService() override;
  TracingService(const TracingService&) = delete;
  TracingService& operator=(const TracingService&) = delete;

  vegaplus::Result<vegaplus::rewrite::PreparedHandle> Prepare(
      const std::string& sql_template) override;
  vegaplus::rewrite::QueryTicketPtr Submit(
      const vegaplus::rewrite::QueryRequest& request) override;

  /// Span that requests submitted from now on are children of.
  void set_parent(int64_t span) { parent_ = span; }
  /// Join every watcher; afterwards the records of all requests submitted
  /// so far are final.
  void Drain();
  const std::vector<std::shared_ptr<RequestRecord>>& records() const { return records_; }

 private:
  struct Statement {
    std::string sql_template;
    vegaplus::sql::PreparedPtr parsed;
  };

  vegaplus::rewrite::QueryService* inner_;
  DbmsStartLog* dbms_log_;
  Tracer* tracer_;
  int64_t parent_ = -1;
  std::unordered_map<vegaplus::rewrite::PreparedHandle, Statement> statements_;
  std::vector<std::shared_ptr<RequestRecord>> records_;
  std::vector<std::thread> watchers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
