// QueryService: what a VDT talks to. The runtime module's Middleware /
// Session implement this (cache -> network -> DBMS); tests can stub it.
//
// The contract is session-oriented and asynchronous:
//   * Prepare(template) parses the SQL template once and returns a
//     PreparedHandle; the statement identity is formatting-insensitive.
//   * Submit(QueryRequest{handle, params, generation}) returns a future-like
//     QueryTicket immediately; Await() blocks for the response, Cancel()
//     abandons it. A newer generation submitted for the same handle within a
//     session supersedes (cancels) the older in-flight request.
// There is no string execution path: a one-off query is a parameterless
// template, prepared once and submitted.
#ifndef VEGAPLUS_REWRITE_QUERY_SERVICE_H_
#define VEGAPLUS_REWRITE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/result.h"
#include "data/table.h"
#include "expr/evaluator.h"

namespace vegaplus {
namespace rewrite {

/// \brief Outcome of one query round trip, as observed by the client.
struct QueryResponse {
  data::TablePtr table;
  /// Simulated end-to-end latency of this request (server + network +
  /// decode), in milliseconds.
  double latency_millis = 0;
  /// Encoded payload size that crossed the wire.
  size_t bytes = 0;
  /// Which tier answered (client cache / middleware cache / middleware tile
  /// store / DBMS / the stale-result archive on a degraded serve).
  enum class Source {
    kClientCache,
    kServerCache,
    kTileStore,
    kStaleCache,
    kDbms
  } source = Source::kDbms;
  /// True when the middleware could not produce the exact fresh answer in
  /// time (backend outage, open circuit breaker, expired deadline) and served
  /// a bounded-latency substitute instead: a stale-but-previously-exact
  /// cached result (kStaleCache) or a coarser precomputed tile level
  /// (kTileStore). Clients should render it but may mark it provisional.
  bool degraded = false;
};

/// Opaque id of a prepared statement within one QueryService (0 = invalid).
using PreparedHandle = uint64_t;

/// \brief One bound parameter of a Submit call.
struct QueryParam {
  std::string name;
  expr::EvalValue value;

  bool operator==(const QueryParam& other) const {
    return name == other.name && value == other.value;
  }
  bool operator!=(const QueryParam& other) const { return !(*this == other); }
};

/// \brief An asynchronous query submission.
struct QueryRequest {
  PreparedHandle handle = 0;
  std::vector<QueryParam> params;
  /// Client-side interaction generation. Within one session, submitting a
  /// newer generation for the same supersession scope cancels the older
  /// in-flight request (its work is superseded; decoding it would be
  /// wasted). Generation 0 opts out entirely (independent submissions).
  uint64_t generation = 0;
  /// Supersession scope: requests relate only when they come from the same
  /// submitter (e.g. one VDT — distinct VDTs that happen to share a
  /// deduplicated statement must not cancel each other). 0 scopes by
  /// statement handle alone.
  uint64_t client_id = 0;
  /// Soft deadline in wall-clock milliseconds from Submit, 0 = none. The
  /// service stops *starting* backend work (DBMS execution, retries, backoff
  /// sleeps) once the deadline passes and resolves the ticket — with a
  /// degraded response when one is available, else kDeadlineExceeded. Work
  /// that already completed is still delivered (and cached), never wasted.
  double deadline_ms = 0;
};

/// \brief Future-like handle for one submitted query.
///
/// Thread-safe. Produced by QueryService::Submit; resolved by the service
/// (possibly on a worker thread) via BeginExecution()/CommitDelivery()/
/// Deliver().
class QueryTicket {
 public:
  QueryTicket() = default;
  explicit QueryTicket(uint64_t generation) : generation_(generation) {}

  /// Block until the response (or error / cancellation) is available.
  Result<QueryResponse> Await();

  /// Bounded wait: like Await() but gives up after `timeout`, returning
  /// kDeadlineExceeded. The timeout does NOT cancel the in-flight work — the
  /// request keeps executing and a later Await()/Await(timeout) call can
  /// still pick up the eventual result. Callers that want to abandon the
  /// work as well should Cancel() after the timeout.
  Result<QueryResponse> Await(std::chrono::milliseconds timeout);

  /// Request cancellation. A ticket cancelled before execution starts never
  /// touches the DBMS; one cancelled mid-execution still resolves to
  /// Status::Cancelled (the result is discarded, never delivered). Returns
  /// false when the ticket had already completed.
  bool Cancel();

  bool done() const;
  bool cancel_requested() const;
  uint64_t generation() const { return generation_; }

  // ---- Service-side API ----

  /// Immediately resolved ticket (cache hits, synchronous adapters).
  static std::shared_ptr<QueryTicket> Ready(Result<QueryResponse> response,
                                            uint64_t generation = 0);

  /// Mark the ticket as executing. Returns false when cancellation was
  /// requested first — the service must then skip execution (the ticket
  /// resolves to Cancelled).
  bool BeginExecution();

  /// Resolution is two-step so services can account for the outcome
  /// *before* the awaiting client wakes up (stats must never lag a
  /// delivered response):
  ///
  ///   bool delivered = ticket->CommitDelivery();  // freeze the outcome
  ///   ... record stats for delivered / cancelled ...
  ///   ticket->Deliver(std::move(response));       // publish + notify
  ///
  /// CommitDelivery returns false when a cancellation requested
  /// mid-execution wins: Deliver will then publish Status::Cancelled
  /// instead of the response. After CommitDelivery, Cancel() can no longer
  /// change the outcome.
  bool CommitDelivery();
  void Deliver(Result<QueryResponse> response);

  /// Attach the cooperative cancellation token of the execution serving this
  /// ticket. From then on, Cancel() also fires the token, so a superseded or
  /// abandoned request stops *running* at the engine's next morsel
  /// checkpoint instead of merely having its result discarded. If
  /// cancellation was already requested, the token fires immediately.
  void LinkCancel(std::shared_ptr<common::CancelToken> token);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  bool cancel_requested_ = false;
  bool executing_ = false;
  bool delivery_decided_ = false;
  bool deliver_response_ = false;  // valid once delivery_decided_
  uint64_t generation_ = 0;
  Result<QueryResponse> response_{QueryResponse{}};
  /// Fired by Cancel() once linked; lets cancellation reach into a running
  /// engine execution instead of only racing its delivery.
  std::shared_ptr<common::CancelToken> cancel_token_;
};

using QueryTicketPtr = std::shared_ptr<QueryTicket>;

/// \brief Interface VDTs use to run SQL "remotely".
///
/// Implementations provide the session API: Prepare (parse a SQL template
/// once, return a handle) and Submit (bind parameters, return a ticket).
class QueryService {
 public:
  virtual ~QueryService() = default;

  /// Parse `sql_template` once; returns a handle for Submit. Statement
  /// identity should be formatting-insensitive where the implementation can
  /// afford it (the runtime Middleware canonicalizes the parsed AST).
  virtual Result<PreparedHandle> Prepare(const std::string& sql_template) = 0;

  /// Submit a prepared query with bound parameters; returns a future-like
  /// ticket immediately. Implementations are free to resolve it
  /// synchronously (QueryTicket::Ready).
  virtual QueryTicketPtr Submit(const QueryRequest& request) = 0;
};

/// Resolver view over a Submit call's bound parameters.
class ParamResolver : public expr::SignalResolver {
 public:
  explicit ParamResolver(const std::vector<QueryParam>& params) : params_(params) {}
  bool Lookup(const std::string& name, expr::EvalValue* out) const override {
    for (const QueryParam& p : params_) {
      if (p.name == name) {
        *out = p.value;
        return true;
      }
    }
    return false;
  }

 private:
  const std::vector<QueryParam>& params_;
};

}  // namespace rewrite
}  // namespace vegaplus

#endif  // VEGAPLUS_REWRITE_QUERY_SERVICE_H_
