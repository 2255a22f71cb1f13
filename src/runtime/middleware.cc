#include "runtime/middleware.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/ipc.h"
#include "expr/sql_translator.h"

namespace vegaplus {
namespace runtime {

using rewrite::PreparedHandle;
using rewrite::QueryParam;
using rewrite::QueryRequest;
using rewrite::QueryResponse;
using rewrite::QueryTicket;
using rewrite::QueryTicketPtr;

namespace {

using Clock = std::chrono::steady_clock;
using Deadline = std::optional<Clock::time_point>;

// FNV-1a, for deterministic per-(key, attempt) backoff jitter.
uint64_t HashKey(const std::string& key) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Opaque digest of a cache key, for the hedge attempt's fault-injector
// identity. Fault rules match by *substring*, and every substring of `key`
// is also a substring of "key#1" — so the hedge must not reuse the primary's
// key with a suffix, or rules stalling the primary would stall the hedge
// too and hedging could never win. "hedge:<digest>#1" keeps the hedge
// individually addressable (and all hedges via the "hedge:" prefix) while
// sharing no substring with the primary.
std::string HedgeInjectorKey(const std::string& key) {
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(HashKey(key)));
  return std::string("hedge:") + digest + "#1";
}

// `ms` from now, but never past `deadline`.
Clock::time_point WakeAt(double ms, const Deadline& deadline) {
  const auto delay = std::chrono::duration<double, std::milli>(ms);
  auto wake = Clock::now() + std::chrono::duration_cast<Clock::duration>(delay);
  if (deadline && *deadline < wake) wake = *deadline;
  return wake;
}

// Sleep for `ms`, but never past `deadline`; the caller re-checks the
// deadline afterwards.
void SleepCapped(double ms, const Deadline& deadline) {
  if (ms > 0) std::this_thread::sleep_until(WakeAt(ms, deadline));
}

bool PastDeadline(const Deadline& deadline) {
  return deadline && Clock::now() >= *deadline;
}

bool IsTransient(const Status& st) {
  return st.IsUnavailable() || st.IsIOError();
}

// Modeled server time of one engine execution.
double ExecutionMillis(const sql::ExecStats& stats, const LatencyParams& latency) {
  const size_t rows = stats.rows_processed + stats.rows_scanned;
  return ServerComputeMillis(rows, stats.num_operators, latency);
}

// Capped exponential backoff after failed attempt `attempt`, with
// deterministic jitter in [1 - j/2, 1 + j/2) drawn per (key, attempt) so
// replays back off identically.
double BackoffMs(const RetryPolicy& retry, const std::string& key, size_t attempt) {
  double backoff = retry.initial_backoff_ms *
                   std::pow(retry.backoff_multiplier, static_cast<double>(attempt));
  backoff = std::min(backoff, retry.max_backoff_ms);
  Rng jitter_rng(HashKey(key) ^ (0x9E3779B97F4A7C15ull * (attempt + 1)));
  return backoff * (1.0 + retry.jitter * (jitter_rng.NextDouble() - 0.5));
}

// Runs `f` when the scope exits, whichever way it exits.
template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F f) : f_(std::move(f)) {}
  ~ScopeExit() { f_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  F f_;
};

}  // namespace

SessionStats& SessionStats::operator+=(const SessionStats& other) {
  submitted += other.submitted;
  queries += other.queries;
  client_cache_hits += other.client_cache_hits;
  server_cache_hits += other.server_cache_hits;
  tile_hits += other.tile_hits;
  dbms_executions += other.dbms_executions;
  cancelled += other.cancelled;
  errors += other.errors;
  retries += other.retries;
  deadline_exceeded += other.deadline_exceeded;
  shed += other.shed;
  degraded_responses += other.degraded_responses;
  hedged_requests += other.hedged_requests;
  hedge_wins += other.hedge_wins;
  cancelled_mid_flight += other.cancelled_mid_flight;
  bytes_transferred += other.bytes_transferred;
  return *this;
}

size_t EstimateEncodedBytes(const data::Table& table, bool binary, size_t sample_rows) {
  const size_t n = table.num_rows();
  if (n == 0) {
    return binary ? data::SerializeBinary(table).size()
                  : data::SerializeJsonRows(table).size();
  }
  if (n <= sample_rows) {
    return binary ? data::SerializeBinary(table).size()
                  : data::SerializeJsonRows(table).size();
  }
  data::TablePtr head = table.Head(sample_rows);
  size_t sampled = binary ? data::SerializeBinary(*head).size()
                          : data::SerializeJsonRows(*head).size();
  return static_cast<size_t>(static_cast<double>(sampled) * static_cast<double>(n) /
                             static_cast<double>(sample_rows));
}

// ---- Request stages: shared state ----

struct Middleware::Request {
  Session* session;
  QueryTicket* ticket;
  const sql::PreparedStatement* stmt;
  const std::string& key;
  Deadline deadline;
  /// Cooperative cancellation: one token per request, fired by ticket
  /// cancellation (supersession, client abandon) or by the request deadline.
  /// The engine polls it at morsel checkpoints, so a fired token reclaims
  /// the worker within one morsel instead of after the full scan.
  std::shared_ptr<common::CancelToken> token;
  /// The statement with its parameters bound; the tile tier, the DBMS and
  /// the degraded probe all consume it.
  sql::SelectPtr bound;
};

// Shared state of one hedged execution race. Ownership protocol: only the
// *primary* worker decides the race (by finishing first or by claiming the
// hedge's result); the hedge side only publishes its result. That
// single-writer rule is what makes the first-success claim race-free.
class Middleware::HedgeRace {
 public:
  HedgeRace(Middleware* owner, double threshold_ms,
            std::shared_ptr<common::CancelToken> token)
      : owner_(owner), threshold_ms_(threshold_ms), token_(std::move(token)) {}

  /// Child of the primary's token: the primary abandons a losing hedge
  /// through it without touching its own cancellation state, while a fired
  /// parent (superseded ticket) stops both attempts.
  const std::shared_ptr<common::CancelToken>& token() const { return token_; }

  // ---- Hedge side ----

  /// Wait out the threshold. False when the primary decided first: the
  /// hedge then never starts.
  bool AwaitStart() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, WakeAt(threshold_ms_, std::nullopt), [this] { return decided_; });
    if (!decided_) return true;
    hedge_done_ = true;
    cv_.notify_all();
    return false;
  }

  void Publish(Result<sql::QueryResult> result, double stall_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    stall_ms_ = stall_ms;
    result_.emplace(std::move(result));
    hedge_done_ = true;
    cv_.notify_all();
  }

  // ---- Primary side ----

  /// First-success claim: if the hedge's result already landed, decide the
  /// race for it and adopt it as the request's DBMS answer.
  std::optional<QueryResponse> ClaimWin(const Request& req) {
    sql::QueryResult won;
    double stall_ms = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (decided_ || !result_.has_value() || !result_->ok()) return std::nullopt;
      decided_ = true;
      won = std::move(**result_);
      stall_ms = stall_ms_;
    }
    // A completed duplicate of the same statement: truthful evidence of
    // backend health (and it settles any probe admission the stalled
    // primary still holds).
    owner_->breaker_->RecordSuccess(req.stmt->canonical_sql);
    req.session->Bump(&SessionStats::hedge_wins);
    // The hedge started at the threshold and paid its own injected stall.
    const double server_ms =
        threshold_ms_ + stall_ms + ExecutionMillis(won.stats, owner_->options_.latency);
    return owner_->Respond(won.table, QueryResponse::Source::kDbms, server_ms, /*degraded=*/false);
  }

  /// An injected stall on the primary is where hedges earn their keep:
  /// sleep, but wake the moment the hedge finishes instead of serving out
  /// the full stall.
  void StallFor(double ms, const Deadline& deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, WakeAt(ms, deadline), [this] { return hedge_done_; });
  }

  /// Close the race: a hedge still running is abandoned through its token
  /// and discards its result when it finds the race decided.
  void Settle() {
    std::lock_guard<std::mutex> lock(mu_);
    if (decided_) return;
    decided_ = true;
    token_->Cancel();
    cv_.notify_all();
  }

 private:
  Middleware* const owner_;
  const double threshold_ms_;  // delay before the hedge starts
  const std::shared_ptr<common::CancelToken> token_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool decided_ = false;     // the primary claimed an outcome; the hedge no-ops
  bool hedge_done_ = false;  // the hedge finished (or declined to start)
  std::optional<Result<sql::QueryResult>> result_;
  double stall_ms_ = 0;  // injected stall charged to the hedge attempt
};

// ---- Session ----

Session::Session(Middleware* owner, uint64_t id, size_t cache_capacity,
                 size_t cache_max_result_rows, QueryCache::Policy cache_policy,
                 std::shared_ptr<SessionStatsBlock> stats_block)
    : owner_(owner), id_(id),
      cache_(cache_capacity, cache_max_result_rows, cache_policy),
      stats_block_(std::move(stats_block)) {}

Result<PreparedHandle> Session::Prepare(const std::string& sql_template) {
  return owner_->Prepare(sql_template);
}

QueryTicketPtr Session::Submit(const QueryRequest& request) {
  sql::PreparedPtr stmt = owner_->StatementFor(request.handle);
  if (!stmt) {
    return QueryTicket::Ready(
        Status::InvalidArgument("middleware: unknown prepared handle"),
        request.generation);
  }
  std::string key = Middleware::CacheKeyFor(*stmt, request.params);
  auto ticket = std::make_shared<QueryTicket>(request.generation);
  Bump(&SessionStats::submitted);
  // The deadline is anchored at submit time: queue wait, single-flight wait,
  // backoff — everything counts against it.
  Deadline deadline;
  if (request.deadline_ms > 0) deadline = WakeAt(request.deadline_ms, std::nullopt);

  // Supersession: a newer generation within the same scope makes the older
  // in-flight request dead weight — cancel instead of decoding it. Requests
  // with generation 0 neither supersede nor get superseded. Claiming the
  // scope's slot is atomic with the generation comparison: if a concurrent
  // submit with a newer generation won the race, this request is the
  // superseded one and never runs.
  if (request.generation > 0) {
    const std::pair<uint64_t, PreparedHandle> scope{request.client_id, request.handle};
    bool superseded_on_arrival = false;
    rewrite::QueryTicketPtr displaced;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Occasional sweep so dead scopes (e.g. VDTs of discarded dataflows)
      // do not accumulate for the session's lifetime.
      if (last_ticket_.size() > 64) {
        for (auto it = last_ticket_.begin(); it != last_ticket_.end();) {
          it = it->second.expired() ? last_ticket_.erase(it) : std::next(it);
        }
      }
      auto& slot = last_ticket_[scope];
      rewrite::QueryTicketPtr prev = slot.lock();
      if (prev && !prev->done() && prev->generation() > request.generation) {
        superseded_on_arrival = true;
      } else {
        if (prev && prev->generation() < request.generation) displaced = std::move(prev);
        slot = ticket;
      }
    }
    // A displaced ticket that had not completed now resolves to Cancelled;
    // its queued task accounts for the cancellation when the worker reaches
    // it.
    if (displaced) displaced->Cancel();
    if (superseded_on_arrival) {
      ticket->Cancel();
      Bump(&SessionStats::cancelled);
      return ticket;
    }
  }

  // Tier 1: client cache — a local dictionary lookup, no network at all.
  data::TablePtr cached;
  if (CacheGet(key, &cached)) {
    QueryResponse response;
    response.table = std::move(cached);
    response.latency_millis = 0.05;
    response.bytes = 0;
    response.source = QueryResponse::Source::kClientCache;
    Resolve(*ticket, std::move(response));
    return ticket;
  }

  // The session is charged for the task from submission until a worker picks
  // it up; the count is the fairness signal for shed-the-heaviest admission.
  queued_.fetch_add(1, std::memory_order_relaxed);
  auto task = [owner = owner_, self = shared_from_this(), ticket, stmt,
               params = request.params, key = std::move(key),
               deadline]() mutable {
    self->queued_.fetch_sub(1, std::memory_order_relaxed);
    owner->RunQueryTask(std::move(self), std::move(ticket), std::move(stmt),
                        std::move(params), std::move(key), deadline);
  };
  WorkerPool::Admission admission;
  if (owner_->ShouldBypassQueueBound(this)) {
    // Saturated queue, but a heavier session is responsible: admit past the
    // bound (Submit ignores it) so this client is not punished for someone
    // else's flood. Sheds stay attributed to the saturating session.
    admission = owner_->pool_->Submit(std::move(task))
                    ? WorkerPool::Admission::kAccepted
                    : WorkerPool::Admission::kShutdown;
  } else {
    admission = owner_->pool_->TrySubmit(std::move(task));
  }
  switch (admission) {
    case WorkerPool::Admission::kAccepted:
      break;
    case WorkerPool::Admission::kShed:
      // Bounded queue full: refuse now rather than queue a result the
      // client will receive long after it stopped caring.
      queued_.fetch_sub(1, std::memory_order_relaxed);
      Resolve(*ticket, Status::Unavailable("middleware overloaded: request shed"), /*shed=*/true);
      break;
    case WorkerPool::Admission::kShutdown:
      // Pool already shutting down: no worker will ever run the task, so the
      // ticket must resolve here — otherwise Await would hang forever.
      queued_.fetch_sub(1, std::memory_order_relaxed);
      ticket->Cancel();
      Bump(&SessionStats::cancelled);
      break;
  }
  return ticket;
}

// Stats are recorded once, into the session's shared block; fleet totals
// are computed on read by summing live blocks plus the retired accumulator.
// dbms_executions is counted at execution time (the work happened even when
// the delivery is later turned into a cancellation), so a completion only
// attributes the tier that delivered it.
void Session::Resolve(QueryTicket& ticket, Result<QueryResponse> result, bool shed) {
  const bool delivered = ticket.CommitDelivery();
  {
    std::lock_guard<std::mutex> lock(stats_block_->mu);
    SessionStats& stats = stats_block_->stats;
    if (!delivered) {
      ++stats.cancelled;
    } else if (!result.ok()) {
      // Shed and expired requests are errors (the client got a failure
      // status); their own counters attribute the cause.
      ++stats.errors;
      if (shed) ++stats.shed;
      if (result.status().IsDeadlineExceeded()) ++stats.deadline_exceeded;
    } else {
      ++stats.queries;
      switch (result->source) {
        case QueryResponse::Source::kClientCache:
          ++stats.client_cache_hits;
          break;
        case QueryResponse::Source::kServerCache:
          ++stats.server_cache_hits;
          break;
        case QueryResponse::Source::kTileStore:
          ++stats.tile_hits;
          break;
        case QueryResponse::Source::kStaleCache:
          break;  // attributed via degraded_responses below
        case QueryResponse::Source::kDbms:
          break;  // counted at execution time
      }
      if (result->degraded) ++stats.degraded_responses;
      stats.bytes_transferred += result->bytes;
    }
  }
  ticket.Deliver(std::move(result));
}

void Session::Bump(size_t SessionStats::*counter) {
  std::lock_guard<std::mutex> lock(stats_block_->mu);
  ++(stats_block_->stats.*counter);
}

Session::Stats Session::stats() const {
  std::lock_guard<std::mutex> lock(stats_block_->mu);
  return stats_block_->stats;
}

void Session::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Clear();
}

bool Session::CacheGet(const std::string& key, data::TablePtr* out) {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.Get(key, out);
}

void Session::CachePut(const std::string& key, data::TablePtr table) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Put(key, std::move(table));
}

// ---- Middleware ----

Middleware::Middleware(const sql::Engine* engine, MiddlewareOptions options)
    : engine_(engine), options_(std::move(options)),
      engine_config_(options_.engine_config.value_or(EngineConfig::Current())),
      server_cache_(options_.enable_server_cache ? options_.cache_capacity : 0,
                    options_.cache_max_result_rows, options_.cache_policy),
      stale_cache_(options_.enable_degraded_serving ? options_.stale_cache_capacity : 0,
                   options_.cache_max_result_rows, QueryCache::Policy::kLru),
      breaker_(std::make_unique<CircuitBreaker>(options_.circuit_breaker)),
      pool_(std::make_unique<WorkerPool>(options_.worker_threads,
                                         options_.max_queue_depth)) {
  if (engine_config_.tile_serving) {
    tile_store_ = std::make_unique<tiles::TileStore>(engine_, options_.tile_options);
  }
  if (options_.fault_injection.has_value()) {
    fault_injector_ = std::make_unique<FaultInjector>(*options_.fault_injection);
  }
  default_session_ = CreateSession();
}

// Member destruction order does the work: pool_ is declared last, so the
// workers drain before the registry, caches, and sessions above them die.
Middleware::~Middleware() = default;

void Middleware::Shutdown() { pool_->Shutdown(); }

std::shared_ptr<Session> Middleware::CreateSession() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t client_capacity = options_.enable_client_cache ? options_.cache_capacity : 0;
  auto block = std::make_shared<SessionStatsBlock>();
  auto session = std::shared_ptr<Session>(
      new Session(this, next_session_id_++, client_capacity,
                  options_.cache_max_result_rows, options_.cache_policy, block));
  // Fold and drop dead sessions while we are here (benchmarks create many).
  PruneSessionsLocked();
  sessions_.push_back(SessionSlot{session, std::move(block)});
  ++sessions_created_;
  return session;
}

QueryTicketPtr Middleware::Submit(const QueryRequest& request) {
  return default_session_->Submit(request);
}

Result<PreparedHandle> Middleware::Prepare(const std::string& sql_template) {
  // Parse outside the lock; dedupe on the canonical (formatting-insensitive)
  // form so equivalent templates share one statement and one cache keyspace.
  VP_ASSIGN_OR_RETURN(sql::PreparedPtr stmt, sql::PrepareStatement(sql_template));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_canonical_.find(stmt->canonical_sql);
  if (it != by_canonical_.end()) {
    // Pins stack: deduped Prepares from independent clients each hold one,
    // so no single Release can strand the others.
    StatementEntry& entry = statements_[it->second];
    if (entry.pin_count++ == 0) {
      statement_lru_.erase(entry.lru_it);  // pinned: not a victim
    }
    return it->second;
  }
  const PreparedHandle handle = next_handle_++;
  StatementEntry entry;
  entry.stmt = std::move(stmt);
  entry.pin_count = 1;
  by_canonical_.emplace(entry.stmt->canonical_sql, handle);
  statements_.emplace(handle, std::move(entry));
  ++prepared_statements_created_;
  EvictStatementsLocked();
  return handle;
}

void Middleware::Release(PreparedHandle handle) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = statements_.find(handle);
  if (it == statements_.end() || it->second.pin_count == 0) return;
  if (--it->second.pin_count > 0) return;  // other Prepare holders remain
  // Most-recently-released position: the statement was live until just
  // now, so it outlasts colder released templates before becoming a victim.
  statement_lru_.push_front(handle);
  it->second.lru_it = statement_lru_.begin();
  EvictStatementsLocked();
}

// LRU eviction of unpinned canonical statements from the order list's cold
// end. Pinned entries (live Prepare handles) are not in the list at all, so
// they keep resolving; in-flight requests hold their statement already.
void Middleware::EvictStatementsLocked() {
  const size_t cap = options_.max_prepared_statements;
  if (cap == 0) return;
  while (statements_.size() > cap && !statement_lru_.empty()) {
    auto entry = statements_.find(statement_lru_.back());
    by_canonical_.erase(entry->second.stmt->canonical_sql);
    statements_.erase(entry);
    statement_lru_.pop_back();
  }
}

size_t Middleware::registry_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return statements_.size();
}

sql::PreparedPtr Middleware::StatementFor(PreparedHandle handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = statements_.find(handle);
  return it == statements_.end() ? nullptr : it->second.stmt;
}

std::string Middleware::CacheKeyFor(const sql::PreparedStatement& stmt,
                                    const std::vector<QueryParam>& params) {
  std::string key = stmt.canonical_sql;
  // One segment per declared parameter, in declaration order; values render
  // as SQL literals, so the key is exact and independent of both SQL text
  // formatting and the order params were passed in.
  for (const std::string& name : stmt.params) {
    key += '\x1f';
    key += name;
    key += '=';
    const QueryParam* found = nullptr;
    for (const QueryParam& p : params) {
      if (p.name == name) {
        found = &p;
        break;
      }
    }
    if (found == nullptr) {
      key += "<unbound>";
    } else if (found->value.is_array()) {
      key += '[';
      for (size_t i = 0; i < found->value.array().size(); ++i) {
        if (i > 0) key += ',';
        key += expr::SqlLiteral(found->value.array()[i]);
      }
      key += ']';
    } else {
      key += expr::SqlLiteral(found->value.scalar());
    }
  }
  return key;
}

// A follower parks its worker thread until the leader finishes — acceptable
// at our pool sizes since duplicates collapse within one wave; a per-key
// waiter list resolved in the leader's epilogue would free the thread if
// pools grow large.
bool Middleware::EnterInFlight(const std::string& key, Deadline deadline) {
  std::unique_lock<std::mutex> lock(flight_mu_);
  const auto free = [&] { return in_flight_.count(key) == 0; };
  if (deadline) {
    if (!flight_cv_.wait_until(lock, *deadline, free)) return false;
  } else {
    flight_cv_.wait(lock, free);
  }
  in_flight_.insert(key);
  return true;
}

void Middleware::LeaveInFlight(const std::string& key) {
  {
    std::lock_guard<std::mutex> lock(flight_mu_);
    in_flight_.erase(key);
  }
  flight_cv_.notify_all();
}

// ---- The request path ----

void Middleware::RunQueryTask(std::shared_ptr<Session> session, QueryTicketPtr ticket,
                              sql::PreparedPtr stmt, std::vector<QueryParam> params,
                              std::string key, Deadline deadline) {
  if (!ticket->BeginExecution()) {
    // Cancelled while queued: the ticket already resolved to Cancelled.
    session->Bump(&SessionStats::cancelled);
    return;
  }
  Request req{session.get(), ticket.get(), stmt.get(), key, deadline, nullptr, nullptr};
  req.token = deadline ? std::make_shared<common::CancelToken>(*deadline)
                       : std::make_shared<common::CancelToken>();
  ticket->LinkCancel(req.token);

  // Bind first: a malformed request fails fast without claiming the
  // single-flight slot or touching the fault machinery, and no degraded
  // answer may mask it.
  rewrite::ParamResolver resolver(params);
  Result<sql::SelectPtr> bound = sql::BindStatement(*stmt->stmt, resolver);
  if (bound.ok()) req.bound = *bound;
  Result<QueryResponse> result =
      bound.ok() ? Degrade(req, ServeShared(req)) : Result<QueryResponse>(bound.status());
  if (!result.ok()) {
    const Status& st = result.status();
    result = Status(st.code(), "middleware: " + st.message() + " [" + stmt->canonical_sql + "]");
  }
  session->Resolve(*ticket, std::move(result));
}

// Single-flight: identical concurrent queries execute once; followers wait
// and then resolve from the cache the leader filled. Every exit leaves the
// slot.
Result<QueryResponse> Middleware::ServeShared(Request& req) {
  if (!EnterInFlight(req.key, req.deadline)) {
    // Deadline expired while parked behind the leader.
    return Status::DeadlineExceeded("deadline expired awaiting execution");
  }
  ScopeExit leave([&] { LeaveInFlight(req.key); });

  // Note: a same-session duplicate that completed while this task was
  // queued resolves through the *server* cache below, not the session
  // cache — at submit time the client did not have the result, so the
  // modeled system still pays the round trip and transfer.
  data::TablePtr cached;
  bool server_hit = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    server_hit = server_cache_.Get(req.key, &cached);
  }
  if (server_hit) {
    req.session->CachePut(req.key, cached);
    return Respond(std::move(cached), QueryResponse::Source::kServerCache, 0, /*degraded=*/false);
  }
  if (PastDeadline(req.deadline)) {
    // The deadline gates *starting* backend work; a result that exists
    // already (cache tiers above, degraded below) is still fair game.
    return Status::DeadlineExceeded("deadline expired before execution");
  }
  std::optional<QueryResponse> tile = ProbeTiles(req);
  Result<QueryResponse> fresh =
      tile.has_value() ? Result<QueryResponse>(std::move(*tile)) : RunAttempts(req);
  if (fresh.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      server_cache_.Put(req.key, fresh->table);
      // Archive for degraded serving; unlike the tier above this copy is
      // served (marked stale) even after ClearCaches or under outage.
      stale_cache_.Put(req.key, fresh->table);
    }
    req.session->CachePut(req.key, fresh->table);
  }
  return fresh;
}

std::optional<QueryResponse> Middleware::ProbeTiles(const Request& req) {
  if (tile_store_ == nullptr) return std::nullopt;
  std::optional<tiles::TileAnswer> tile = tile_store_->TryAnswer(*req.bound, req.token.get());
  if (!tile.has_value()) return std::nullopt;
  // Served from the precomputed aggregation tree: the server touches
  // `bins_touched` slots instead of scanning base rows.
  const double server_ms = ServerComputeMillis(tile->bins_touched, 1, options_.latency);
  return Respond(tile->table, QueryResponse::Source::kTileStore, server_ms, /*degraded=*/false);
}

// The DBMS attempts. Measured wall-clock time from the first attempt to the
// answer (a hedge win included) feeds the statement's hedge threshold:
// timers wait on measured time; modeled time is only reported.
Result<QueryResponse> Middleware::RunAttempts(Request& req) {
  const auto started = Clock::now();
  std::shared_ptr<HedgeRace> race = LaunchHedge(req);
  ScopeExit settle([&race] { if (race != nullptr) race->Settle(); });
  Result<QueryResponse> result = AttemptLoop(req, race.get());
  if (!result.ok() && race != nullptr) {
    // Last look before giving up: a hedge that finished while the primary
    // was failing is a completed result — deliver it, don't waste it.
    if (std::optional<QueryResponse> won = race->ClaimWin(req)) result = std::move(*won);
  }
  if (result.ok()) {
    const std::chrono::duration<double, std::milli> measured = Clock::now() - started;
    RecordDbmsLatency(req.stmt->canonical_sql, measured.count());
    req.session->Bump(&SessionStats::dbms_executions);
  }
  return result;
}

// Retry transient failures under the breaker, adopting the hedge's answer
// the moment it lands.
Result<QueryResponse> Middleware::AttemptLoop(Request& req, HedgeRace* race) {
  const std::string& scope = req.stmt->canonical_sql;
  const size_t max_attempts = std::max<size_t>(1, options_.retry.max_attempts);
  double stall_ms = 0;  // injected stalls, charged as server time
  for (size_t attempt = 0;; ++attempt) {
    if (race != nullptr) {
      if (std::optional<QueryResponse> won = race->ClaimWin(req)) return std::move(*won);
    }
    bool admitted_as_probe = false;
    if (!breaker_->Admit(scope, &admitted_as_probe)) {
      // Fast fail: a known-dead statement should not burn this worker.
      return Status::Unavailable("circuit breaker open for statement");
    }
    if (options_.before_dbms_execute) options_.before_dbms_execute(req.key);
    const Status injected = InjectFault(req.key, req.deadline, race, &stall_ms);
    if (race != nullptr) {
      // The hedge's RecordSuccess settles this attempt's probe admission.
      if (std::optional<QueryResponse> won = race->ClaimWin(req)) return std::move(*won);
    }
    if (PastDeadline(req.deadline)) {
      // No outcome will ever be recorded for this admission; a held
      // half-open probe slot must be released or the breaker wedges.
      if (admitted_as_probe) breaker_->AbandonProbe(scope);
      return Status::DeadlineExceeded("deadline expired before DBMS execution");
    }
    common::QueryContext ctx{req.token};
    Result<sql::QueryResult> result =
        injected.ok() ? engine_->Execute(*req.bound, &ctx) : Result<sql::QueryResult>(injected);
    if (result.ok()) {
      breaker_->RecordSuccess(scope);
      const double server_ms = ExecutionMillis(result->stats, options_.latency) + stall_ms;
      return Respond(result->table, QueryResponse::Source::kDbms, server_ms, /*degraded=*/false);
    }
    const Status& st = result.status();
    if (st.IsCancelled() || st.IsDeadlineExceeded()) {
      // Cooperative abort at a morsel checkpoint: the engine stopped
      // because *this request* was cancelled or out of time, which says
      // nothing about backend health — release any probe slot, never
      // record a breaker failure, never retry. Only the deadline flavor
      // may degrade: an explicit cancel means nobody wants any answer.
      if (admitted_as_probe) breaker_->AbandonProbe(scope);
      req.session->Bump(&SessionStats::cancelled_mid_flight);
      return st;
    }
    if (!IsTransient(st)) {
      // Logic error (parse/type/plan): retrying cannot help, and a
      // degraded response would mask a real bug. Surface it as-is. It
      // says nothing about backend health either way, so a probe that
      // drew one releases its slot instead of recording an outcome.
      if (admitted_as_probe) breaker_->AbandonProbe(scope);
      return st;
    }
    breaker_->RecordFailure(scope);
    // Out of attempts, or superseded mid-retry: a result nobody awaits is
    // dead weight, never worth another attempt.
    if (req.ticket->cancel_requested() || attempt + 1 >= max_attempts) return st;
    req.session->Bump(&SessionStats::retries);
    SleepCapped(BackoffMs(options_.retry, req.key, attempt), req.deadline);
    if (PastDeadline(req.deadline)) {
      return Status::DeadlineExceeded("deadline expired during retry backoff");
    }
  }
}

// Hedged request: past the statement's observed tail threshold, launch one
// duplicate attempt on another worker and take the first success. TrySubmit
// only — under queue saturation the hedge is shed rather than amplifying
// the overload. The hedge bypasses single-flight by design: it *is* the
// deliberate duplicate.
std::shared_ptr<Middleware::HedgeRace> Middleware::LaunchHedge(const Request& req) {
  const double threshold_ms = HedgeThresholdMs(req.stmt->canonical_sql);
  if (threshold_ms < 0) return nullptr;
  auto race = std::make_shared<HedgeRace>(
      this, threshold_ms, std::make_shared<common::CancelToken>(req.token, req.deadline));
  auto hedge = [this, race, stmt = req.bound, key = HedgeInjectorKey(req.key),
                deadline = req.deadline] {
    if (!race->AwaitStart()) return;  // the primary finished inside the threshold
    double stall_ms = 0;
    const Status injected = InjectFault(key, deadline, nullptr, &stall_ms);
    common::QueryContext ctx{race->token()};
    Result<sql::QueryResult> result =
        injected.ok() ? engine_->Execute(*stmt, &ctx) : Result<sql::QueryResult>(injected);
    race->Publish(std::move(result), stall_ms);
  };
  if (pool_->TrySubmit(std::move(hedge)) != WorkerPool::Admission::kAccepted) {
    return nullptr;  // pool saturated or shutting down: no hedge
  }
  req.session->Bump(&SessionStats::hedged_requests);
  return race;
}

// Degraded fallback for a failure of fresh execution — a transient backend
// error, an open breaker, an expired deadline: an archived stale result for
// this exact key, else the same shape answered from a coarser already-built
// tile level. Logic errors surface as-is, and a cancelled request wants no
// answer at all.
Result<QueryResponse> Middleware::Degrade(const Request& req, Result<QueryResponse> result) {
  if (result.ok() || !options_.enable_degraded_serving) return result;
  const Status& st = result.status();
  if ((!IsTransient(st) && !st.IsDeadlineExceeded()) || req.ticket->cancel_requested()) {
    return result;
  }
  data::TablePtr stale;
  bool have_stale = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    have_stale = stale_cache_.Get(req.key, &stale);
  }
  if (have_stale) {
    // No server compute: the archived bytes just cross the wire.
    return Respond(std::move(stale), QueryResponse::Source::kStaleCache, 0, /*degraded=*/true);
  }
  if (tile_store_ == nullptr) return result;
  std::optional<tiles::TileAnswer> tile = tile_store_->TryAnswerCoarser(*req.bound);
  if (!tile.has_value()) return result;
  const double server_ms = ServerComputeMillis(tile->bins_touched, 1, options_.latency);
  return Respond(tile->table, QueryResponse::Source::kTileStore, server_ms, /*degraded=*/true);
}

QueryResponse Middleware::Respond(data::TablePtr table, QueryResponse::Source source,
                                  double server_ms, bool degraded) const {
  QueryResponse response;
  response.bytes = EstimateEncodedBytes(*table, options_.binary_encoding);
  response.latency_millis =
      server_ms + TransferMillis(response.bytes, options_.binary_encoding, options_.latency);
  response.table = std::move(table);
  response.source = source;
  response.degraded = degraded;
  return response;
}

Status Middleware::InjectFault(const std::string& key, const Deadline& deadline,
                               HedgeRace* race, double* stall_ms) const {
  if (fault_injector_ == nullptr) return Status::OK();
  FaultDecision fate = fault_injector_->OnDbmsExecute(key);
  if (fate.stall_ms > 0) {
    // Real sleep capped at the deadline; the *full* stall is still charged
    // as simulated latency (the modeled backend was slow).
    *stall_ms += fate.stall_ms;
    if (race != nullptr) {
      race->StallFor(fate.stall_ms, deadline);
    } else {
      SleepCapped(fate.stall_ms, deadline);
    }
  }
  return fate.fail ? fate.status : Status::OK();
}

// At a saturated queue the shed should land on whoever is flooding it. A
// session bypasses the bound iff some *other* live session has strictly more
// tasks queued — the strict compare makes the heaviest (and every session
// tied for heaviest) shed, so with a single submitter the behavior is
// exactly the legacy bound, and rejected_count() still equals sheds.
bool Middleware::ShouldBypassQueueBound(const Session* session) const {
  const size_t bound = options_.max_queue_depth;
  if (bound == 0 || pool_->queue_depth() < bound) return false;
  // The caller has already counted the request being admitted in queued();
  // exclude it so the comparison reflects backlog, not the decision itself.
  const size_t mine = session->queued() - 1;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& slot : sessions_) {
    auto other = slot.session.lock();
    if (!other || other.get() == session) continue;
    if (other->queued() > mine) return true;
  }
  return false;
}

double Middleware::HedgeThresholdMs(const std::string& scope) const {
  const HedgePolicy& hp = options_.hedge;
  if (!hp.enabled) return -1;
  if (hp.fixed_threshold_ms > 0) {
    return std::max(hp.fixed_threshold_ms, hp.min_threshold_ms);
  }
  double p95;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = latency_rings_.find(scope);
    if (it == latency_rings_.end() || it->second.count < hp.min_samples) {
      return -1;  // not enough observations to know this statement's tail
    }
    const LatencyRing& ring = it->second;
    std::vector<double> samples(ring.samples, ring.samples + ring.count);
    size_t idx = (samples.size() * 95) / 100;
    if (idx >= samples.size()) idx = samples.size() - 1;
    std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                     samples.end());
    p95 = samples[idx];
  }
  return std::max(hp.min_threshold_ms, hp.latency_factor * p95);
}

void Middleware::RecordDbmsLatency(const std::string& scope, double ms) {
  // Rings exist to drive the observed-p95 threshold; with hedging off or on
  // a fixed threshold they would be dead weight per statement.
  if (!options_.hedge.enabled || options_.hedge.fixed_threshold_ms > 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  LatencyRing& ring = latency_rings_[scope];
  ring.samples[ring.next] = ms;
  ring.next = (ring.next + 1) % LatencyRing::kCapacity;
  if (ring.count < LatencyRing::kCapacity) ++ring.count;
}

void Middleware::PruneSessionsLocked() const {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (it->session.expired()) {
      // The block outlives the session (the slot holds it), so a retired
      // session's history folds in atomically — totals never dip. Keep the
      // block alive past the erase: destroying it while block_lock still
      // holds its mutex would unlock a dead mutex.
      std::shared_ptr<SessionStatsBlock> block = std::move(it->stats);
      {
        std::lock_guard<std::mutex> block_lock(block->mu);
        retired_stats_ += block->stats;
      }
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

Middleware::Stats Middleware::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  PruneSessionsLocked();
  Stats out;
  static_cast<SessionStats&>(out) = retired_stats_;
  for (const auto& slot : sessions_) {
    std::lock_guard<std::mutex> block_lock(slot.stats->mu);
    out += slot.stats->stats;
  }
  out.breaker_open = breaker_->open_transitions() - breaker_open_baseline_;
  out.prepared_statements = prepared_statements_created_;
  out.sessions = sessions_created_;
  return out;
}

void Middleware::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  PruneSessionsLocked();
  retired_stats_ = SessionStats();
  for (const auto& slot : sessions_) {
    std::lock_guard<std::mutex> block_lock(slot.stats->mu);
    slot.stats->stats = SessionStats();
  }
  // sessions_created_ / prepared_statements_created_ describe registry
  // state, not traffic; they survive a reset (as before).
  breaker_open_baseline_ = breaker_->open_transitions();
}

void Middleware::ClearCaches() {
  std::vector<std::shared_ptr<Session>> live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // stale_cache_ deliberately survives: it is the degraded-serving
    // reserve, not a freshness tier.
    server_cache_.Clear();
    for (const auto& slot : sessions_) {
      if (auto s = slot.session.lock()) live.push_back(std::move(s));
    }
  }
  for (const auto& s : live) s->ClearCache();
}

}  // namespace runtime
}  // namespace vegaplus
