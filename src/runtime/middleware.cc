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
#include "expr/kernels/kernels.h"
#include "expr/sql_translator.h"
#include "storage/stats.h"

namespace vegaplus {
namespace runtime {

using rewrite::PreparedHandle;
using rewrite::QueryParam;
using rewrite::QueryRequest;
using rewrite::QueryResponse;
using rewrite::QueryTicket;
using rewrite::QueryTicketPtr;

namespace {

using Deadline = std::optional<std::chrono::steady_clock::time_point>;

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

// Shared state of one hedged execution race. Ownership protocol: only the
// *primary* worker sets `decided` (by finishing first or by adopting the
// hedge's result); the hedge side only publishes hedge_started/hedge_done/
// hedge_result. That single-writer rule is what makes the first-success
// claim race-free.
struct HedgeRace {
  std::mutex mu;
  std::condition_variable cv;
  bool decided = false;        // primary claimed an outcome; hedge no-ops
  bool hedge_started = false;  // hedge began backend work
  bool hedge_done = false;     // hedge finished (or declined to start)
  std::optional<Result<sql::QueryResult>> hedge_result;
  double hedge_fault_ms = 0;   // injected stall charged to the hedge attempt
  double threshold_ms = 0;     // delay before the hedge starts
  /// Child of the primary's token: the primary abandons a losing hedge
  /// through it without touching its own cancellation state, while a fired
  /// parent (superseded ticket) stops both attempts.
  std::shared_ptr<common::CancelToken> hedge_token;
};

// Sum `from` into `into`, field by field.
void Accumulate(SessionStats* into, const SessionStats& from) {
  into->submitted += from.submitted;
  into->queries += from.queries;
  into->client_cache_hits += from.client_cache_hits;
  into->server_cache_hits += from.server_cache_hits;
  into->tile_hits += from.tile_hits;
  into->dbms_executions += from.dbms_executions;
  into->cancelled += from.cancelled;
  into->errors += from.errors;
  into->retries += from.retries;
  into->deadline_exceeded += from.deadline_exceeded;
  into->shed += from.shed;
  into->degraded_responses += from.degraded_responses;
  into->hedged_requests += from.hedged_requests;
  into->hedge_wins += from.hedge_wins;
  into->cancelled_mid_flight += from.cancelled_mid_flight;
  into->bytes_transferred += from.bytes_transferred;
  into->total_latency_ms += from.total_latency_ms;
}

// Sleep for `ms`, but never past `deadline`; the caller re-checks the
// deadline afterwards.
void SleepCapped(double ms, const Deadline& deadline) {
  if (ms <= 0) return;
  auto wake = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double, std::milli>(ms));
  if (deadline && *deadline < wake) wake = *deadline;
  std::this_thread::sleep_until(wake);
}

bool PastDeadline(const Deadline& deadline) {
  return deadline && std::chrono::steady_clock::now() >= *deadline;
}

bool IsTransient(const Status& st) {
  return st.IsUnavailable() || st.IsIOError();
}

}  // namespace

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

// ---- Session ----

Session::Session(Middleware* owner, uint64_t id, size_t cache_capacity,
                 size_t cache_max_result_rows, QueryCache::Policy cache_policy,
                 std::shared_ptr<SessionStatsBlock> stats_block)
    : owner_(owner), id_(id),
      cache_(cache_capacity, cache_max_result_rows, cache_policy),
      stats_block_(std::move(stats_block)) {}

Result<QueryResponse> Session::Execute(const std::string& sql) {
  // Transient registration: ad-hoc literal-inlined SQL must not pin a
  // registry entry forever (legacy clients issue unbounded distinct
  // strings). The transient reference keeps the statement resolvable until
  // this call's submission finishes, then the entry becomes evictable.
  auto handle = owner_->PrepareShared(sql, /*pin=*/false);
  if (!handle.ok()) {
    return Status(handle.status().code(),
                  "middleware: " + handle.status().message() + " [" + sql + "]");
  }
  QueryRequest request;
  request.handle = *handle;
  Result<QueryResponse> response = Submit(request)->Await();
  owner_->ReleaseTransient(*handle);
  return response;
}

Result<PreparedHandle> Session::Prepare(const std::string& sql_template) {
  return owner_->PrepareShared(sql_template, /*pin=*/true);
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
  {
    std::lock_guard<std::mutex> lock(stats_block_->mu);
    ++stats_block_->stats.submitted;
  }
  // The deadline is anchored at submit time: queue wait, single-flight wait,
  // backoff — everything counts against it.
  Deadline deadline;
  if (request.deadline_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double, std::milli>(request.deadline_ms));
  }

  // Supersession: a newer generation within the same scope makes the older
  // in-flight request dead weight — cancel instead of decoding it. Sync
  // Execute() calls (generation 0) neither supersede nor get superseded.
  // Claiming the scope's slot is atomic with the generation comparison: if a
  // concurrent submit with a newer generation won the race, this request is
  // the superseded one and never runs.
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
      owner_->RecordCancelled(this);
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
    if (ticket->CommitDelivery()) {
      owner_->RecordCompletion(this, response);
    } else {
      owner_->RecordCancelled(this);
    }
    ticket->Deliver(std::move(response));
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
      if (ticket->CommitDelivery()) {
        owner_->RecordShed(this);
      } else {
        owner_->RecordCancelled(this);
      }
      ticket->Deliver(
          Status::Unavailable("middleware overloaded: request shed"));
      break;
    case WorkerPool::Admission::kShutdown:
      // Pool already shutting down: no worker will ever run the task, so the
      // ticket must resolve here — otherwise Await would hang forever.
      queued_.fetch_sub(1, std::memory_order_relaxed);
      ticket->Cancel();
      owner_->RecordCancelled(this);
      break;
  }
  return ticket;
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
  // Storage counters are process-wide; rebase on construction so this
  // middleware reports only its own lifetime's activity.
  storage_chunks_pruned_baseline_ = storage::ChunksPruned();
  storage_morsels_pruned_baseline_ = storage::MorselsPruned();
  storage_chunks_paged_in_baseline_ = storage::ChunksPagedIn();
  kernel_bitmap_selections_baseline_ = kernels::BitmapSelections();
  kernel_index_selections_baseline_ = kernels::IndexSelections();
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

Result<QueryResponse> Middleware::Execute(const std::string& sql) {
  return default_session_->Execute(sql);
}

Result<PreparedHandle> Middleware::Prepare(const std::string& sql_template) {
  return PrepareShared(sql_template, /*pin=*/true);
}

QueryTicketPtr Middleware::Submit(const QueryRequest& request) {
  return default_session_->Submit(request);
}

Result<PreparedHandle> Middleware::PrepareShared(const std::string& sql_template,
                                                 bool pin) {
  // Parse outside the lock; dedupe on the canonical (formatting-insensitive)
  // form so equivalent templates share one statement and one cache keyspace.
  VP_ASSIGN_OR_RETURN(sql::PreparedPtr stmt, sql::PrepareStatement(sql_template));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_canonical_.find(stmt->canonical_sql);
  if (it != by_canonical_.end()) {
    StatementEntry& entry = statements_[it->second];
    if (pin) {
      // Pins stack: deduped Prepares from independent clients each hold
      // one, so no single Release can strand the others.
      if (entry.pin_count++ == 0) {
        statement_lru_.erase(entry.lru_it);  // pinned: not a victim
      }
    } else if (entry.pin_count == 0) {
      statement_lru_.splice(statement_lru_.begin(), statement_lru_, entry.lru_it);
    }
    if (!pin) ++entry.transient_uses;
    return it->second;
  }
  const PreparedHandle handle = next_handle_++;
  StatementEntry entry;
  entry.stmt = std::move(stmt);
  entry.pin_count = pin ? 1 : 0;
  entry.transient_uses = pin ? 0 : 1;
  if (!pin) {
    statement_lru_.push_front(handle);
    entry.lru_it = statement_lru_.begin();
  }
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
  // Most-recently-used position: the statement was live until just now, so
  // it outlasts colder ad-hoc churn before becoming a victim.
  statement_lru_.push_front(handle);
  it->second.lru_it = statement_lru_.begin();
  EvictStatementsLocked();
}

void Middleware::ReleaseTransient(PreparedHandle handle) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = statements_.find(handle);
  if (it == statements_.end()) return;
  if (it->second.transient_uses > 0) --it->second.transient_uses;
  EvictStatementsLocked();
}

// LRU eviction of unreferenced canonical statements, walking the order list
// from its cold end. Pinned entries (public Prepare handles, finitely many
// templates by design) are not in the list at all, and entries with an
// in-flight transient use are skipped, so live handles keep resolving;
// everything else — the ad-hoc Execute churn — is bounded by the cap.
void Middleware::EvictStatementsLocked() {
  const size_t cap = options_.max_prepared_statements;
  if (cap == 0) return;
  auto it = statement_lru_.end();
  while (statements_.size() > cap && it != statement_lru_.begin()) {
    --it;
    auto entry = statements_.find(*it);
    if (entry->second.transient_uses > 0) continue;  // in flight: skip
    by_canonical_.erase(entry->second.stmt->canonical_sql);
    statements_.erase(entry);
    it = statement_lru_.erase(it);  // next loop steps back past the gap
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
bool Middleware::EnterInFlight(const std::string& key,
                               std::optional<std::chrono::steady_clock::time_point>
                                   deadline) {
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

void Middleware::RunQueryTask(std::shared_ptr<Session> session, QueryTicketPtr ticket,
                              sql::PreparedPtr stmt, std::vector<QueryParam> params,
                              std::string key, Deadline deadline) {
  if (!ticket->BeginExecution()) {
    // Cancelled while queued: the ticket already resolved to Cancelled.
    RecordCancelled(session.get());
    return;
  }

  // Cooperative cancellation: one token per request, fired by ticket
  // cancellation (supersession, client abandon) or by the request deadline.
  // The engine polls it at morsel checkpoints, so a fired token reclaims
  // this worker within one morsel instead of after the full scan.
  std::shared_ptr<common::CancelToken> token;
  if (engine_config_.cooperative_cancel) {
    token = deadline.has_value()
                ? std::make_shared<common::CancelToken>(*deadline)
                : std::make_shared<common::CancelToken>();
    ticket->LinkCancel(token);
  }

  auto deliver_error = [&](const Status& st) {
    if (ticket->CommitDelivery()) {
      RecordError(session.get(), st);
    } else {
      RecordCancelled(session.get());
    }
    ticket->Deliver(Status(st.code(), "middleware: " + st.message() + " [" +
                                          stmt->canonical_sql + "]"));
  };

  // Bind first: a malformed request fails fast without claiming the
  // single-flight slot or touching the fault machinery. The tile probe and
  // the DBMS both consume the bound AST, so parameter resolution cost (and
  // errors) are shared. Splitting ExecuteBound into Bind + Execute is
  // behavior-preserving: that is exactly its implementation.
  rewrite::ParamResolver resolver(params);
  auto bound = sql::BindStatement(*stmt->stmt, resolver);
  if (!bound.ok()) {
    deliver_error(bound.status());
    return;
  }

  auto deliver_response = [&](QueryResponse resp) {
    if (ticket->CommitDelivery()) {
      RecordCompletion(session.get(), resp);
    } else {
      RecordCancelled(session.get());
    }
    ticket->Deliver(std::move(resp));
  };

  // Degraded fallback for every "fresh execution impossible" exit: an
  // archived stale result for this exact key, else the same shape answered
  // from a coarser already-built tile level. False = nothing servable.
  auto deliver_degraded = [&]() -> bool {
    if (!options_.enable_degraded_serving) return false;
    QueryResponse resp;
    resp.degraded = true;
    bool have_stale;
    {
      std::lock_guard<std::mutex> lock(mu_);
      have_stale = stale_cache_.Get(key, &resp.table);
    }
    if (have_stale) {
      resp.bytes = EstimateEncodedBytes(*resp.table, options_.binary_encoding);
      // No server compute: the archived bytes just cross the wire.
      resp.latency_millis =
          TransferMillis(resp.bytes, options_.binary_encoding, options_.latency);
      resp.source = QueryResponse::Source::kStaleCache;
    } else {
      if (tile_store_ == nullptr) return false;
      std::optional<tiles::TileAnswer> tile = tile_store_->TryAnswerCoarser(**bound);
      if (!tile.has_value()) return false;
      resp.table = tile->table;
      resp.bytes = EstimateEncodedBytes(*resp.table, options_.binary_encoding);
      resp.latency_millis =
          ServerComputeMillis(tile->bins_touched, 1, options_.latency) +
          TransferMillis(resp.bytes, options_.binary_encoding, options_.latency);
      resp.source = QueryResponse::Source::kTileStore;
    }
    deliver_response(std::move(resp));
    return true;
  };

  // Single-flight: identical concurrent queries execute once; followers wait
  // and then resolve from the cache the leader filled.
  if (!EnterInFlight(key, deadline)) {
    // Deadline expired while parked behind the leader.
    if (!deliver_degraded()) {
      deliver_error(Status::DeadlineExceeded("deadline expired awaiting execution"));
    }
    return;
  }

  // Note: a same-session duplicate that completed while this task was
  // queued resolves through the *server* cache below, not the session
  // cache — at submit time the client did not have the result, so the
  // modeled system still pays the round trip and transfer.
  QueryResponse response;
  bool from_dbms = false;
  bool server_hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    server_hit = server_cache_.Get(key, &response.table);
  }
  if (server_hit) {
    response.bytes = EstimateEncodedBytes(*response.table, options_.binary_encoding);
    response.latency_millis =
        TransferMillis(response.bytes, options_.binary_encoding, options_.latency);
    response.source = QueryResponse::Source::kServerCache;
  } else {
    if (PastDeadline(deadline)) {
      // The deadline gates *starting* backend work; a result that exists
      // already (cache tiers above, degraded below) is still fair game.
      LeaveInFlight(key);
      if (!deliver_degraded()) {
        deliver_error(Status::DeadlineExceeded("deadline expired before execution"));
      }
      return;
    }
    std::optional<tiles::TileAnswer> tile;
    if (tile_store_ != nullptr) tile = tile_store_->TryAnswer(**bound, token.get());
    if (tile.has_value()) {
      // Served from the precomputed aggregation tree: the server touches
      // `bins_touched` slots instead of scanning base rows.
      response.table = tile->table;
      response.bytes = EstimateEncodedBytes(*response.table, options_.binary_encoding);
      response.latency_millis =
          ServerComputeMillis(tile->bins_touched, 1, options_.latency) +
          TransferMillis(response.bytes, options_.binary_encoding, options_.latency);
      response.source = QueryResponse::Source::kTileStore;
    } else {
      // ---- DBMS execution: retry transient failures under the breaker ----
      const std::string& scope = stmt->canonical_sql;
      const size_t max_attempts = std::max<size_t>(1, options_.retry.max_attempts);
      double fault_latency_ms = 0;  // injected stalls, charged as server time
      Status failure;
      bool degradable = false;  // only transient/deadline failures may degrade

      // Hedged request: past the statement's observed tail threshold, launch
      // one duplicate attempt on another worker and take the first success.
      // TrySubmit only — under queue saturation the hedge is shed rather
      // than amplifying the overload. The hedge bypasses single-flight by
      // design: it *is* the deliberate duplicate.
      std::shared_ptr<HedgeRace> race;
      const double hedge_threshold_ms = HedgeThresholdMs(scope);
      if (hedge_threshold_ms >= 0) {
        race = std::make_shared<HedgeRace>();
        race->threshold_ms = hedge_threshold_ms;
        if (token != nullptr) {
          race->hedge_token =
              std::make_shared<common::CancelToken>(token, deadline);
        }
        auto hedge_task = [this, race, bound_stmt = *bound,
                           hedge_key = HedgeInjectorKey(key), deadline]() {
          {
            std::unique_lock<std::mutex> lk(race->mu);
            const auto start_at =
                std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(race->threshold_ms));
            race->cv.wait_until(lk, start_at, [&] { return race->decided; });
            if (race->decided) {  // primary finished inside the threshold
              race->hedge_done = true;
              race->cv.notify_all();
              return;
            }
            race->hedge_started = true;
          }
          Status injected;
          double stall_ms = 0;
          if (fault_injector_ != nullptr) {
            FaultDecision fate = fault_injector_->OnDbmsExecute(hedge_key);
            if (fate.stall_ms > 0) {
              stall_ms = fate.stall_ms;
              SleepCapped(fate.stall_ms, deadline);
            }
            if (fate.fail) injected = fate.status;
          }
          common::QueryContext hedge_ctx{race->hedge_token};
          Result<sql::QueryResult> r =
              !injected.ok()
                  ? Result<sql::QueryResult>(injected)
                  : engine_->Execute(*bound_stmt,
                                     race->hedge_token ? &hedge_ctx : nullptr);
          std::lock_guard<std::mutex> lk(race->mu);
          race->hedge_fault_ms = stall_ms;
          race->hedge_result.emplace(std::move(r));
          race->hedge_done = true;
          race->cv.notify_all();
        };
        if (pool_->TrySubmit(std::move(hedge_task)) ==
            WorkerPool::Admission::kAccepted) {
          RecordHedgeLaunched(session.get());
        } else {
          race.reset();  // pool saturated or shutting down: no hedge
        }
      }

      // First-success claim: adopt the hedge's result if it already landed.
      // Only the primary sets `decided`, so the claim cannot be contested.
      auto claim_hedge_win = [&]() -> std::optional<sql::QueryResult> {
        if (race == nullptr) return std::nullopt;
        std::lock_guard<std::mutex> lk(race->mu);
        if (race->decided || !race->hedge_done ||
            !race->hedge_result.has_value() || !race->hedge_result->ok()) {
          return std::nullopt;
        }
        race->decided = true;
        return std::move(**race->hedge_result);
      };
      auto adopt_hedge = [&](sql::QueryResult won) {
        // A completed duplicate of the same statement: truthful evidence of
        // backend health (and it settles any probe admission the stalled
        // primary still holds).
        breaker_->RecordSuccess(scope);
        from_dbms = true;
        RecordHedgeWin(session.get());
        response.table = won.table;
        response.bytes =
            EstimateEncodedBytes(*response.table, options_.binary_encoding);
        response.latency_millis =
            race->threshold_ms + race->hedge_fault_ms +
            ServerComputeMillis(won.stats.rows_processed + won.stats.rows_scanned,
                                won.stats.num_operators, options_.latency) +
            TransferMillis(response.bytes, options_.binary_encoding, options_.latency);
        response.source = QueryResponse::Source::kDbms;
      };
      // Close the race on every exit: a hedge still running is abandoned
      // through its token and discards its result when it finds `decided`.
      auto settle_race = [&]() {
        if (race == nullptr) return;
        std::lock_guard<std::mutex> lk(race->mu);
        if (!race->decided) {
          race->decided = true;
          if (race->hedge_token) race->hedge_token->Cancel();
          race->cv.notify_all();
        }
      };
      // An injected stall on the primary is where hedges earn their keep:
      // sleep, but wake the moment the hedge finishes instead of serving
      // out the full stall.
      auto stall_for = [&](double ms) {
        if (race == nullptr) {
          SleepCapped(ms, deadline);
          return;
        }
        auto wake = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
        if (deadline && *deadline < wake) wake = *deadline;
        std::unique_lock<std::mutex> lk(race->mu);
        race->cv.wait_until(lk, wake, [&] { return race->hedge_done; });
      };

      for (size_t attempt = 0;; ++attempt) {
        if (auto won = claim_hedge_win()) {
          adopt_hedge(std::move(*won));
          break;
        }
        bool admitted_as_probe = false;
        if (!breaker_->Admit(scope, &admitted_as_probe)) {
          // Fast fail: a known-dead statement should not burn this worker.
          failure = Status::Unavailable("circuit breaker open for statement");
          degradable = true;
          break;
        }
        if (options_.before_dbms_execute) options_.before_dbms_execute(key);
        Status injected;  // ok unless the injector fails this attempt
        if (fault_injector_ != nullptr) {
          FaultDecision fate = fault_injector_->OnDbmsExecute(key);
          if (fate.stall_ms > 0) {
            // Real sleep capped at the deadline; the *full* stall is still
            // charged as simulated latency (the modeled backend was slow).
            fault_latency_ms += fate.stall_ms;
            stall_for(fate.stall_ms);
          }
          if (fate.fail) injected = fate.status;
        }
        if (auto won = claim_hedge_win()) {
          adopt_hedge(std::move(*won));  // RecordSuccess settles the probe
          break;
        }
        if (PastDeadline(deadline)) {
          // No outcome will ever be recorded for this admission; a held
          // half-open probe slot must be released or the breaker wedges.
          if (admitted_as_probe) breaker_->AbandonProbe(scope);
          failure = Status::DeadlineExceeded("deadline expired before DBMS execution");
          degradable = true;
          break;
        }
        common::QueryContext qctx{token};
        Result<sql::QueryResult> result =
            injected.ok()
                ? engine_->Execute(**bound, token != nullptr ? &qctx : nullptr)
                : Result<sql::QueryResult>(injected);
        if (result.ok()) {
          breaker_->RecordSuccess(scope);
          from_dbms = true;
          response.table = result->table;
          response.bytes =
              EstimateEncodedBytes(*response.table, options_.binary_encoding);
          response.latency_millis =
              ServerComputeMillis(result->stats.rows_processed + result->stats.rows_scanned,
                                  result->stats.num_operators, options_.latency) +
              fault_latency_ms +
              TransferMillis(response.bytes, options_.binary_encoding, options_.latency);
          response.source = QueryResponse::Source::kDbms;
          break;
        }
        const Status& st = result.status();
        if (st.IsCancelled() || st.IsDeadlineExceeded()) {
          // Cooperative abort at a morsel checkpoint: the engine stopped
          // because *this request* was cancelled or out of time, which says
          // nothing about backend health — release any probe slot, never
          // record a breaker failure, never retry. Only the deadline flavor
          // may degrade: an explicit cancel means nobody wants any answer.
          if (admitted_as_probe) breaker_->AbandonProbe(scope);
          RecordCancelledMidFlight(session.get());
          failure = st;
          degradable = st.IsDeadlineExceeded();
          break;
        }
        if (!IsTransient(st)) {
          // Logic error (parse/type/plan): retrying cannot help, and a
          // degraded response would mask a real bug. Surface it as-is. It
          // says nothing about backend health either way, so a probe that
          // drew one releases its slot instead of recording an outcome.
          if (admitted_as_probe) breaker_->AbandonProbe(scope);
          failure = st;
          break;
        }
        breaker_->RecordFailure(scope);
        if (ticket->cancel_requested()) {
          // Superseded mid-retry: the result is dead weight; never re-spend.
          failure = st;
          break;
        }
        if (attempt + 1 >= max_attempts) {
          failure = st;
          degradable = true;
          break;
        }
        double backoff = options_.retry.initial_backoff_ms *
                         std::pow(options_.retry.backoff_multiplier,
                                  static_cast<double>(attempt));
        backoff = std::min(backoff, options_.retry.max_backoff_ms);
        // Deterministic jitter in [1 - j/2, 1 + j/2), drawn per (key,
        // attempt) so replays back off identically.
        Rng jitter_rng(HashKey(key) ^ (0x9E3779B97F4A7C15ull * (attempt + 1)));
        backoff *= 1.0 + options_.retry.jitter * (jitter_rng.NextDouble() - 0.5);
        RecordRetry(session.get());
        SleepCapped(backoff, deadline);
        if (PastDeadline(deadline)) {
          failure = Status::DeadlineExceeded("deadline expired during retry backoff");
          degradable = true;
          break;
        }
      }
      if (!from_dbms) {
        // Last look before giving up: a hedge that finished while the
        // primary was failing is a completed result — deliver it, don't
        // waste it.
        if (auto won = claim_hedge_win()) adopt_hedge(std::move(*won));
      }
      settle_race();
      if (!from_dbms) {
        LeaveInFlight(key);
        if (!degradable || !deliver_degraded()) deliver_error(failure);
        return;
      }
      RecordDbmsLatency(scope, response.latency_millis);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      server_cache_.Put(key, response.table);
      // Archive for degraded serving; unlike the tier above this copy is
      // served (marked stale) even after ClearCaches or under outage.
      stale_cache_.Put(key, response.table);
    }
  }
  session->CachePut(key, response.table);
  LeaveInFlight(key);

  if (from_dbms) {
    std::lock_guard<std::mutex> lock(session->stats_block_->mu);
    ++session->stats_block_->stats.dbms_executions;
  }
  deliver_response(std::move(response));
}

// Stats are recorded once, into the owning session's shared block; fleet
// totals are computed on read by summing live blocks plus the retired
// accumulator. dbms_executions is counted at execution time in RunQueryTask
// (the work happened even when the delivery is later turned into a
// cancellation), so completion recording only attributes the delivery tier.
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

void Middleware::RecordCompletion(Session* session, const QueryResponse& response) {
  std::lock_guard<std::mutex> lock(session->stats_block_->mu);
  SessionStats& stats = session->stats_block_->stats;
  ++stats.queries;
  switch (response.source) {
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
  if (response.degraded) ++stats.degraded_responses;
  stats.bytes_transferred += response.bytes;
  stats.total_latency_ms += response.latency_millis;
}

void Middleware::RecordCancelled(Session* session) {
  std::lock_guard<std::mutex> lock(session->stats_block_->mu);
  ++session->stats_block_->stats.cancelled;
}

void Middleware::RecordError(Session* session, const Status& status) {
  std::lock_guard<std::mutex> lock(session->stats_block_->mu);
  ++session->stats_block_->stats.errors;
  if (status.IsDeadlineExceeded()) {
    ++session->stats_block_->stats.deadline_exceeded;
  }
}

void Middleware::RecordRetry(Session* session) {
  std::lock_guard<std::mutex> lock(session->stats_block_->mu);
  ++session->stats_block_->stats.retries;
}

// Shed requests are errors (the client got kUnavailable), with the shed
// counter attributing the cause.
void Middleware::RecordShed(Session* session) {
  std::lock_guard<std::mutex> lock(session->stats_block_->mu);
  ++session->stats_block_->stats.shed;
  ++session->stats_block_->stats.errors;
}

void Middleware::RecordCancelledMidFlight(Session* session) {
  std::lock_guard<std::mutex> lock(session->stats_block_->mu);
  ++session->stats_block_->stats.cancelled_mid_flight;
}

void Middleware::RecordHedgeLaunched(Session* session) {
  std::lock_guard<std::mutex> lock(session->stats_block_->mu);
  ++session->stats_block_->stats.hedged_requests;
}

void Middleware::RecordHedgeWin(Session* session) {
  std::lock_guard<std::mutex> lock(session->stats_block_->mu);
  ++session->stats_block_->stats.hedge_wins;
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
        Accumulate(&retired_stats_, block->stats);
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
  SessionStats total = retired_stats_;
  for (const auto& slot : sessions_) {
    std::lock_guard<std::mutex> block_lock(slot.stats->mu);
    Accumulate(&total, slot.stats->stats);
  }
  Stats out;
  out.queries = total.queries;
  out.submitted = total.submitted;
  out.client_cache_hits = total.client_cache_hits;
  out.server_cache_hits = total.server_cache_hits;
  out.tile_hits = total.tile_hits;
  out.dbms_executions = total.dbms_executions;
  out.cancelled = total.cancelled;
  out.errors = total.errors;
  out.retries = total.retries;
  out.deadline_exceeded = total.deadline_exceeded;
  out.shed = total.shed;
  out.degraded_responses = total.degraded_responses;
  out.hedged_requests = total.hedged_requests;
  out.hedge_wins = total.hedge_wins;
  out.cancelled_mid_flight = total.cancelled_mid_flight;
  out.breaker_open = breaker_->open_transitions() - breaker_open_baseline_;
  out.prepared_statements = prepared_statements_created_;
  out.sessions = sessions_created_;
  out.bytes_transferred = total.bytes_transferred;
  out.total_latency_ms = total.total_latency_ms;
  out.storage_chunks_pruned =
      storage::ChunksPruned() - storage_chunks_pruned_baseline_;
  out.storage_morsels_pruned =
      storage::MorselsPruned() - storage_morsels_pruned_baseline_;
  out.storage_chunks_paged_in =
      storage::ChunksPagedIn() - storage_chunks_paged_in_baseline_;
  out.storage_resident_bytes = storage::ResidentBytes();
  out.kernel_bitmap_selections =
      kernels::BitmapSelections() - kernel_bitmap_selections_baseline_;
  out.kernel_index_selections =
      kernels::IndexSelections() - kernel_index_selections_baseline_;
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
  storage_chunks_pruned_baseline_ = storage::ChunksPruned();
  storage_morsels_pruned_baseline_ = storage::MorselsPruned();
  storage_chunks_paged_in_baseline_ = storage::ChunksPagedIn();
  kernel_bitmap_selections_baseline_ = kernels::BitmapSelections();
  kernel_index_selections_baseline_ = kernels::IndexSelections();
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
