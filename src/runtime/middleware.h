// Middleware: the server-side layer between clients' VDTs and the DBMS
// (Fig. 2). A single Middleware is a thread-safe shared service: it owns the
// prepared-statement registry, the server-side result cache, and a worker
// pool that executes DBMS work; each client obtains a Session carrying its
// own client-side cache and stats. Resolution order per query: client cache
// -> middleware cache -> DBMS (§5.5), charging simulated latency for
// whichever tiers are touched. Result encoding (JSON vs columnar binary
// "Arrow") determines transfer and decode cost (§4 "Efficient Transfers").
//
// Queries are keyed by (prepared statement, bound parameters) — exact,
// cheap, and insensitive to SQL text formatting. Identical in-flight queries
// are collapsed (single-flight), and a Submit with a newer generation for
// the same statement within a session cancels the superseded in-flight
// request instead of decoding it.
//
// The middleware also hosts a cross-session tile store: bin+aggregate
// shapes are answered from precomputed multi-resolution aggregation trees
// when coverage is exact (see tiles/tile_store.h), skipping the DBMS scan
// entirely. Tile hits fill both cache tiers like any other result.
#ifndef VEGAPLUS_RUNTIME_MIDDLEWARE_H_
#define VEGAPLUS_RUNTIME_MIDDLEWARE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rewrite/query_service.h"
#include "runtime/circuit_breaker.h"
#include "runtime/engine_config.h"
#include "runtime/fault_injector.h"
#include "tiles/tile_store.h"
#include "runtime/cache.h"
#include "runtime/latency_model.h"
#include "runtime/worker_pool.h"
#include "sql/engine.h"

namespace vegaplus {
namespace runtime {

/// Retry policy for *transient* DBMS failures (kUnavailable, kIOError):
/// capped exponential backoff with deterministic jitter, so two runs with
/// the same fault schedule retry at the same simulated cadence. Terminal
/// failures (parse/type/logic errors) are never retried, and neither is a
/// request that was superseded mid-flight — its result is dead weight.
struct RetryPolicy {
  /// Total execution attempts, including the first (1 = no retries).
  size_t max_attempts = 3;
  double initial_backoff_ms = 1.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 50.0;
  /// Backoff is scaled by a factor in [1 - jitter/2, 1 + jitter/2], drawn
  /// deterministically from (cache key, attempt).
  double jitter = 0.25;
};

/// Hedged requests: when a DBMS execution is still running past a latency
/// threshold, launch one duplicate attempt on another worker and take the
/// first success; the loser is cancelled through its cooperative token. The
/// threshold comes from live per-statement observations of measured
/// wall-clock time (p95 of a recent-sample ring), so hedges fire only for
/// requests already slower than the statement's own tail — the classic
/// tail-at-scale recipe.
struct HedgePolicy {
  bool enabled = false;
  /// Hedge when the primary has been running longer than
  /// `latency_factor * observed p95` for the statement.
  double latency_factor = 1.0;
  /// Observations required before the p95 is trusted; below it no hedge
  /// fires (unless fixed_threshold_ms overrides).
  size_t min_samples = 8;
  /// > 0: skip the observed p95 and hedge at this fixed delay (tests).
  double fixed_threshold_ms = 0;
  /// Floor under the computed threshold, so a run of cache-warm fast
  /// samples cannot make hedging fire instantly on every request.
  double min_threshold_ms = 1.0;
};

struct MiddlewareOptions {
  /// Encode results as columnar binary (true, the Arrow path) or JSON rows.
  bool binary_encoding = true;
  bool enable_client_cache = true;
  bool enable_server_cache = true;
  size_t cache_capacity = 64;
  /// Results with more rows than this are not cached (§5.5 size threshold).
  size_t cache_max_result_rows = 200000;
  /// Replacement policy of the server cache tier (client caches are small
  /// and per-session; they use the same policy). LRU beats FIFO under
  /// skewed multi-tenant workloads; FIFO is kept for ablations.
  QueryCache::Policy cache_policy = QueryCache::Policy::kLru;
  LatencyParams latency;
  /// DBMS worker threads shared by all sessions.
  size_t worker_threads = 4;
  /// Bound on the prepared-statement registry (0 = unbounded). Every
  /// Prepare() pins its statement, so live handles are never evicted;
  /// statements whose last pin was dropped by Release() are LRU-evicted past
  /// this cap. The cap applies to the churn of retired templates.
  size_t max_prepared_statements = 256;
  /// Test instrumentation: invoked by a worker right before DBMS execution
  /// (after cache and tile misses), with the query's cache key. Lets
  /// concurrency tests gate execution deterministically. Null in production.
  std::function<void(const std::string& cache_key)> before_dbms_execute;
  /// Engine feature snapshot this middleware runs with. Unset means
  /// "snapshot the ambient process-wide configuration at construction".
  /// The snapshot decides middleware-owned features (tile serving);
  /// process-global toggles (vectorization, morsels, dictionaries) remain
  /// ambient — use ScopedEngineConfig to pin them for a scope.
  std::optional<EngineConfig> engine_config;
  /// Tile store tuning (used only when the snapshot enables tile serving).
  tiles::TileStoreOptions tile_options;
  /// Retry schedule for transient DBMS failures.
  RetryPolicy retry;
  /// Hedged duplicate attempts for tail-latency DBMS executions.
  HedgePolicy hedge;
  /// Per-statement circuit breaker; open breakers fail fast into the
  /// degraded path instead of burning workers on a dead backend.
  CircuitBreakerOptions circuit_breaker;
  /// Deterministic fault injection on the DBMS execution path (chaos tests
  /// and benches). Unset = no injector, zero overhead.
  std::optional<FaultInjectorOptions> fault_injection;
  /// Bound on *queued* (not running) worker tasks. Past it, submissions are
  /// load-shed with kUnavailable instead of queueing unboundedly — under
  /// saturation a fast refusal beats a result that arrives after the client
  /// has already moved on. 0 = unbounded (legacy behavior).
  ///
  /// Shedding is fairness-aware: at the bound, only the session with the
  /// most tasks already queued is refused (the heaviest submitter is the
  /// one causing the saturation); lighter sessions are still admitted, so
  /// one runaway dashboard cannot starve every other client's admission.
  size_t max_queue_depth = 0;
  /// When fresh execution is impossible (open breaker, expired deadline,
  /// retries exhausted), serve a stale-but-marked cached result or a coarser
  /// already-built tile level instead of an error. Responses carry
  /// `degraded = true` so clients can render them provisionally.
  bool enable_degraded_serving = true;
  /// Capacity of the stale-result archive backing degraded serving. The
  /// archive is filled on every successful execution and — unlike the cache
  /// tiers — deliberately survives ClearCaches(): it is a disaster reserve,
  /// not a freshness tier.
  size_t stale_cache_capacity = 256;
};

/// Measure the encoded payload size of a result. Exact for small tables;
/// sampled + extrapolated beyond `sample_rows` to keep harness runtimes
/// bounded (documented substitution; proportions preserved).
size_t EstimateEncodedBytes(const data::Table& table, bool binary,
                            size_t sample_rows = 20000);

class Middleware;

/// Per-session counters. Also the unit of fleet aggregation: Middleware's
/// totals are the sum of every live session's counters plus the counters of
/// every *retired* session, folded in when the session is pruned.
struct SessionStats {
  size_t submitted = 0;
  size_t queries = 0;  // completed: client + server + tiles + dbms below
  size_t client_cache_hits = 0;
  size_t server_cache_hits = 0;
  size_t tile_hits = 0;
  size_t dbms_executions = 0;
  size_t cancelled = 0;
  size_t errors = 0;
  /// Re-executions after a transient DBMS failure (extra attempts only).
  size_t retries = 0;
  /// Requests that failed with kDeadlineExceeded (subset of errors).
  size_t deadline_exceeded = 0;
  /// Requests load-shed at the bounded worker queue (subset of errors).
  size_t shed = 0;
  /// Completions served degraded — stale cache or coarser tile level
  /// (subset of queries).
  size_t degraded_responses = 0;
  /// Duplicate attempts launched past the hedge threshold.
  size_t hedged_requests = 0;
  /// Completions adopted from the hedge attempt (subset of hedged_requests).
  size_t hedge_wins = 0;
  /// Engine executions aborted at a cooperative cancellation checkpoint
  /// (fired token observed mid-flight: supersession, deadline, hedge loss).
  size_t cancelled_mid_flight = 0;
  size_t bytes_transferred = 0;

  SessionStats& operator+=(const SessionStats& other);
};

/// A session's counters behind their own lock, shared between the Session
/// and the Middleware's session registry. The block outlives the Session:
/// when a client drops its session, the registry still holds the block and
/// folds it into the retired-sessions accumulator, so fleet totals never go
/// backwards on session churn.
struct SessionStatsBlock {
  mutable std::mutex mu;
  SessionStats stats;
};

/// \brief One client's view of the shared Middleware: per-client cache,
/// per-client stats, and the supersession scope for generations.
///
/// Created by Middleware::CreateSession(); must not outlive its Middleware.
/// Thread-safe (a session may be driven from multiple threads, and workers
/// touch its cache).
class Session : public rewrite::QueryService,
                public std::enable_shared_from_this<Session> {
 public:
  /// Prepare against the middleware-wide statement registry; formatting
  /// variants of one logical statement share a handle (and cache entries).
  Result<rewrite::PreparedHandle> Prepare(const std::string& sql_template) override;

  /// Asynchronous submission. Client-cache hits resolve immediately; misses
  /// are executed on the middleware's worker pool. A request whose
  /// generation exceeds the session's last in-flight request for the same
  /// handle cancels that older request.
  rewrite::QueryTicketPtr Submit(const rewrite::QueryRequest& request) override;

  using Stats = SessionStats;
  Stats stats() const;

  uint64_t id() const { return id_; }

  /// Tasks this session has queued on the worker pool that have not yet
  /// started running. The admission-fairness signal: at a saturated queue,
  /// the session with the largest value is shed first.
  size_t queued() const { return queued_.load(std::memory_order_relaxed); }

  void ClearCache();

 private:
  friend class Middleware;
  Session(Middleware* owner, uint64_t id, size_t cache_capacity,
          size_t cache_max_result_rows, QueryCache::Policy cache_policy,
          std::shared_ptr<SessionStatsBlock> stats_block);

  bool CacheGet(const std::string& key, data::TablePtr* out);
  void CachePut(const std::string& key, data::TablePtr table);

  /// The one delivery point: freeze the ticket's outcome, count it under the
  /// stats lock (a completion by source, an error — shed or deadline
  /// exceeded — or a cancellation when a cancel won), then publish it, so
  /// stats never lag a delivered response.
  void Resolve(rewrite::QueryTicket& ticket, Result<rewrite::QueryResponse> result,
               bool shed = false);
  /// Add one to `counter` under the stats lock.
  void Bump(size_t SessionStats::*counter);

  Middleware* owner_;
  uint64_t id_;
  /// Queued-but-not-running worker tasks attributed to this session.
  std::atomic<size_t> queued_{0};
  mutable std::mutex mu_;
  QueryCache cache_;
  /// Shared with the Middleware's session registry; see SessionStatsBlock.
  std::shared_ptr<SessionStatsBlock> stats_block_;
  /// Latest live async ticket per supersession scope (client_id, handle).
  /// weak_ptr: completed tickets (and their result tables) are not pinned —
  /// an entry only matters while its request is in flight, when the worker
  /// task's closure keeps the ticket alive.
  std::map<std::pair<uint64_t, rewrite::PreparedHandle>,
           std::weak_ptr<rewrite::QueryTicket>>
      last_ticket_;
};

/// \brief The shared query service: statement registry + server cache +
/// worker pool + session factory. Also implements QueryService directly
/// through an implicit default session, so single-client callers and
/// pre-session code keep working unchanged.
class Middleware : public rewrite::QueryService {
 public:
  Middleware(const sql::Engine* engine, MiddlewareOptions options);
  ~Middleware() override;

  Middleware(const Middleware&) = delete;
  Middleware& operator=(const Middleware&) = delete;

  /// Stop the worker pool: drains queued work, joins the workers. The
  /// destructor calls this; tests call it directly to exercise the
  /// submit/shutdown race. After (or racing with) Shutdown, a Submit whose
  /// task the pool rejects resolves its ticket as Status::Cancelled instead
  /// of leaving Await blocked on a task no worker will ever run.
  void Shutdown();

  /// New client session (own cache, stats, and supersession scope).
  std::shared_ptr<Session> CreateSession();

  /// The implicit session behind the legacy single-client surface.
  Session& default_session() { return *default_session_; }

  // QueryService surface, routed through the default session. Prepare
  // registers (or finds) the canonical statement and pins it: formatting
  // variants of one template share a handle and its cache entries.
  Result<rewrite::PreparedHandle> Prepare(const std::string& sql_template) override;
  rewrite::QueryTicketPtr Submit(const rewrite::QueryRequest& request) override;

  /// Drop one pin from a handle obtained from the public Prepare() surface.
  /// Pins are counted: every Prepare() of the same canonical statement
  /// (formatting variants dedupe onto one handle) adds a pin, so one
  /// client's Release never invalidates another client's live handle. When
  /// the last pin drops, the statement stays resolvable for now but rejoins
  /// the LRU order and may be evicted once the registry exceeds its cap —
  /// after which the handle fails loudly (handles are never reused, so it
  /// can never silently rebind to a different statement). Long-lived
  /// clients call this when a dashboard retires a template so the bounded
  /// registry can reclaim the slot. Unknown or already-unpinned handles are
  /// a no-op.
  void Release(rewrite::PreparedHandle handle);

  /// Aggregate stats across every session of this middleware — live ones
  /// plus the retired-sessions accumulator, so counters are monotone across
  /// session churn (a dropped session's history is folded in, not lost) —
  /// plus the fleet-only fields below.
  struct Stats : SessionStats {
    size_t breaker_open = 0;  ///< circuit-breaker open transitions
    size_t prepared_statements = 0;
    size_t sessions = 0;
  };
  Stats stats() const;
  void ResetStats();

  /// Drop the server cache tier and every live session's client cache
  /// (e.g. between benchmark conditions).
  void ClearCaches();

  /// Statements currently resident in the registry (pinned + evictable).
  /// Bounded by max_prepared_statements plus the pinned set, regardless of
  /// how many distinct templates have been prepared and released.
  size_t registry_size() const;

  const MiddlewareOptions& options() const { return options_; }

  /// The engine feature snapshot taken at construction.
  const EngineConfig& engine_config() const { return engine_config_; }

  /// The shared tile tier, or nullptr when the snapshot disabled it.
  tiles::TileStore* tile_store() const { return tile_store_.get(); }

  /// The fault injector, or nullptr when options.fault_injection is unset.
  /// Tests mutate its rules mid-scenario (e.g. flip a table into outage).
  FaultInjector* fault_injector() const { return fault_injector_.get(); }

  /// The per-statement circuit breaker (always present; may be disabled).
  CircuitBreaker* circuit_breaker() const { return breaker_.get(); }

  /// Saturation signals: queue_depth() / rejected_count() / num_threads().
  const WorkerPool& worker_pool() const { return *pool_; }

 private:
  friend class Session;

  /// One request's state, shared by the stages of RunQueryTask.
  struct Request;
  /// One hedged execution race between a primary and its duplicate.
  class HedgeRace;

  /// LRU-evict unpinned statements down to the cap. Requires mu_.
  void EvictStatementsLocked();
  sql::PreparedPtr StatementFor(rewrite::PreparedHandle handle) const;

  /// (statement, bound params) -> canonical cache key.
  static std::string CacheKeyFor(const sql::PreparedStatement& stmt,
                                 const std::vector<rewrite::QueryParam>& params);

  /// Worker-side execution of one submitted request. `deadline` is the
  /// absolute wall-clock cutoff derived from QueryRequest::deadline_ms at
  /// submit time (nullopt = none). Runs the stages below and resolves the
  /// ticket once with their result.
  void RunQueryTask(std::shared_ptr<Session> session, rewrite::QueryTicketPtr ticket,
                    sql::PreparedPtr stmt, std::vector<rewrite::QueryParam> params,
                    std::string key,
                    std::optional<std::chrono::steady_clock::time_point> deadline);

  // The stages of one request, in order. Each returns the request's result
  // so far; a failure flows on to the degraded fallback and delivery.
  /// Single-flight, then the server cache, the tile tier, the DBMS attempts.
  Result<rewrite::QueryResponse> ServeShared(Request& req);
  /// An exact answer from the tile tier, or nullopt.
  std::optional<rewrite::QueryResponse> ProbeTiles(const Request& req);
  /// The DBMS attempts (breaker, retry, hedge) and their bookkeeping.
  Result<rewrite::QueryResponse> RunAttempts(Request& req);
  Result<rewrite::QueryResponse> AttemptLoop(Request& req, HedgeRace* race);
  /// Launch the hedge duplicate when the statement has a threshold and the
  /// pool admits it; null otherwise.
  std::shared_ptr<HedgeRace> LaunchHedge(const Request& req);
  /// Replace a failure of fresh execution with a stale or coarser answer.
  Result<rewrite::QueryResponse> Degrade(const Request& req, Result<rewrite::QueryResponse> result);

  /// The one response constructor: encoded size, and modeled latency as
  /// `server_ms` plus the transfer of that payload.
  rewrite::QueryResponse Respond(data::TablePtr table,
                                 rewrite::QueryResponse::Source source, double server_ms,
                                 bool degraded) const;
  /// The fault injector's verdict on one backend attempt keyed `key`: sleeps
  /// out any injected stall (capped at `deadline`; through `race` when
  /// given, so the hedge finishing wakes the primary), adds the full stall
  /// to `*stall_ms`, and returns the injected failure, if any.
  Status InjectFault(const std::string& key,
                     const std::optional<std::chrono::steady_clock::time_point>& deadline,
                     HedgeRace* race, double* stall_ms) const;

  // Single-flight: serialize workers executing the same cache key. Returns
  // false — without claiming the slot — when `deadline` expires while
  // waiting on the current leader.
  bool EnterInFlight(const std::string& key,
                     std::optional<std::chrono::steady_clock::time_point> deadline);
  void LeaveInFlight(const std::string& key);

  /// True when the bounded queue is saturated but `session` is not (one of)
  /// the heaviest submitters — such sessions bypass the bound instead of
  /// being shed, so admission refusals land on the session causing the load.
  bool ShouldBypassQueueBound(const Session* session) const;

  /// Hedge delay for `scope` (canonical SQL): fixed_threshold_ms when set,
  /// else latency_factor * the statement's observed p95 once min_samples
  /// have landed. Negative = do not hedge (disabled or not enough data).
  double HedgeThresholdMs(const std::string& scope) const;
  /// Feed the measured wall-clock ms of one successful DBMS answer (from
  /// the start of its attempts) into the statement's ring.
  void RecordDbmsLatency(const std::string& scope, double ms);

  /// Fold the stats of expired sessions into retired_stats_ and drop their
  /// slots. Requires mu_.
  void PruneSessionsLocked() const;

  const sql::Engine* engine_;
  MiddlewareOptions options_;
  EngineConfig engine_config_;
  /// Cross-session tile tier (created iff engine_config_.tile_serving).
  /// Internally synchronized; safe to probe from any worker.
  std::unique_ptr<tiles::TileStore> tile_store_;

  /// One registered canonical statement. Handles are monotonically
  /// increasing and never reused, so eviction can never make an old handle
  /// silently resolve to a different statement — a dead handle fails loudly.
  struct StatementEntry {
    sql::PreparedPtr stmt;
    /// Outstanding Prepare() pins (deduped Prepares stack); entries with
    /// pins are never evicted. Release() drops one pin.
    size_t pin_count = 0;
    /// Position in statement_lru_ (unpinned entries only; pinned entries
    /// leave the order list, they can never be victims).
    std::list<rewrite::PreparedHandle>::iterator lru_it;
  };

  /// Recent measured DBMS answer times of one statement (fixed ring; the
  /// hedge threshold reads its p95). Small enough to copy under mu_.
  struct LatencyRing {
    static constexpr size_t kCapacity = 64;
    double samples[kCapacity];
    size_t next = 0;
    size_t count = 0;
  };

  mutable std::mutex mu_;  // statements, server cache, stats, session list
  std::unordered_map<rewrite::PreparedHandle, StatementEntry> statements_;
  std::unordered_map<std::string, rewrite::PreparedHandle> by_canonical_;
  /// Unpinned statements, most recently released first; eviction pops from
  /// the back, so finding a victim is O(1) instead of scanning the registry.
  std::list<rewrite::PreparedHandle> statement_lru_;
  rewrite::PreparedHandle next_handle_ = 1;
  QueryCache server_cache_;
  /// Stale-result archive for degraded serving: filled on every successful
  /// execution, read only when fresh execution is impossible. Survives
  /// ClearCaches() by design.
  QueryCache stale_cache_;

  /// Session registry. Each slot pairs the weak session pointer with the
  /// session's stats block, which the slot keeps alive past the session so
  /// pruning can fold its counters instead of losing them.
  struct SessionSlot {
    std::weak_ptr<Session> session;
    std::shared_ptr<SessionStatsBlock> stats;
  };
  mutable std::vector<SessionSlot> sessions_;
  /// Counters folded in from pruned (retired) sessions. Guarded by mu_;
  /// mutable because stats() prunes lazily.
  mutable SessionStats retired_stats_;
  size_t sessions_created_ = 0;
  size_t prepared_statements_created_ = 0;
  /// ResetStats() rebases breaker_open on this monotone counter.
  size_t breaker_open_baseline_ = 0;
  uint64_t next_session_id_ = 1;

  /// Per-statement latency observations driving the hedge threshold.
  /// Guarded by mu_; keyed by canonical SQL.
  std::unordered_map<std::string, LatencyRing> latency_rings_;

  std::unique_ptr<CircuitBreaker> breaker_;
  std::unique_ptr<FaultInjector> fault_injector_;  // null unless configured

  std::mutex flight_mu_;
  std::condition_variable flight_cv_;
  std::set<std::string> in_flight_;

  std::shared_ptr<Session> default_session_;

  /// Declared last: destroyed first, draining queued work while the
  /// registry, caches, and sessions above are still alive.
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace runtime
}  // namespace vegaplus

#endif  // VEGAPLUS_RUNTIME_MIDDLEWARE_H_
