// Fault-tolerance tests for the middleware: deterministic fault injection,
// retry/backoff, deadlines, the per-statement circuit breaker, load
// shedding at the bounded worker queue, and graceful degradation (stale
// cache / coarser tile levels). Registered under the `chaos` ctest label
// (CI runs it under ASan/UBSan) and `concurrency` (TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "data/ipc.h"
#include "middleware_test_util.h"
#include "rewrite/vdt.h"
#include "runtime/middleware.h"
#include "transforms/binning.h"

namespace vegaplus {
namespace runtime {
namespace {

using rewrite::QueryRequest;
using rewrite::QueryResponse;

data::TablePtr CountingTable(int rows) {
  data::Schema schema({{"v", data::DataType::kFloat64}});
  data::TableBuilder builder(schema);
  for (int i = 0; i < rows; ++i) builder.AppendRow({data::Value::Double(i)});
  return builder.Build();
}

// Spin until the middleware has accounted for every submitted request.
void AwaitQuiescence(const Middleware& mw) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    Middleware::Stats s = mw.stats();
    if (s.queries + s.cancelled + s.errors >= s.submitted) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "middleware did not quiesce";
}

std::string Bytes(const data::Table& table) { return data::SerializeBinary(table); }

// A manual gate for before_dbms_execute: workers block inside the hook
// until Open() is called.
class Gate {
 public:
  std::function<void(const std::string&)> Hook() {
    return [this](const std::string&) {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    };
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

class FaultToleranceTest : public ::testing::Test {
 protected:
  void SetUp() override { engine_.RegisterTable("t", CountingTable(500)); }

  // Submit the shared counting template with one bound cut and await it.
  // Using Prepare + params (instead of literal-inlined SQL) keeps every cut
  // on ONE canonical statement — the circuit breaker's scope.
  static Result<QueryResponse> RunCut(Middleware& mw,
                                      rewrite::PreparedHandle handle,
                                      double cut) {
    QueryRequest request;
    request.handle = handle;
    request.params = {{"cut", expr::EvalValue::Number(cut)}};
    return mw.Submit(request)->Await();
  }

  sql::Engine engine_;
};

constexpr char kCutTemplate[] = "SELECT COUNT(*) AS c FROM t WHERE v < ${cut}";

// A backend that fails the first two attempts of every query must, with
// retries enabled, produce results bit-identical to a fault-free middleware
// — and the retry count must match the injected schedule exactly.
TEST_F(FaultToleranceTest, RetryRecoversBitIdenticalToFaultFree) {
  constexpr int kCuts = 5;

  Middleware clean(&engine_, {});

  MiddlewareOptions faulty_opts;
  faulty_opts.fault_injection = FaultInjectorOptions{};
  faulty_opts.fault_injection->rules.push_back(FaultRule{"", /*fail_times=*/2});
  faulty_opts.retry.initial_backoff_ms = 0.1;  // keep the test fast
  Middleware faulty(&engine_, faulty_opts);

  for (int i = 0; i < kCuts; ++i) {
    std::string sql =
        "SELECT COUNT(*) AS c FROM t WHERE v < " + std::to_string(100 + i);
    auto want = RunSql(clean, sql);
    auto got = RunSql(faulty, sql);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_TRUE(got.ok()) << got.status() << "\n" << sql;
    EXPECT_FALSE(got->degraded);
    EXPECT_EQ(got->source, QueryResponse::Source::kDbms);
    EXPECT_EQ(Bytes(*got->table), Bytes(*want->table)) << sql;
  }

  Middleware::Stats stats = faulty.stats();
  EXPECT_EQ(stats.retries, 2u * kCuts);  // exactly the injected schedule
  EXPECT_EQ(stats.dbms_executions, static_cast<size_t>(kCuts));
  EXPECT_EQ(stats.errors, 0u);
  ASSERT_NE(faulty.fault_injector(), nullptr);
  EXPECT_EQ(faulty.fault_injector()->injected_failures(), 2u * kCuts);
  EXPECT_EQ(faulty.fault_injector()->attempts(), 3u * kCuts);
}

// A permanent outage exhausts the retry budget once, opens the breaker, and
// from then on fails fast with kUnavailable — without spending further
// backend attempts on a statement known to be dead.
TEST_F(FaultToleranceTest, PermanentOutageFailsFastViaBreaker) {
  MiddlewareOptions options;
  options.fault_injection = FaultInjectorOptions{};
  options.fault_injection->rules.push_back(FaultRule{"", 0, /*permanent=*/true});
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 0.1;
  options.circuit_breaker.failure_threshold = 2;
  options.circuit_breaker.clock_ms = [] { return 0.0; };  // frozen: stays open
  Middleware mw(&engine_, options);
  auto handle = mw.Prepare(kCutTemplate);
  ASSERT_TRUE(handle.ok());

  auto first = RunCut(mw, *handle, 100);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.status().IsUnavailable()) << first.status();
  EXPECT_EQ(mw.fault_injector()->attempts(), 2u);
  EXPECT_EQ(mw.stats().breaker_open, 1u);

  // Different parameters, same statement scope: no backend attempt at all.
  auto second = RunCut(mw, *handle, 200);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsUnavailable());
  EXPECT_NE(second.status().message().find("circuit breaker"), std::string::npos)
      << second.status();
  EXPECT_EQ(mw.fault_injector()->attempts(), 2u) << "fast-fail hit the backend";

  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.retries, 1u);  // only the first request retried
}

// Open -> half-open -> closed: once the open window elapses, a single probe
// is admitted; its success closes the breaker and normal service resumes.
TEST_F(FaultToleranceTest, BreakerHalfOpenProbeClosesAfterRecovery) {
  auto clock = std::make_shared<std::atomic<double>>(0.0);
  MiddlewareOptions options;
  options.fault_injection = FaultInjectorOptions{};
  options.fault_injection->rules.push_back(FaultRule{"", 0, /*permanent=*/true});
  options.retry.max_attempts = 1;  // breaker transitions, not retries
  options.circuit_breaker.failure_threshold = 2;
  options.circuit_breaker.open_ms = 250.0;
  options.circuit_breaker.clock_ms = [clock] { return clock->load(); };
  Middleware mw(&engine_, options);
  auto handle = mw.Prepare(kCutTemplate);
  ASSERT_TRUE(handle.ok());

  EXPECT_FALSE(RunCut(mw, *handle, 100).ok());
  EXPECT_FALSE(RunCut(mw, *handle, 101).ok());
  EXPECT_EQ(mw.stats().breaker_open, 1u);

  // Still inside the open window: fast fail, no backend attempt.
  EXPECT_FALSE(RunCut(mw, *handle, 102).ok());
  EXPECT_EQ(mw.fault_injector()->attempts(), 2u);

  // Backend recovers; the open window elapses; the probe closes the breaker.
  mw.fault_injector()->ClearRules();
  clock->store(300.0);
  auto probe = RunCut(mw, *handle, 103);
  ASSERT_TRUE(probe.ok()) << probe.status();
  EXPECT_EQ(probe->source, QueryResponse::Source::kDbms);
  auto after = RunCut(mw, *handle, 104);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(mw.stats().breaker_open, 1u);  // never re-opened
}

// Regression (review): a half-open probe that draws a *non-transient* error
// records neither success nor failure — it must release the probe slot
// (re-arming the open window) instead of wedging the breaker in half-open,
// where it would reject every request forever even after recovery.
TEST_F(FaultToleranceTest, BreakerProbeAbandonedOnNonTransientError) {
  auto clock = std::make_shared<std::atomic<double>>(0.0);
  MiddlewareOptions options;
  options.fault_injection = FaultInjectorOptions{};
  options.fault_injection->rules.push_back(FaultRule{"", 0, /*permanent=*/true});
  options.retry.max_attempts = 1;
  options.circuit_breaker.failure_threshold = 2;
  options.circuit_breaker.open_ms = 250.0;
  options.circuit_breaker.clock_ms = [clock] { return clock->load(); };
  Middleware mw(&engine_, options);
  auto handle = mw.Prepare(kCutTemplate);
  ASSERT_TRUE(handle.ok());

  EXPECT_FALSE(RunCut(mw, *handle, 100).ok());
  EXPECT_FALSE(RunCut(mw, *handle, 101).ok());
  EXPECT_EQ(mw.stats().breaker_open, 1u);

  // The open window elapses; the probe draws an injected parse error, which
  // is surfaced as-is and says nothing about backend health.
  mw.fault_injector()->ClearRules();
  mw.fault_injector()->AddRule(
      FaultRule{"", 0, /*permanent=*/true, 0, 0, StatusCode::kParseError});
  clock->store(300.0);
  auto probe = RunCut(mw, *handle, 102);
  ASSERT_FALSE(probe.ok());
  EXPECT_TRUE(probe.status().IsParseError()) << probe.status();
  EXPECT_EQ(mw.fault_injector()->attempts(), 3u);

  // The abandoned probe re-armed the open window: inside it, fast fail with
  // no backend attempt (NOT a wedged half-open rejecting forever).
  auto inside = RunCut(mw, *handle, 103);
  ASSERT_FALSE(inside.ok());
  EXPECT_TRUE(inside.status().IsUnavailable()) << inside.status();
  EXPECT_EQ(mw.fault_injector()->attempts(), 3u);

  // Backend recovers; after the restarted window a fresh probe closes it.
  mw.fault_injector()->ClearRules();
  clock->store(600.0);
  auto recovered = RunCut(mw, *handle, 104);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->source, QueryResponse::Source::kDbms);
  EXPECT_EQ(mw.stats().breaker_open, 1u);  // abandonment is not a transition
}

// Regression (review): a half-open probe whose deadline expires before the
// backend runs (stalled by the injector) likewise abandons its probe slot;
// once the backend recovers the breaker can still probe and close.
TEST_F(FaultToleranceTest, BreakerProbeAbandonedOnDeadlineExpiry) {
  auto clock = std::make_shared<std::atomic<double>>(0.0);
  MiddlewareOptions options;
  options.fault_injection = FaultInjectorOptions{};
  options.fault_injection->rules.push_back(FaultRule{"", 0, /*permanent=*/true});
  options.retry.max_attempts = 1;
  options.circuit_breaker.failure_threshold = 2;
  options.circuit_breaker.open_ms = 250.0;
  options.circuit_breaker.clock_ms = [clock] { return clock->load(); };
  Middleware mw(&engine_, options);
  auto handle = mw.Prepare(kCutTemplate);
  ASSERT_TRUE(handle.ok());

  EXPECT_FALSE(RunCut(mw, *handle, 100).ok());
  EXPECT_FALSE(RunCut(mw, *handle, 101).ok());
  EXPECT_EQ(mw.stats().breaker_open, 1u);

  // The probe stalls past its deadline and exits without a verdict.
  mw.fault_injector()->ClearRules();
  mw.fault_injector()->AddRule(FaultRule{"", 0, false, 0, /*stall_ms=*/10000});
  clock->store(300.0);
  QueryRequest request;
  request.handle = *handle;
  request.params = {{"cut", expr::EvalValue::Number(102)}};
  request.deadline_ms = 100;
  auto expired = mw.Submit(request)->Await();
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsDeadlineExceeded()) << expired.status();

  // Backend recovers; the re-armed window elapses; a new probe succeeds.
  mw.fault_injector()->ClearRules();
  clock->store(600.0);
  auto recovered = RunCut(mw, *handle, 103);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->source, QueryResponse::Source::kDbms);
  auto after = RunCut(mw, *handle, 104);
  ASSERT_TRUE(after.ok()) << after.status();
}

// A deadline that expires while the request is already on a worker resolves
// as kDeadlineExceeded: the deadline gates *starting* backend work.
TEST_F(FaultToleranceTest, DeadlineExpiryMidFlight) {
  Gate gate;
  MiddlewareOptions options;
  options.before_dbms_execute = gate.Hook();
  Middleware mw(&engine_, options);

  auto handle = mw.Prepare("SELECT COUNT(*) AS c FROM t WHERE v < ${cut}");
  ASSERT_TRUE(handle.ok());
  QueryRequest request;
  request.handle = *handle;
  request.params = {{"cut", expr::EvalValue::Number(100)}};
  request.deadline_ms = 40;
  auto ticket = mw.Submit(request);

  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  gate.Open();
  auto response = ticket->Await();
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded()) << response.status();

  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.dbms_executions, 0u);
}

// QueryTicket::Await(timeout) is a wait with a timeout, not a cancellation:
// the request stays in flight, and a later Await still gets the result.
TEST_F(FaultToleranceTest, AwaitTimeoutDoesNotCancelTheRequest) {
  Gate gate;
  MiddlewareOptions options;
  options.before_dbms_execute = gate.Hook();
  Middleware mw(&engine_, options);

  auto handle = mw.Prepare("SELECT COUNT(*) AS c FROM t WHERE v < ${cut}");
  ASSERT_TRUE(handle.ok());
  QueryRequest request;
  request.handle = *handle;
  request.params = {{"cut", expr::EvalValue::Number(123)}};
  auto ticket = mw.Submit(request);

  auto timed_out = ticket->Await(std::chrono::milliseconds(10));
  ASSERT_FALSE(timed_out.ok());
  EXPECT_TRUE(timed_out.status().IsDeadlineExceeded());
  EXPECT_FALSE(ticket->done());

  gate.Open();
  auto response = ticket->Await();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->table->column(0).NumericAt(0), 123.0);

  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

// When fresh execution is impossible, a previously archived result is served
// bit-identically, marked stale+degraded — even after ClearCaches.
TEST_F(FaultToleranceTest, StaleCacheServedBitIdenticalUnderOutage) {
  MiddlewareOptions options;
  options.fault_injection = FaultInjectorOptions{};  // healthy until told
  options.retry.initial_backoff_ms = 0.1;
  Middleware mw(&engine_, options);

  const std::string sql = "SELECT COUNT(*) AS c FROM t WHERE v < 250";
  auto fresh = RunSql(mw, sql);
  ASSERT_TRUE(fresh.ok()) << fresh.status();

  mw.ClearCaches();  // drops both cache tiers; the stale archive survives
  mw.fault_injector()->AddRule(FaultRule{"", 0, /*permanent=*/true});

  auto degraded = RunSql(mw, sql);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->source, QueryResponse::Source::kStaleCache);
  EXPECT_EQ(Bytes(*degraded->table), Bytes(*fresh->table));

  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.degraded_responses, 1u);
  EXPECT_EQ(stats.retries, 2u);  // default budget spent before degrading
  EXPECT_EQ(stats.errors, 0u);   // the client got an answer

  // Degraded serving can be turned off: same situation, hard error instead.
  MiddlewareOptions strict = options;
  strict.enable_degraded_serving = false;
  strict.fault_injection->rules.push_back(FaultRule{"", 0, /*permanent=*/true});
  Middleware strict_mw(&engine_, strict);
  auto err = RunSql(strict_mw, sql);
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsUnavailable());
}

// With no stale entry to fall back on, a tile-shaped query is answered from
// a *coarser* already-built zoom level — exact at that resolution, marked
// degraded — instead of erroring out.
TEST_F(FaultToleranceTest, CoarserTileLevelServedWhenBackendDown) {
  const std::string bin0 = "${start} + FLOOR((v - ${start}) / ${step}) * ${step}";
  const std::string sql = "SELECT " + bin0 + " AS bin0, (" + bin0 +
                          ") + ${step} AS bin1, COUNT(*) AS c FROM t GROUP BY " +
                          bin0 + ", (" + bin0 + ") + ${step}";

  MiddlewareOptions options;
  options.enable_client_cache = false;
  options.enable_server_cache = false;
  options.tile_options.max_maxbins = 4;  // only coarse levels get built
  options.fault_injection = FaultInjectorOptions{};
  options.fault_injection->rules.push_back(FaultRule{"", 0, /*permanent=*/true});
  options.retry.max_attempts = 1;
  Middleware mw(&engine_, options);
  ASSERT_NE(mw.tile_store(), nullptr);

  // Request a finer binning than any built level: the exact tile probe
  // misses, the DBMS is down, and the degraded probe picks the finest built
  // level at or above the requested step.
  transforms::Binning fine = transforms::ComputeBinning(0, 499, 64);
  auto handle = mw.Prepare(sql);
  ASSERT_TRUE(handle.ok()) << handle.status();
  QueryRequest request;
  request.handle = *handle;
  request.params = {{"start", expr::EvalValue::Number(fine.start)},
                    {"step", expr::EvalValue::Number(fine.step)}};
  auto degraded = mw.Submit(request)->Await();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded->degraded);
  EXPECT_EQ(degraded->source, QueryResponse::Source::kTileStore);
  EXPECT_EQ(mw.tile_store()->stats().degraded_hits, 1u);
  EXPECT_EQ(mw.stats().degraded_responses, 1u);

  // The degraded answer must be bit-identical to honestly executing the
  // same template at the coarser level it came from: the finest binning
  // with step >= the requested one among maxbins 1..4.
  transforms::Binning coarse = transforms::ComputeBinning(0, 499, 1);
  for (int maxbins = 2; maxbins <= 4; ++maxbins) {
    transforms::Binning b = transforms::ComputeBinning(0, 499, maxbins);
    if (b.step >= fine.step && b.step < coarse.step) coarse = b;
  }
  MiddlewareOptions plain;
  plain.enable_client_cache = false;
  plain.enable_server_cache = false;
  plain.engine_config = EngineConfig::Current();
  plain.engine_config->tile_serving = false;
  Middleware base(&engine_, plain);
  auto base_handle = base.Prepare(sql);
  ASSERT_TRUE(base_handle.ok());
  QueryRequest base_request;
  base_request.handle = *base_handle;
  base_request.params = {{"start", expr::EvalValue::Number(coarse.start)},
                         {"step", expr::EvalValue::Number(coarse.step)}};
  auto want = base.Submit(base_request)->Await();
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(Bytes(*degraded->table), Bytes(*want->table));
}

// Saturation: one worker blocked, a queue bound of 2 — most of an 8-thread
// burst is shed as kUnavailable, stats stay coherent, and the pool's
// rejected count matches the shed stat exactly.
TEST_F(FaultToleranceTest, ShedsLoadUnderSaturationCoherently) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;

  Gate gate;
  MiddlewareOptions options;
  options.worker_threads = 1;
  options.max_queue_depth = 2;
  options.before_dbms_execute = gate.Hook();
  Middleware mw(&engine_, options);

  std::vector<rewrite::QueryTicketPtr> tickets(kThreads * kPerThread);
  std::vector<std::shared_ptr<Session>> sessions(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int tid = 0; tid < kThreads; ++tid) {
      threads.emplace_back([&, tid] {
        sessions[tid] = mw.CreateSession();
        auto handle =
            sessions[tid]->Prepare("SELECT COUNT(*) AS c FROM t WHERE v < ${cut}");
        ASSERT_TRUE(handle.ok());
        for (int i = 0; i < kPerThread; ++i) {
          QueryRequest request;
          request.handle = *handle;
          // Distinct cut per submission: no single-flight collapse.
          request.params = {
              {"cut", expr::EvalValue::Number(tid * kPerThread + i + 1)}};
          tickets[tid * kPerThread + i] = sessions[tid]->Submit(request);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  gate.Open();

  size_t ok = 0, shed = 0;
  for (const auto& ticket : tickets) {
    auto response = ticket->Await();
    if (response.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(response.status().IsUnavailable()) << response.status();
      EXPECT_NE(response.status().message().find("shed"), std::string::npos);
      ++shed;
    }
  }
  AwaitQuiescence(mw);

  EXPECT_GT(shed, 0u);
  EXPECT_GE(ok, 1u);  // the blocked task plus anything queued still lands
  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.submitted, static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.shed, mw.worker_pool().rejected_count());
  EXPECT_EQ(stats.errors, stats.shed);
  EXPECT_EQ(stats.queries + stats.cancelled + stats.errors, stats.submitted);
  EXPECT_EQ(mw.worker_pool().queue_depth(), 0u);
}

// Per-session admission fairness: when one session floods the bounded queue,
// it is the one shed — a light session arriving at the already-saturated
// queue is still admitted (it bypasses the bound), so a runaway dashboard
// cannot starve other clients.
TEST_F(FaultToleranceTest, ShedsHeaviestSessionFirstAtSaturatedQueue) {
  Gate gate;
  MiddlewareOptions options;
  options.worker_threads = 1;
  options.max_queue_depth = 2;
  options.before_dbms_execute = gate.Hook();
  Middleware mw(&engine_, options);

  auto heavy = mw.CreateSession();
  auto light = mw.CreateSession();
  auto heavy_handle = heavy->Prepare(kCutTemplate);
  auto light_handle =
      light->Prepare("SELECT COUNT(*) AS c FROM t WHERE v >= ${cut}");
  ASSERT_TRUE(heavy_handle.ok());
  ASSERT_TRUE(light_handle.ok());

  // Flood from the heavy session: one request occupies the (gated) worker,
  // two fill the queue, the rest are shed — heavy is always the heaviest
  // submitter, so the bound applies to it in full.
  constexpr int kHeavy = 8;
  std::vector<rewrite::QueryTicketPtr> heavy_tickets;
  for (int i = 0; i < kHeavy; ++i) {
    QueryRequest request;
    request.handle = *heavy_handle;
    // Distinct cut per submission: no single-flight collapse.
    request.params = {{"cut", expr::EvalValue::Number(i + 1)}};
    heavy_tickets.push_back(heavy->Submit(request));
  }

  // The queue is now saturated entirely by heavy's tasks; light's own
  // queued count (0, then 1) stays strictly below heavy's, so both of its
  // submissions must be admitted past the bound.
  std::vector<rewrite::QueryTicketPtr> light_tickets;
  for (int i = 0; i < 2; ++i) {
    QueryRequest request;
    request.handle = *light_handle;
    request.params = {{"cut", expr::EvalValue::Number(i + 1)}};
    light_tickets.push_back(light->Submit(request));
  }

  gate.Open();
  size_t heavy_shed = 0;
  for (const auto& ticket : heavy_tickets) {
    auto response = ticket->Await();
    if (!response.ok()) {
      ASSERT_TRUE(response.status().IsUnavailable()) << response.status();
      ++heavy_shed;
    }
  }
  for (const auto& ticket : light_tickets) {
    auto response = ticket->Await();
    EXPECT_TRUE(response.ok()) << response.status();
  }
  AwaitQuiescence(mw);

  EXPECT_GT(heavy_shed, 0u);
  EXPECT_EQ(heavy->stats().shed, heavy_shed);
  EXPECT_EQ(light->stats().shed, 0u);
  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.shed, heavy_shed);
  EXPECT_EQ(stats.shed, mw.worker_pool().rejected_count());
  EXPECT_EQ(mw.worker_pool().queue_depth(), 0u);
}

// 8 threads against a flaky, stalling backend with retries, supersession,
// and occasional deadlines: every ticket resolves, failure codes are only
// the expected ones, and the fleet stats add up at quiescence.
TEST_F(FaultToleranceTest, ChaosStressStatsStayCoherent) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 30;

  MiddlewareOptions options;
  options.fault_injection = FaultInjectorOptions{};
  options.fault_injection->seed = 7;
  options.fault_injection->rules.push_back(
      FaultRule{"", 0, false, /*fail_probability=*/0.25, /*stall_ms=*/0.05});
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_ms = 0.1;
  options.circuit_breaker.failure_threshold = 1000;  // stress retries, not trips
  Middleware mw(&engine_, options);

  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      auto session = mw.CreateSession();
      auto handle =
          session->Prepare("SELECT COUNT(*) AS c FROM t WHERE v < ${cut}");
      if (!handle.ok()) {
        ++unexpected;
        return;
      }
      uint64_t generation = 0;
      for (int i = 0; i < kIterations; ++i) {
        QueryRequest request;
        request.handle = *handle;
        request.params = {
            {"cut", expr::EvalValue::Number(25.0 * (1 + (i + tid) % 9))}};
        request.generation = ++generation;
        if (i % 5 == 4) request.deadline_ms = 5;
        auto ticket = session->Submit(request);
        auto response = ticket->Await();
        if (response.ok()) continue;
        const Status& st = response.status();
        if (!st.IsCancelled() && !st.IsUnavailable() && !st.IsDeadlineExceeded()) {
          ++unexpected;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  AwaitQuiescence(mw);

  EXPECT_EQ(unexpected.load(), 0);
  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.queries + stats.cancelled + stats.errors, stats.submitted);
  EXPECT_EQ(stats.submitted, static_cast<size_t>(kThreads * kIterations));
  EXPECT_GT(mw.fault_injector()->attempts(), 0u);
  // Errors are attributable: nothing failed without a cause counter.
  EXPECT_LE(stats.deadline_exceeded + stats.shed, stats.errors);
}

// Property test over random schedules of the request path. Each seed draws a
// middleware (workers, queue bound, retry attempts, hedging, degraded
// serving, breaker threshold and open window), a fault schedule (failure
// probability, fail-N, permanent outage, a stall on one key) and, for
// threads sharing each session, the params, generations, deadlines and
// explicit cancels of every request. Whatever the interleaving:
//   * every ticket resolves and the stats count each request exactly once;
//   * the documented subset relations of Middleware::Stats hold;
//   * every non-degraded answer is byte-identical to the engine's;
//   * once the faults clear and the breaker window has passed, a
//     never-cached request gets a fresh DBMS answer (no breaker wedged).
// Summed over the seeds every mechanism must have been reached, so the
// properties cannot hold vacuously.
TEST_F(FaultToleranceTest, RandomSchedulesKeepTheRequestPathCoherent) {
  constexpr uint64_t kSeeds = 16;
  constexpr int kSessions = 2;
  constexpr int kThreadsPerSession = 2;
  constexpr int kRequestsPerThread = 16;
  constexpr size_t kWarmCuts = 6;  // cuts archived before the faults start
  constexpr char kTemplate[] =
      "SELECT COUNT(*) AS c, SUM(v) AS s FROM t WHERE v < ${cut}";
  // Three-digit cuts: no cut's key segment is a substring of another's, so
  // the stall rule hits exactly one key.
  std::vector<int> cuts;
  for (int cut = 110; cut <= 220; cut += 10) cuts.push_back(cut);

  std::map<int, std::string> want;
  auto expected = [&](int cut) -> const std::string& {
    auto it = want.find(cut);
    if (it == want.end()) {
      auto result = engine_.Query("SELECT COUNT(*) AS c, SUM(v) AS s FROM t WHERE v < " +
                                  std::to_string(cut));
      EXPECT_TRUE(result.ok()) << result.status();
      it = want.emplace(cut, result.ok() ? Bytes(*result->table) : "").first;
    }
    return it->second;
  };
  for (int cut : cuts) expected(cut);

  // Bounded waits: a miscount or a lost ticket fails within seconds.
  const auto quiesced = [](const Middleware& mw) {
    const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < limit) {
      Middleware::Stats s = mw.stats();
      if (s.queries + s.cancelled + s.errors == s.submitted &&
          mw.worker_pool().queue_depth() == 0) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };

  struct Planned {
    int cut;
    uint64_t generation;
    uint64_t client_id;
    double deadline_ms;
    bool cancel;
  };

  size_t degraded = 0, hedge_wins = 0, retries = 0, breaker_opens = 0, sheds = 0,
         deadline_errors = 0;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    MiddlewareOptions options;
    options.worker_threads = static_cast<size_t>(rng.UniformInt(1, 4));
    options.max_queue_depth = rng.NextBool() ? static_cast<size_t>(rng.UniformInt(1, 4)) : 0;
    options.retry.max_attempts = static_cast<size_t>(rng.UniformInt(1, 3));
    options.retry.initial_backoff_ms = rng.Uniform(0.1, 3);
    options.hedge.enabled = rng.NextBool(0.75);
    options.hedge.fixed_threshold_ms = rng.Uniform(1, 3);
    options.enable_degraded_serving = rng.NextBool();
    options.circuit_breaker.failure_threshold = static_cast<size_t>(rng.UniformInt(1, 6));
    options.circuit_breaker.open_ms = rng.Uniform(2, 20);
    options.fault_injection = FaultInjectorOptions{};
    options.fault_injection->seed = seed;
    Middleware mw(&engine_, options);
    auto handle = mw.Prepare(kTemplate);
    ASSERT_TRUE(handle.ok()) << handle.status();

    // Archive results while the backend is healthy, then drop the cache
    // tiers, so failures have something to degrade to.
    for (size_t i = 0; i < kWarmCuts; ++i) ASSERT_TRUE(RunCut(mw, *handle, cuts[i]).ok());
    mw.ClearCaches();

    // First matching rule wins: the stalled key never fails, and every other
    // key draws from the failure schedule. That schedule matches either every
    // key or only the primaries' ("cut=" is not in the hedge's opaque key).
    const int stalled = cuts[rng.Index(cuts.size())];
    mw.fault_injector()->AddRule(
        FaultRule{"cut=" + std::to_string(stalled), 0, false, 0, rng.Uniform(5, 30)});
    FaultRule failing;
    failing.match = rng.NextBool() ? "" : "cut=";
    failing.fail_times = static_cast<size_t>(rng.UniformInt(0, 2));
    failing.fail_probability = rng.Uniform(0, 0.5);
    failing.permanent = rng.NextBool(0.2);
    mw.fault_injector()->AddRule(failing);

    // Every thread's requests are drawn up front, so a seed replays the same
    // requests whatever the interleaving.
    std::vector<std::vector<Planned>> plans(kSessions * kThreadsPerSession);
    std::vector<size_t> bursts(plans.size());
    for (size_t t = 0; t < plans.size(); ++t) {
      bursts[t] = static_cast<size_t>(rng.UniformInt(1, 4));
      for (int i = 0; i < kRequestsPerThread; ++i) {
        Planned p;
        p.cut = cuts[rng.Index(cuts.size())];
        p.generation = rng.NextBool() ? 0 : static_cast<uint64_t>(rng.UniformInt(1, 40));
        p.client_id = static_cast<uint64_t>(rng.UniformInt(0, 3));
        p.deadline_ms = rng.NextBool(0.4) ? rng.Uniform(0.2, 10) : 0;
        p.cancel = rng.NextBool(0.15);
        plans[t].push_back(p);
      }
    }

    std::vector<std::shared_ptr<Session>> sessions;
    for (int s = 0; s < kSessions; ++s) sessions.push_back(mw.CreateSession());
    std::atomic<int> unexpected{0}, unresolved{0}, wrong_bytes{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < plans.size(); ++t) {
      threads.emplace_back([&, t] {
        Session& session = *sessions[t / kThreadsPerSession];
        std::vector<std::pair<int, rewrite::QueryTicketPtr>> inflight;
        auto drain = [&] {
          for (auto& [cut, ticket] : inflight) {
            auto response = ticket->Await(std::chrono::seconds(5));
            if (!ticket->done()) {
              ++unresolved;
            } else if (response.ok()) {
              if (!response->degraded && Bytes(*response->table) != want.at(cut)) {
                ++wrong_bytes;
              }
            } else {
              const Status& st = response.status();
              if (!st.IsCancelled() && !st.IsUnavailable() && !st.IsDeadlineExceeded()) {
                ++unexpected;
              }
            }
          }
          inflight.clear();
        };
        for (const Planned& p : plans[t]) {
          QueryRequest request;
          request.handle = *handle;
          request.params = {{"cut", expr::EvalValue::Number(p.cut)}};
          request.generation = p.generation;
          request.client_id = p.client_id;
          request.deadline_ms = p.deadline_ms;
          auto ticket = session.Submit(request);
          if (p.cancel) ticket->Cancel();
          inflight.emplace_back(p.cut, std::move(ticket));
          if (inflight.size() >= bursts[t]) drain();
        }
        drain();
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(unresolved.load(), 0);
    EXPECT_EQ(unexpected.load(), 0);
    EXPECT_EQ(wrong_bytes.load(), 0);

    ASSERT_TRUE(quiesced(mw)) << "stats never accounted for every request";
    Middleware::Stats s = mw.stats();
    EXPECT_EQ(s.queries + s.cancelled + s.errors, s.submitted);
    EXPECT_LE(s.deadline_exceeded + s.shed, s.errors);
    EXPECT_LE(s.degraded_responses, s.queries);
    EXPECT_LE(s.hedge_wins, s.hedged_requests);
    degraded += s.degraded_responses;
    hedge_wins += s.hedge_wins;
    retries += s.retries;
    breaker_opens += s.breaker_open;
    sheds += s.shed;
    deadline_errors += s.deadline_exceeded;

    // Recovery: with the faults gone and the open window over, cuts no tier
    // has seen must be answered fresh — the first may be the half-open
    // probe, the second proves the probe closed the breaker.
    mw.fault_injector()->ClearRules();
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(options.circuit_breaker.open_ms + 5));
    for (int fresh_cut : {300 + static_cast<int>(seed), 400 + static_cast<int>(seed)}) {
      auto fresh = RunCut(mw, *handle, fresh_cut);
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_EQ(fresh->source, QueryResponse::Source::kDbms);
      EXPECT_FALSE(fresh->degraded);
      EXPECT_EQ(Bytes(*fresh->table), expected(fresh_cut));
    }
  }
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(hedge_wins, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_GT(breaker_opens, 0u);
  EXPECT_GT(sheds, 0u);
  EXPECT_GT(deadline_errors, 0u);
}

// A success reported late — by an execution admitted before the breaker
// opened — must not close an open breaker and bypass the open_ms window
// (symmetric with how RecordFailure ignores late reports while open).
TEST(CircuitBreakerTest, LateSuccessWhileOpenIsIgnored) {
  double now = 0;
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_ms = 100.0;
  options.clock_ms = [&now] { return now; };
  CircuitBreaker breaker(options);

  EXPECT_TRUE(breaker.Admit("s"));
  breaker.RecordFailure("s");
  ASSERT_EQ(breaker.state("s"), CircuitBreaker::State::kOpen);

  breaker.RecordSuccess("s");  // straggler from a pre-open admission
  EXPECT_EQ(breaker.state("s"), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Admit("s")) << "late success bypassed the open window";

  now = 150;
  bool is_probe = false;
  EXPECT_TRUE(breaker.Admit("s", &is_probe));
  EXPECT_TRUE(is_probe);
  breaker.RecordSuccess("s");  // the probe's own success does close it
  EXPECT_EQ(breaker.state("s"), CircuitBreaker::State::kClosed);
}

// AbandonProbe releases a probe slot whose holder will never report,
// re-arming the open window instead of wedging the breaker half-open.
TEST(CircuitBreakerTest, AbandonProbeReArmsTheOpenWindow) {
  double now = 0;
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.open_ms = 100.0;
  options.clock_ms = [&now] { return now; };
  CircuitBreaker breaker(options);

  EXPECT_TRUE(breaker.Admit("s"));
  breaker.RecordFailure("s");
  now = 150;
  bool is_probe = false;
  ASSERT_TRUE(breaker.Admit("s", &is_probe));
  ASSERT_TRUE(is_probe);
  EXPECT_FALSE(breaker.Admit("s"));  // one probe at a time

  breaker.AbandonProbe("s");
  EXPECT_EQ(breaker.state("s"), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.open_transitions(), 1u);  // not a failure transition
  EXPECT_FALSE(breaker.Admit("s"));  // window restarted at abandon time

  now = 300;
  is_probe = false;
  EXPECT_TRUE(breaker.Admit("s", &is_probe));
  EXPECT_TRUE(is_probe);
  breaker.RecordSuccess("s");
  EXPECT_EQ(breaker.state("s"), CircuitBreaker::State::kClosed);
}

// The injector's per-key attempt map only tracks keys some rule matches:
// a long chaos bench over millions of distinct healthy queries must not
// grow it without bound.
TEST(FaultInjectorTest, TracksAttemptsOnlyForRuleMatchedKeys) {
  FaultInjector quiet((FaultInjectorOptions{}));  // no rules at all
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(quiet.OnDbmsExecute("query-" + std::to_string(i)).fail);
  }
  EXPECT_EQ(quiet.tracked_keys(), 0u);
  EXPECT_EQ(quiet.attempts(), 100u);

  FaultInjectorOptions options;
  options.rules.push_back(FaultRule{"orders", /*fail_times=*/1});
  FaultInjector injector(std::move(options));
  EXPECT_TRUE(injector.OnDbmsExecute("SELECT c FROM orders").fail);
  EXPECT_FALSE(injector.OnDbmsExecute("SELECT c FROM users").fail);
  EXPECT_FALSE(injector.OnDbmsExecute("SELECT c FROM orders").fail);  // recovered
  EXPECT_EQ(injector.tracked_keys(), 1u);  // only the matched key
  EXPECT_EQ(injector.attempts(), 3u);      // all attempts still counted
}

}  // namespace
}  // namespace runtime
}  // namespace vegaplus
