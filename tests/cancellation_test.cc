// Cooperative cancellation tests: deadline propagation into morsel
// execution (a mid-scan abort must stop a 4M-row shard scan at a chunk
// checkpoint, not after it), storage-layer fault injection through the
// page-in hook, single-flight leader cancellation (middleware and tile
// store — a dead leader must not poison followers), hedged requests racing
// injected stalls (fixed and adaptive thresholds) or losing to a fast
// primary, bit-identity of a live but never-firing token, and an 8-thread
// cancel storm. Registered under the `chaos` ctest label (CI runs it under
// ASan/UBSan) and `concurrency` (TSan).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "data/ipc.h"
#include "data/table.h"
#include "exec_test_util.h"
#include "middleware_test_util.h"
#include "runtime/middleware.h"
#include "sql/engine.h"
#include "storage/reader.h"
#include "storage/table_shard.h"
#include "tiles/tile_store.h"
#include "transforms/binning.h"

namespace vegaplus {
namespace runtime {
namespace {

using data::TablePtr;
using rewrite::QueryRequest;
using rewrite::QueryResponse;

constexpr size_t kShardRows = 4'000'000;
constexpr size_t kChunkRows = 65'536;  // ~61 chunks

std::string Bytes(const data::Table& table) { return data::SerializeBinary(table); }

data::TablePtr CountingTable(int rows) {
  data::Column v(data::DataType::kFloat64);
  for (int i = 0; i < rows; ++i) v.AppendDouble(static_cast<double>(i));
  std::vector<data::Column> cols;
  cols.push_back(std::move(v));
  return std::make_shared<data::Table>(
      data::Schema({{"v", data::DataType::kFloat64}}), std::move(cols));
}

// Spin until the middleware has accounted for every submitted request.
void AwaitQuiescence(const Middleware& mw) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    Middleware::Stats s = mw.stats();
    if (s.queries + s.cancelled + s.errors >= s.submitted) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "middleware did not quiesce";
}

// Bridge storage page-ins into a FaultInjector for the lifetime of one test.
// The hook does its own stalling (storage cannot sleep on our behalf), and
// the guard always unhooks — a leaked hook would fault unrelated suites.
class PageInFaultGuard {
 public:
  explicit PageInFaultGuard(FaultInjector* injector) {
    storage::SetPageInFaultHook(
        [injector](const std::string& path, size_t chunk_index) -> Status {
          FaultDecision fate = injector->OnStoragePageIn(path, chunk_index);
          if (fate.stall_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(fate.stall_ms));
          }
          if (fate.fail) return fate.status;
          return Status();
        });
  }
  ~PageInFaultGuard() { storage::SetPageInFaultHook(nullptr); }
};

// One 4M-row shard shared by the whole suite (written once); every test
// opens its OWN Reader so chunk-cache state never leaks between tests.
class CancellationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(::testing::TempDir() + "vps_cancellation_4m.vps");
    data::Column v(data::DataType::kFloat64);
    for (size_t i = 0; i < kShardRows; ++i) {
      v.AppendDouble(static_cast<double>(i));
    }
    std::vector<data::Column> cols;
    cols.push_back(std::move(v));
    data::Table table(data::Schema({{"v", data::DataType::kFloat64}}),
                      std::move(cols));
    storage::WriteOptions opts;
    opts.chunk_rows = kChunkRows;
    ASSERT_TRUE(storage::TableShard::Write(*path_, table, opts).ok());
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    path_ = nullptr;
  }

  // Fresh reader over the shared shard: cold chunk cache.
  std::shared_ptr<storage::Reader> OpenShard() {
    auto reader = storage::Reader::Open(*path_);
    EXPECT_TRUE(reader.ok()) << reader.status();
    return reader.ok() ? *reader : nullptr;
  }

  static std::string* path_;
};

std::string* CancellationTest::path_ = nullptr;

constexpr char kCutTemplate[] = "SELECT COUNT(*) AS c FROM t WHERE v < ${cut}";

// The tentpole acceptance scenario: a deadline firing mid-scan must abort a
// running 4M-row shard scan at a chunk checkpoint — rows_scanned strictly
// between zero and the full scan — resolve the ticket kDeadlineExceeded,
// count one mid-flight cancellation, and leave the worker pool serving.
TEST_F(CancellationTest, DeadlineAbortsMidScanAtMorselCheckpoint) {
  sql::Engine engine;
  auto reader = OpenShard();
  ASSERT_NE(reader, nullptr);
  ASSERT_TRUE(engine.RegisterShardTable("t", reader).ok());

  MiddlewareOptions options;
  options.fault_injection = FaultInjectorOptions{};
  // 2ms per page-in: >120ms of stall over the whole scan.
  options.fault_injection->rules.push_back(
      FaultRule{"storage:", 0, false, 0, /*stall_ms=*/2.0});
  Middleware mw(&engine, options);
  PageInFaultGuard hook(mw.fault_injector());
  // Chunks page in as parallel morsels. Two at a time, the full scan needs
  // >60ms on any machine, so a 40ms deadline is guaranteed to fire with the
  // scan genuinely in progress.
  testutil::MorselConfigGuard two_page_ins(parallel::MorselRows(), /*threads=*/2);

  const size_t scanned_before = engine.lifetime_stats().rows_scanned;
  auto handle = mw.Prepare(kCutTemplate);
  ASSERT_TRUE(handle.ok()) << handle.status();
  QueryRequest request;
  request.handle = *handle;
  request.params = {{"cut", expr::EvalValue::Number(5'000'000)}};
  request.deadline_ms = 40;
  auto response = mw.Submit(request)->Await();
  ASSERT_FALSE(response.ok());
  EXPECT_TRUE(response.status().IsDeadlineExceeded()) << response.status();

  // The abort happened at a chunk checkpoint: some chunks were scanned (the
  // deadline fired mid-flight, not before execution), but strictly fewer
  // than the whole shard (the scan did not run to completion first).
  const size_t scanned = engine.lifetime_stats().rows_scanned - scanned_before;
  EXPECT_GT(scanned, 0u);
  EXPECT_LT(scanned, kShardRows);

  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.cancelled_mid_flight, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);

  // The worker was reclaimed, not wedged: the same pool serves fresh work.
  mw.fault_injector()->ClearRules();
  QueryRequest clean;
  clean.handle = *handle;
  clean.params = {{"cut", expr::EvalValue::Number(1'000)}};
  auto after = mw.Submit(clean)->Await();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->table->column(0).NumericAt(0), 1000.0);
  EXPECT_EQ(after->source, QueryResponse::Source::kDbms);
}

// Storage-layer chaos surfaces as Status through the ordinary retry
// machinery: a page-in fault on one chunk (deterministic per (seed, key,
// attempt)) fails the first execution, and the retry — which re-pages only
// the faulted chunk, the rest are cache-resident — succeeds bit-identically.
TEST_F(CancellationTest, StoragePageInFaultRetriesDeterministically) {
  sql::Engine engine;
  auto reader = OpenShard();
  ASSERT_NE(reader, nullptr);
  ASSERT_TRUE(engine.RegisterShardTable("t", reader).ok());

  MiddlewareOptions options;
  options.fault_injection = FaultInjectorOptions{};
  // Chunk 7 of this shard fails exactly once (kUnavailable: transient).
  options.fault_injection->rules.push_back(FaultRule{"#7", /*fail_times=*/1});
  options.retry.initial_backoff_ms = 0.1;
  Middleware mw(&engine, options);
  PageInFaultGuard hook(mw.fault_injector());

  auto got = RunSql(mw, "SELECT COUNT(*) AS c FROM t WHERE v < 1000000");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->table->column(0).NumericAt(0), 1'000'000.0);

  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.retries, 1u);  // exactly the injected chunk fault
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(mw.fault_injector()->injected_failures(), 1u);
}

// Single-flight under cancellation: the leader of a collapsed duplicate
// pair is cancelled mid-execution; the follower — parked with a live
// deadline — must NOT inherit Status::Cancelled. It claims the slot and
// completes with the fresh answer.
TEST_F(CancellationTest, CancelledLeaderDoesNotPoisonFollowers) {
  sql::Engine engine;
  auto reader = OpenShard();
  ASSERT_NE(reader, nullptr);
  ASSERT_TRUE(engine.RegisterShardTable("t", reader).ok());

  std::atomic<int> executions_started{0};
  MiddlewareOptions options;
  options.worker_threads = 2;
  options.fault_injection = FaultInjectorOptions{};
  // 1ms per page-in: the leader's scan is slow enough to be cancelled while
  // genuinely running.
  options.fault_injection->rules.push_back(
      FaultRule{"storage:", 0, false, 0, /*stall_ms=*/1.0});
  options.before_dbms_execute = [&](const std::string&) {
    ++executions_started;
  };
  Middleware mw(&engine, options);
  PageInFaultGuard hook(mw.fault_injector());

  auto leader_session = mw.CreateSession();
  auto follower_session = mw.CreateSession();
  auto leader_handle = leader_session->Prepare(kCutTemplate);
  auto follower_handle = follower_session->Prepare(kCutTemplate);
  ASSERT_TRUE(leader_handle.ok());
  ASSERT_TRUE(follower_handle.ok());

  QueryRequest request;
  request.handle = *leader_handle;
  request.params = {{"cut", expr::EvalValue::Number(3'000'000)}};
  auto leader = leader_session->Submit(request);

  // The leader holds the single-flight slot once its execution has started
  // (before_dbms_execute fires after EnterInFlight).
  while (executions_started.load() < 1) std::this_thread::yield();

  QueryRequest dup;
  dup.handle = *follower_handle;
  dup.params = request.params;  // same statement, same params: same key
  dup.deadline_ms = 30'000;     // live deadline, nowhere near expiry
  auto follower = follower_session->Submit(dup);
  std::this_thread::sleep_for(std::chrono::milliseconds(10));  // let it park

  ASSERT_TRUE(leader->Cancel());
  auto leader_result = leader->Await();
  ASSERT_FALSE(leader_result.ok());
  EXPECT_TRUE(leader_result.status().IsCancelled()) << leader_result.status();

  auto follower_result = follower->Await();
  ASSERT_TRUE(follower_result.ok()) << follower_result.status();
  EXPECT_FALSE(follower_result->degraded);
  EXPECT_EQ(follower_result->table->column(0).NumericAt(0), 3'000'000.0);

  Middleware::Stats stats = mw.stats();
  EXPECT_GE(stats.cancelled_mid_flight, 1u);  // the leader died mid-engine
  EXPECT_EQ(stats.queries, 1u);               // the follower's completion
}

// Tile-store single-flight: a first-touch build aborted by a fired token
// must release the building_ slot without caching anything — the next
// requester rebuilds and serves, instead of inheriting a poisoned entry.
TEST_F(CancellationTest, CancelledTileBuildLeaderLeavesSlotClean) {
  sql::Engine engine;
  engine.RegisterTable("t", CountingTable(500));
  tiles::TileStore store(&engine, {});

  transforms::Binning b = transforms::ComputeBinning(0, 499, 10);
  const std::string bin0 = std::to_string(b.start) + " + FLOOR((v - " +
                           std::to_string(b.start) + ") / " +
                           std::to_string(b.step) + ") * " +
                           std::to_string(b.step);
  const std::string sql = "SELECT " + bin0 + " AS bin0, (" + bin0 + ") + " +
                          std::to_string(b.step) +
                          " AS bin1, COUNT(*) AS c FROM t GROUP BY " + bin0 +
                          ", (" + bin0 + ") + " + std::to_string(b.step);
  auto stmt = sql::ParseSql(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status();

  common::CancelToken fired;
  fired.Cancel();
  EXPECT_FALSE(store.TryAnswer(**stmt, &fired).has_value());
  tiles::TileStoreStats after_abort = store.stats();
  EXPECT_EQ(after_abort.builds_aborted, 1u);
  EXPECT_EQ(after_abort.builds, 0u);  // nothing cached, no negative entry

  // The slot is free: the next requester builds (no build_conflict) and the
  // tree answers — bit-identical to honest execution.
  auto answer = store.TryAnswer(**stmt, nullptr);
  ASSERT_TRUE(answer.has_value());
  tiles::TileStoreStats after_build = store.stats();
  EXPECT_EQ(after_build.builds, 1u);
  EXPECT_EQ(after_build.build_conflicts, 0u);
  EXPECT_EQ(after_build.hits, 1u);

  auto want = engine.Query(sql);
  ASSERT_TRUE(want.ok()) << want.status();
  EXPECT_EQ(Bytes(*answer->table), Bytes(*want->table));
}

// Hedged requests: the primary draws an injected 400ms backend stall; past
// the 5ms hedge threshold a duplicate attempt runs clean (its injector key
// is opaque, so the stall rule does not match it) and its result is
// delivered long before the stall would have ended. The loser is abandoned
// through its child token.
TEST_F(CancellationTest, HedgeBeatsInjectedStall) {
  sql::Engine engine;
  engine.RegisterTable("t", CountingTable(500));

  MiddlewareOptions options;
  options.hedge.enabled = true;
  options.hedge.fixed_threshold_ms = 5;
  options.fault_injection = FaultInjectorOptions{};
  // Matches the primary's cache key (canonical SQL + "\x1f<param>=<literal>"
  // segments) but not the hedge's opaque "hedge:<hex digest>#1" key.
  options.fault_injection->rules.push_back(
      FaultRule{"cut=", 0, false, 0, /*stall_ms=*/400.0});
  Middleware mw(&engine, options);

  auto handle = mw.Prepare(kCutTemplate);
  ASSERT_TRUE(handle.ok());
  QueryRequest request;
  request.handle = *handle;
  request.params = {{"cut", expr::EvalValue::Number(123)}};
  const auto t0 = std::chrono::steady_clock::now();
  auto response = mw.Submit(request)->Await();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->table->column(0).NumericAt(0), 123.0);
  EXPECT_EQ(response->source, QueryResponse::Source::kDbms);
  EXPECT_FALSE(response->degraded);

  // The hedge's wall-clock win: nowhere near the 400ms stall. (Generous
  // bound — the point is ~10ms vs 400ms, not exact timing.)
  EXPECT_LT(elapsed_ms, 300.0);
  // And its simulated latency is charged on the hedge path: threshold plus
  // normal compute, not the injected stall.
  EXPECT_LT(response->latency_millis, 400.0);

  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.hedged_requests, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.errors, 0u);
}

// A primary that answers inside the hedge threshold settles the race: the
// queued hedge wakes, finds the race decided, and never reaches the backend.
TEST_F(CancellationTest, SettledRaceKeepsTheHedgeOffTheBackend) {
  sql::Engine engine;
  engine.RegisterTable("t", CountingTable(500));

  MiddlewareOptions options;
  options.hedge.enabled = true;
  options.hedge.fixed_threshold_ms = 100;
  options.fault_injection = FaultInjectorOptions{};  // no rules: it only counts attempts
  Middleware mw(&engine, options);

  auto handle = mw.Prepare(kCutTemplate);
  ASSERT_TRUE(handle.ok());
  QueryRequest request;
  request.handle = *handle;
  request.params = {{"cut", expr::EvalValue::Number(123)}};
  auto response = mw.Submit(request)->Await();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(mw.stats().hedged_requests, 1u);

  // Well past the threshold, an unsettled hedge would have made its attempt.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(mw.fault_injector()->attempts(), 1u);
  EXPECT_EQ(mw.stats().hedge_wins, 0u);
}

// The adaptive hedge threshold is a p95 of *measured* DBMS time. With a
// modeled 1 s round trip, eight warm-up executions that each take well under
// a millisecond of wall-clock time must put the threshold near the 1 ms
// floor, so a primary stalled 300 ms is beaten by its hedge. A threshold
// taken from modeled latency would wait out ~1 s and the stall would win.
TEST_F(CancellationTest, AdaptiveHedgeThresholdUsesMeasuredTime) {
  sql::Engine engine;
  engine.RegisterTable("t", CountingTable(500));

  MiddlewareOptions options;
  options.latency.round_trip_ms = 1000;
  options.hedge.enabled = true;
  options.hedge.min_samples = 8;
  options.hedge.latency_factor = 1;
  options.fault_injection = FaultInjectorOptions{};
  options.fault_injection->rules.push_back(FaultRule{"cut=250", 0, false, 0, /*stall_ms=*/300.0});
  Middleware mw(&engine, options);

  auto handle = mw.Prepare(kCutTemplate);
  ASSERT_TRUE(handle.ok());
  QueryRequest request;
  request.handle = *handle;
  for (int cut = 101; cut <= 108; ++cut) {  // distinct cuts: each one executes
    request.params = {{"cut", expr::EvalValue::Number(cut)}};
    auto warm = mw.Submit(request)->Await();
    ASSERT_TRUE(warm.ok()) << warm.status();
    ASSERT_EQ(warm->source, QueryResponse::Source::kDbms);
  }
  ASSERT_EQ(mw.stats().hedged_requests, 0u);  // below min_samples: no hedge

  request.params = {{"cut", expr::EvalValue::Number(250)}};
  const auto t0 = std::chrono::steady_clock::now();
  auto response = mw.Submit(request)->Await();
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->table->column(0).NumericAt(0), 250.0);
  EXPECT_LT(elapsed_ms, 150.0);

  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.hedged_requests, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
}

// A live token that never fires changes nothing: the middleware (which
// mints a token for every request) and the engine polling a far-future
// deadline at every checkpoint are both byte-for-byte identical to the
// engine run with no context at all, across a corpus exercising scan,
// filter, aggregation, grouping, and ordering on the 4M-row shard.
TEST_F(CancellationTest, BitIdenticalWithNeverFiringToken) {
  const char* corpus[] = {
      "SELECT COUNT(*) AS c FROM t WHERE v < 1000000",
      "SELECT SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM t",
      "SELECT v FROM t WHERE v >= 3999990 ORDER BY v DESC LIMIT 5",
      "SELECT FLOOR(v / 1000000) AS g, COUNT(*) AS n, AVG(v) AS a FROM t "
      "GROUP BY FLOOR(v / 1000000) ORDER BY g",
  };

  sql::Engine engine;
  auto reader = OpenShard();
  ASSERT_NE(reader, nullptr);
  ASSERT_TRUE(engine.RegisterShardTable("t", reader).ok());
  Middleware mw(&engine, {});

  for (const char* sql : corpus) {
    auto plain = engine.Query(sql);
    ASSERT_TRUE(plain.ok()) << sql << ": " << plain.status();

    auto served = RunSql(mw, sql);
    ASSERT_TRUE(served.ok()) << sql << ": " << served.status();
    EXPECT_EQ(Bytes(*served->table), Bytes(*plain->table)) << sql;

    common::QueryContext ctx;
    ctx.cancel = std::make_shared<common::CancelToken>(
        std::chrono::steady_clock::now() + std::chrono::hours(1));
    auto tokened = engine.Query(sql, &ctx);
    ASSERT_TRUE(tokened.ok()) << sql << ": " << tokened.status();
    EXPECT_EQ(Bytes(*tokened->table), Bytes(*plain->table)) << sql;
  }
  EXPECT_EQ(mw.stats().cancelled_mid_flight, 0u);
}

// 8-thread cancel storm: generations superseding in-flight work, explicit
// ticket cancels, and short deadlines, all at once. Every ticket must
// resolve with an expected code, the fleet stats must add up at
// quiescence, and the pool must still serve fresh work afterwards.
// (TSan-clean via the `concurrency` label.)
TEST_F(CancellationTest, CancelStormEightThreadsStaysCoherent) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 25;

  sql::Engine engine;
  engine.RegisterTable("t", CountingTable(20'000));
  Middleware mw(&engine, {});

  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      auto session = mw.CreateSession();
      auto handle = session->Prepare(kCutTemplate);
      if (!handle.ok()) {
        ++unexpected;
        return;
      }
      std::vector<rewrite::QueryTicketPtr> tickets;
      uint64_t generation = 0;
      for (int i = 0; i < kIterations; ++i) {
        QueryRequest request;
        request.handle = *handle;
        request.params = {
            {"cut", expr::EvalValue::Number(100.0 * (1 + (i + tid) % 16))}};
        request.generation = ++generation;  // supersedes the previous one
        if (i % 4 == 3) request.deadline_ms = 2;
        tickets.push_back(session->Submit(request));
        if (i % 3 == 2) tickets[tickets.size() - 2]->Cancel();
      }
      for (auto& ticket : tickets) {
        auto response = ticket->Await();
        if (response.ok()) continue;
        const Status& st = response.status();
        if (!st.IsCancelled() && !st.IsUnavailable() &&
            !st.IsDeadlineExceeded()) {
          ++unexpected;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  AwaitQuiescence(mw);

  EXPECT_EQ(unexpected.load(), 0);
  Middleware::Stats stats = mw.stats();
  EXPECT_EQ(stats.submitted, static_cast<size_t>(kThreads * kIterations));
  EXPECT_EQ(stats.queries + stats.cancelled + stats.errors, stats.submitted);
  EXPECT_LE(stats.deadline_exceeded + stats.shed, stats.errors);

  // Workers were reclaimed by the checkpoints, never wedged: the storm's
  // pool still answers.
  auto after = RunSql(mw, "SELECT COUNT(*) AS c FROM t WHERE v < 111");
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->table->column(0).NumericAt(0), 111.0);
}

}  // namespace
}  // namespace runtime
}  // namespace vegaplus
