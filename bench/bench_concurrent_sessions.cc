// Concurrent-session throughput: N client sessions in closed loops hammer
// one shared Middleware with distinct prepared-statement queries (cache-miss
// workload, caches disabled), measuring aggregate wall-clock throughput and
// per-query p50/p95 latency as the session count grows. The worker pool is
// sized to the session count, so scaling reflects the middleware's ability
// to execute DBMS work concurrently. Emits BENCH_concurrent_sessions.json.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "runtime/middleware.h"
#include "storage/reader.h"
#include "storage/table_shard.h"

using namespace vegaplus;         // NOLINT
using namespace vegaplus::bench;  // NOLINT

namespace {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(values.size() - 1));
  return values[idx];
}

struct Condition {
  size_t sessions = 1;
  double wall_ms = 0;
  double throughput_qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
};

}  // namespace

int main() {
  BenchConfig config = LoadConfig();
  BenchReporter reporter("concurrent_sessions");
  reporter.RecordConfig(config);

  const size_t rows = config.sizes.back();
  const size_t queries_per_session = 32;
  auto dataset = benchdata::MakeDataset("flights", rows, config.seed);
  if (!dataset.ok()) Die(dataset.status(), "MakeDataset");
  sql::Engine engine;
  engine.RegisterTable("flights", dataset->table);
  const std::string& field = dataset->quantitative[0];

  std::printf("=== concurrent sessions: shared middleware, cache-miss workload ===\n");
  std::printf("rows=%zu, %zu queries/session\n\n", rows, queries_per_session);
  std::printf("%10s %12s %14s %10s %10s\n", "sessions", "wall ms", "throughput q/s",
              "p50 ms", "p95 ms");

  std::vector<Condition> results;
  for (size_t sessions : {1u, 2u, 4u, 8u}) {
    runtime::MiddlewareOptions options;
    options.enable_client_cache = false;
    options.enable_server_cache = false;
    options.worker_threads = sessions;
    runtime::Middleware middleware(&engine, options);

    const std::string sql_template =
        "SELECT COUNT(*) AS n, AVG(" + field + ") AS m FROM flights WHERE " + field +
        " < ${cut}";

    std::atomic<bool> failed{false};
    std::vector<std::vector<double>> latencies(sessions);
    StopWatch wall;
    std::vector<std::thread> threads;
    threads.reserve(sessions);
    for (size_t s = 0; s < sessions; ++s) {
      threads.emplace_back([&, s] {
        auto session = middleware.CreateSession();
        auto handle = session->Prepare(sql_template);
        if (!handle.ok()) {
          failed = true;
          return;
        }
        latencies[s].reserve(queries_per_session);
        for (size_t q = 0; q < queries_per_session; ++q) {
          rewrite::QueryRequest request;
          request.handle = *handle;
          // Distinct binding per (session, query): every request misses.
          request.params = {{"cut", expr::EvalValue::Number(
                                        1000.0 + static_cast<double>(s) * 1000.0 +
                                        static_cast<double>(q))}};
          request.generation = q + 1;
          StopWatch latency;
          auto response = session->Submit(request)->Await();
          latencies[s].push_back(latency.ElapsedMillis());
          if (!response.ok()) failed = true;
        }
      });
    }
    for (auto& t : threads) t.join();
    if (failed) Die(Status::RuntimeError("query failed"), "session workload");

    Condition c;
    c.sessions = sessions;
    c.wall_ms = wall.ElapsedMillis();
    size_t total = sessions * queries_per_session;
    c.throughput_qps = 1000.0 * static_cast<double>(total) / c.wall_ms;
    std::vector<double> all;
    for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
    c.p50_ms = Percentile(all, 0.50);
    c.p95_ms = Percentile(all, 0.95);
    results.push_back(c);

    std::printf("%10zu %12.1f %14.0f %10.3f %10.3f\n", c.sessions, c.wall_ms,
                c.throughput_qps, c.p50_ms, c.p95_ms);

    json::Value row = json::Value::MakeObject();
    row.Set("sessions", c.sessions);
    row.Set("wall_ms", c.wall_ms);
    row.Set("throughput_qps", c.throughput_qps);
    row.Set("p50_ms", c.p50_ms);
    row.Set("p95_ms", c.p95_ms);
    reporter.AddMetric("sessions_" + std::to_string(sessions), std::move(row));
    reporter.AddPhase("sessions_" + std::to_string(sessions), c.wall_ms);
  }

  // --- Server-cache admission policy: FIFO vs LRU under a skewed workload.
  // One session replays an identical 90/10 hot/cold request stream against a
  // server cache much smaller than the key universe; LRU keeps the hot set
  // resident while FIFO cycles it out behind the cold scans.
  std::printf("\n=== server-cache policy under skew (capacity 16, 8 hot / 64 cold keys) ===\n");
  std::printf("%10s %12s %12s %10s\n", "policy", "queries", "server hits",
              "hit rate");
  double hit_rate[2] = {0, 0};
  const runtime::QueryCache::Policy policies[2] = {
      runtime::QueryCache::Policy::kFifo, runtime::QueryCache::Policy::kLru};
  const char* policy_names[2] = {"fifo", "lru"};
  for (int p = 0; p < 2; ++p) {
    runtime::MiddlewareOptions options;
    options.enable_client_cache = false;  // isolate the server tier
    options.enable_server_cache = true;
    options.cache_capacity = 16;
    options.cache_policy = policies[p];
    options.worker_threads = 2;
    runtime::Middleware middleware(&engine, options);
    auto session = middleware.CreateSession();
    auto handle = session->Prepare("SELECT COUNT(*) AS n FROM flights WHERE " +
                                   field + " < ${cut}");
    if (!handle.ok()) Die(handle.status(), "Prepare");
    Rng rng(config.seed);  // identical stream for both policies
    const size_t kQueries = 4000;
    for (size_t q = 0; q < kQueries; ++q) {
      const size_t idx = rng.NextBool(0.9) ? rng.Index(8) : 8 + rng.Index(64);
      rewrite::QueryRequest request;
      request.handle = *handle;
      request.params = {{"cut", expr::EvalValue::Number(static_cast<double>(idx))}};
      auto response = session->Submit(request)->Await();
      if (!response.ok()) Die(response.status(), "skewed workload");
    }
    auto stats = middleware.stats();
    hit_rate[p] =
        static_cast<double>(stats.server_cache_hits) / static_cast<double>(kQueries);
    std::printf("%10s %12zu %12zu %9.1f%%\n", policy_names[p], kQueries,
                stats.server_cache_hits, 100.0 * hit_rate[p]);
    json::Value row = json::Value::MakeObject();
    row.Set("queries", kQueries);
    row.Set("server_cache_hits", stats.server_cache_hits);
    row.Set("hit_rate", hit_rate[p]);
    reporter.AddMetric(std::string("skew_policy_") + policy_names[p], std::move(row));
  }
  std::printf("LRU hit-rate delta over FIFO: %+.1f points\n",
              100.0 * (hit_rate[1] - hit_rate[0]));
  reporter.AddMetric("skew_lru_minus_fifo_hit_rate", json::Value(hit_rate[1] - hit_rate[0]));
  if (hit_rate[1] < hit_rate[0]) {
    std::fprintf(stderr, "GATE FAILED: LRU hit rate %.3f below FIFO %.3f under skew\n",
                 hit_rate[1], hit_rate[0]);
    return 1;
  }

  // --- Fault-tolerant serving under a flaky, slow backend. 8 sessions burst
  // asynchronous submissions at a deliberately under-provisioned middleware
  // (2 workers, queue bound 4) whose DBMS path randomly fails and stalls:
  // retries recover the transient failures, the bounded queue sheds the
  // overload, and the tail latencies stay bounded instead of queueing
  // unboundedly. Deterministic fault schedule (seeded) => replayable run.
  {
    const size_t kFaultySessions = 8;
    const size_t kBurst = 32;
    runtime::MiddlewareOptions options;
    options.enable_client_cache = false;
    options.enable_server_cache = false;
    options.worker_threads = 2;
    options.max_queue_depth = 4;
    options.retry.initial_backoff_ms = 0.1;
    options.fault_injection = runtime::FaultInjectorOptions{};
    options.fault_injection->seed = config.seed;
    options.fault_injection->rules.push_back(runtime::FaultRule{
        "", 0, false, /*fail_probability=*/0.1, /*stall_ms=*/0.2});
    runtime::Middleware middleware(&engine, options);

    const std::string sql_template = "SELECT COUNT(*) AS n, AVG(" + field +
                                     ") AS m FROM flights WHERE " + field +
                                     " < ${cut}";
    std::atomic<bool> bad_status{false};
    std::vector<std::vector<double>> ok_latency(kFaultySessions);
    StopWatch wall;
    std::vector<std::thread> threads;
    threads.reserve(kFaultySessions);
    for (size_t s = 0; s < kFaultySessions; ++s) {
      threads.emplace_back([&, s] {
        auto session = middleware.CreateSession();
        auto handle = session->Prepare(sql_template);
        if (!handle.ok()) {
          bad_status = true;
          return;
        }
        // Burst: submit everything, then await — saturates the bounded
        // queue so load shedding actually engages.
        std::vector<rewrite::QueryTicketPtr> tickets;
        std::vector<StopWatch> watches(kBurst);
        tickets.reserve(kBurst);
        for (size_t q = 0; q < kBurst; ++q) {
          rewrite::QueryRequest request;
          request.handle = *handle;
          request.params = {{"cut", expr::EvalValue::Number(
                                        5000.0 + static_cast<double>(s) * 1000.0 +
                                        static_cast<double>(q))}};
          watches[q] = StopWatch();
          tickets.push_back(session->Submit(request));
        }
        for (size_t q = 0; q < kBurst; ++q) {
          auto response = tickets[q]->Await();
          if (response.ok()) {
            ok_latency[s].push_back(watches[q].ElapsedMillis());
          } else if (!response.status().IsUnavailable()) {
            bad_status = true;  // only shed/outage failures are acceptable
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    if (bad_status) Die(Status::RuntimeError("unexpected failure"), "faulty workload");
    const double faulty_wall_ms = wall.ElapsedMillis();

    auto stats = middleware.stats();
    const size_t total = kFaultySessions * kBurst;
    if (stats.queries + stats.cancelled + stats.errors != stats.submitted) {
      std::fprintf(stderr, "GATE FAILED: faulty-DBMS stats incoherent\n");
      return 1;
    }
    std::vector<double> all;
    for (const auto& l : ok_latency) all.insert(all.end(), l.begin(), l.end());
    const double shed_rate =
        static_cast<double>(stats.shed) / static_cast<double>(total);
    std::printf("\n=== faulty DBMS: p_fail=0.1, stall=0.2ms, 2 workers, queue bound 4 ===\n");
    std::printf("%10s %10s %10s %10s %10s %10s %10s\n", "submitted", "ok",
                "shed", "retries", "p50 ms", "p95 ms", "p99 ms");
    std::printf("%10zu %10zu %10zu %10zu %10.3f %10.3f %10.3f\n",
                stats.submitted, all.size(), stats.shed, stats.retries,
                Percentile(all, 0.50), Percentile(all, 0.95),
                Percentile(all, 0.99));

    json::Value row = json::Value::MakeObject();
    row.Set("sessions", kFaultySessions);
    row.Set("submitted", stats.submitted);
    row.Set("ok", all.size());
    row.Set("shed", stats.shed);
    row.Set("shed_rate", shed_rate);
    row.Set("retries", stats.retries);
    row.Set("degraded_responses", stats.degraded_responses);
    row.Set("wall_ms", faulty_wall_ms);
    row.Set("p50_ms", Percentile(all, 0.50));
    row.Set("p95_ms", Percentile(all, 0.95));
    row.Set("p99_ms", Percentile(all, 0.99));
    reporter.AddMetric("faulty_dbms", std::move(row));
    reporter.AddPhase("faulty_dbms", faulty_wall_ms);
  }

  // --- Out-of-core shard workload: the same closed-loop shape, but the
  // sessions brush a shard-backed table clustered on the brushed column, so
  // the middleware's storage counters (zone-map prunes, chunk page-ins,
  // resident bytes) are exercised and surfaced in the JSON output.
  {
    constexpr size_t kShardRows = 200000;
    constexpr size_t kShardSessions = 4;
    constexpr size_t kShardQueries = 16;
    data::Schema schema({{"x", data::DataType::kFloat64},
                         {"y", data::DataType::kFloat64}});
    data::TableBuilder builder(schema);
    builder.Reserve(kShardRows);
    Rng rng(config.seed);
    for (size_t r = 0; r < kShardRows; ++r) {
      builder.AppendRow(
          {data::Value::Double(static_cast<double>(r)),
           data::Value::Double(0.25 * static_cast<double>(rng.Index(4000)))});
    }
    const char* tmpdir = std::getenv("TMPDIR");
    const std::string shard_path =
        std::string((tmpdir != nullptr && tmpdir[0]) ? tmpdir : "/tmp") +
        "/vps_bench_concurrent_shard.vps";
    storage::WriteOptions wopts;
    if (Status s = storage::TableShard::Write(shard_path, *builder.Build(), wopts);
        !s.ok()) {
      Die(s, "shard write");
    }
    auto reader = storage::Reader::Open(shard_path);
    if (!reader.ok()) Die(reader.status(), "shard open");
    if (Status s = engine.RegisterShardTable("clustered", *reader); !s.ok()) {
      Die(s, "shard register");
    }

    runtime::MiddlewareOptions options;
    options.enable_client_cache = false;
    options.enable_server_cache = false;
    options.worker_threads = kShardSessions;
    runtime::Middleware middleware(&engine, options);

    StopWatch wall;
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    threads.reserve(kShardSessions);
    for (size_t s = 0; s < kShardSessions; ++s) {
      threads.emplace_back([&, s] {
        auto session = middleware.CreateSession();
        auto handle = session->Prepare(
            "SELECT COUNT(*) AS n, SUM(y) AS m FROM clustered "
            "WHERE x >= ${lo} AND x < ${hi}");
        if (!handle.ok()) {
          failed = true;
          return;
        }
        for (size_t q = 0; q < kShardQueries; ++q) {
          // Sliding 2% brush, distinct per (session, query).
          const double lo = static_cast<double>((s * kShardQueries + q) %
                                                49) * 0.02 *
                            static_cast<double>(kShardRows);
          rewrite::QueryRequest request;
          request.handle = *handle;
          request.params = {{"lo", expr::EvalValue::Number(lo)},
                            {"hi", expr::EvalValue::Number(
                                       lo + 0.02 * kShardRows)}};
          request.generation = q + 1;
          auto response = session->Submit(request)->Await();
          if (!response.ok()) failed = true;
        }
      });
    }
    for (auto& t : threads) t.join();
    if (failed) Die(Status::RuntimeError("query failed"), "shard workload");
    const double shard_wall_ms = wall.ElapsedMillis();

    auto stats = middleware.stats();
    std::printf("\n=== out-of-core shard: %zu sessions x %zu brushes ===\n",
                kShardSessions, kShardQueries);
    std::printf("chunks_pruned=%zu chunks_paged_in=%zu resident_bytes=%zu\n",
                stats.storage_chunks_pruned, stats.storage_chunks_paged_in,
                stats.storage_resident_bytes);
    std::printf("kernel_bitmap=%zu kernel_index=%zu\n", stats.kernel_bitmap_selections,
                stats.kernel_index_selections);
    json::Value row = json::Value::MakeObject();
    row.Set("sessions", kShardSessions);
    row.Set("queries", kShardSessions * kShardQueries);
    row.Set("wall_ms", shard_wall_ms);
    row.Set("storage_chunks_pruned", stats.storage_chunks_pruned);
    row.Set("storage_morsels_pruned", stats.storage_morsels_pruned);
    row.Set("storage_chunks_paged_in", stats.storage_chunks_paged_in);
    row.Set("storage_resident_bytes", stats.storage_resident_bytes);
    row.Set("kernel_bitmap_selections", stats.kernel_bitmap_selections);
    row.Set("kernel_index_selections", stats.kernel_index_selections);
    reporter.AddMetric("out_of_core_shard", std::move(row));
    reporter.AddPhase("out_of_core_shard", shard_wall_ms);
    if (stats.storage_chunks_pruned == 0) {
      std::fprintf(stderr,
                   "GATE FAILED: clustered shard brushes pruned no chunks\n");
      return 1;
    }
    std::remove(shard_path.c_str());
  }

  // --- Deadline storm: 8 sessions burst tight-deadline requests at 2 workers
  // whose DBMS path stalls 20ms per execute. Cooperative cancellation caps
  // the stall at the deadline and aborts engine work at the next checkpoint,
  // so each worker is reclaimed in ~deadline ms instead of being held for the
  // full stall — the storm drains fast and the pool stays serviceable.
  {
    const size_t kStormSessions = 8;
    const size_t kStormBurst = 16;
    const double kStormDeadlineMs = 5;
    const double kStormStallMs = 20;
    runtime::MiddlewareOptions options;
    options.enable_client_cache = false;
    options.enable_server_cache = false;
    options.worker_threads = 2;
    options.fault_injection = runtime::FaultInjectorOptions{};
    options.fault_injection->seed = config.seed;
    options.fault_injection->rules.push_back(
        runtime::FaultRule{"", 0, false, 0, /*stall_ms=*/kStormStallMs});
    runtime::Middleware middleware(&engine, options);

    const std::string sql_template = "SELECT COUNT(*) AS n, AVG(" + field +
                                     ") AS m FROM flights WHERE " + field +
                                     " < ${cut}";
    std::atomic<bool> bad_status{false};
    std::vector<std::vector<double>> reclaim(kStormSessions);
    StopWatch wall;
    std::vector<std::thread> threads;
    threads.reserve(kStormSessions);
    for (size_t s = 0; s < kStormSessions; ++s) {
      threads.emplace_back([&, s] {
        auto session = middleware.CreateSession();
        auto handle = session->Prepare(sql_template);
        if (!handle.ok()) {
          bad_status = true;
          return;
        }
        std::vector<rewrite::QueryTicketPtr> tickets;
        std::vector<StopWatch> watches(kStormBurst);
        tickets.reserve(kStormBurst);
        for (size_t q = 0; q < kStormBurst; ++q) {
          rewrite::QueryRequest request;
          request.handle = *handle;
          request.params = {{"cut", expr::EvalValue::Number(
                                        9000.0 + static_cast<double>(s) * 1000.0 +
                                        static_cast<double>(q))}};
          request.deadline_ms = kStormDeadlineMs;
          watches[q] = StopWatch();
          tickets.push_back(session->Submit(request));
        }
        for (size_t q = 0; q < kStormBurst; ++q) {
          auto response = tickets[q]->Await();
          reclaim[s].push_back(watches[q].ElapsedMillis());
          // Completion, expiry, and shed are all legitimate storm outcomes;
          // anything else is a bug the bench must not paper over.
          if (!response.ok() && !response.status().IsDeadlineExceeded() &&
              !response.status().IsUnavailable()) {
            bad_status = true;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    if (bad_status) Die(Status::RuntimeError("unexpected status"), "deadline storm");
    const double storm_wall_ms = wall.ElapsedMillis();

    auto stats = middleware.stats();
    const size_t total = kStormSessions * kStormBurst;
    if (stats.queries + stats.cancelled + stats.errors != stats.submitted) {
      std::fprintf(stderr, "GATE FAILED: deadline-storm stats incoherent\n");
      return 1;
    }
    // Worker-reclaim latency: mean worker occupancy per storm request. An
    // uncancellable 20ms stall would pin it at >=20ms; the deadline cap plus
    // checkpoint abort reclaims each worker in about the 5ms deadline.
    const double reclaim_ms =
        storm_wall_ms * static_cast<double>(options.worker_threads) /
        static_cast<double>(total);
    std::vector<double> all;
    for (const auto& l : reclaim) all.insert(all.end(), l.begin(), l.end());
    std::printf("\n=== deadline storm: %zu sessions x %zu, deadline %.0fms, stall %.0fms, 2 workers ===\n",
                kStormSessions, kStormBurst, kStormDeadlineMs, kStormStallMs);
    std::printf("%10s %14s %14s %12s %10s %10s\n", "submitted", "deadline-hit",
                "mid-flight", "reclaim ms", "p95 ms", "p99 ms");
    std::printf("%10zu %14zu %14zu %12.3f %10.3f %10.3f\n", stats.submitted,
                stats.deadline_exceeded, stats.cancelled_mid_flight, reclaim_ms,
                Percentile(all, 0.95), Percentile(all, 0.99));

    // The pool must come back clean: a fresh query right after the storm.
    auto after = middleware.Execute("SELECT COUNT(*) AS n FROM flights");
    if (!after.ok()) Die(after.status(), "post-storm query");

    json::Value row = json::Value::MakeObject();
    row.Set("sessions", kStormSessions);
    row.Set("submitted", stats.submitted);
    row.Set("deadline_exceeded", stats.deadline_exceeded);
    row.Set("cancelled_mid_flight", stats.cancelled_mid_flight);
    row.Set("wall_ms", storm_wall_ms);
    row.Set("worker_reclaim_ms", reclaim_ms);
    row.Set("await_p95_ms", Percentile(all, 0.95));
    row.Set("await_p99_ms", Percentile(all, 0.99));
    reporter.AddMetric("deadline_storm", std::move(row));
    reporter.AddPhase("deadline_storm", storm_wall_ms);
    if (stats.deadline_exceeded == 0) {
      std::fprintf(stderr, "GATE FAILED: deadline storm never hit a deadline\n");
      return 1;
    }
    if (reclaim_ms >= kStormStallMs) {
      std::fprintf(stderr,
                   "GATE FAILED: worker reclaim %.1fms not below the %.0fms stall\n",
                   reclaim_ms, kStormStallMs);
      return 1;
    }
  }

  // --- Hedged requests vs injected stalls: every primary execution draws a
  // deterministic 40ms stall (the rule matches the cache key's "cut=" param
  // segment; hedge attempts run under an opaque digest key the rule cannot
  // match). Without hedging, every query eats the stall; with a 5ms hedge
  // threshold, the duplicate attempt answers in ~threshold + compute and the
  // stalled primary is abandoned through its token. p99 must improve.
  {
    const size_t kHedgeSessions = 4;
    const size_t kHedgeQueries = 32;
    const double kHedgeStallMs = 40;
    double p99_ms[2] = {0, 0};
    const bool hedge_on[2] = {false, true};
    const char* mode_names[2] = {"unhedged", "hedged"};
    std::printf("\n=== hedged requests: %.0fms primary stall, 5ms hedge threshold ===\n",
                kHedgeStallMs);
    std::printf("%10s %10s %10s %10s %10s %10s\n", "mode", "queries", "hedges",
                "wins", "p50 ms", "p99 ms");
    for (int m = 0; m < 2; ++m) {
      runtime::MiddlewareOptions options;
      options.enable_client_cache = false;
      options.enable_server_cache = false;
      // Headroom above the session count so hedge attempts get workers while
      // the stalled primaries are still occupying theirs.
      options.worker_threads = kHedgeSessions * 2;
      options.hedge.enabled = hedge_on[m];
      options.hedge.fixed_threshold_ms = 5;
      options.fault_injection = runtime::FaultInjectorOptions{};
      options.fault_injection->seed = config.seed;
      options.fault_injection->rules.push_back(
          runtime::FaultRule{"cut=", 0, false, 0, /*stall_ms=*/kHedgeStallMs});
      runtime::Middleware middleware(&engine, options);

      const std::string sql_template = "SELECT COUNT(*) AS n, AVG(" + field +
                                       ") AS m FROM flights WHERE " + field +
                                       " < ${cut}";
      std::atomic<bool> failed{false};
      std::vector<std::vector<double>> latencies(kHedgeSessions);
      StopWatch wall;
      std::vector<std::thread> threads;
      threads.reserve(kHedgeSessions);
      for (size_t s = 0; s < kHedgeSessions; ++s) {
        threads.emplace_back([&, s] {
          auto session = middleware.CreateSession();
          auto handle = session->Prepare(sql_template);
          if (!handle.ok()) {
            failed = true;
            return;
          }
          latencies[s].reserve(kHedgeQueries);
          for (size_t q = 0; q < kHedgeQueries; ++q) {
            rewrite::QueryRequest request;
            request.handle = *handle;
            request.params = {{"cut", expr::EvalValue::Number(
                                          20000.0 +
                                          static_cast<double>(s) * 1000.0 +
                                          static_cast<double>(q))}};
            StopWatch latency;
            auto response = session->Submit(request)->Await();
            latencies[s].push_back(latency.ElapsedMillis());
            if (!response.ok()) failed = true;
          }
        });
      }
      for (auto& t : threads) t.join();
      if (failed) Die(Status::RuntimeError("query failed"), "hedge workload");
      const double hedge_wall_ms = wall.ElapsedMillis();

      auto stats = middleware.stats();
      if (stats.queries + stats.cancelled + stats.errors != stats.submitted) {
        std::fprintf(stderr, "GATE FAILED: %s-run stats incoherent\n",
                     mode_names[m]);
        return 1;
      }
      std::vector<double> all;
      for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
      p99_ms[m] = Percentile(all, 0.99);
      std::printf("%10s %10zu %10zu %10zu %10.3f %10.3f\n", mode_names[m],
                  all.size(), stats.hedged_requests, stats.hedge_wins,
                  Percentile(all, 0.50), p99_ms[m]);

      json::Value row = json::Value::MakeObject();
      row.Set("queries", all.size());
      row.Set("hedged_requests", stats.hedged_requests);
      row.Set("hedge_wins", stats.hedge_wins);
      row.Set("cancelled_mid_flight", stats.cancelled_mid_flight);
      row.Set("wall_ms", hedge_wall_ms);
      row.Set("p50_ms", Percentile(all, 0.50));
      row.Set("p99_ms", p99_ms[m]);
      reporter.AddMetric(std::string("hedge_") + mode_names[m], std::move(row));
      reporter.AddPhase(std::string("hedge_") + mode_names[m], hedge_wall_ms);
      if (hedge_on[m] && stats.hedge_wins == 0) {
        std::fprintf(stderr, "GATE FAILED: hedged run adopted no hedge results\n");
        return 1;
      }
    }
    std::printf("hedging p99: %.3fms -> %.3fms (%.1fx)\n", p99_ms[0], p99_ms[1],
                p99_ms[0] / p99_ms[1]);
    reporter.AddMetric("hedge_p99_speedup", json::Value(p99_ms[0] / p99_ms[1]));
    if (p99_ms[1] >= p99_ms[0]) {
      std::fprintf(stderr,
                   "GATE FAILED: hedged p99 %.3fms not below unhedged %.3fms\n",
                   p99_ms[1], p99_ms[0]);
      return 1;
    }
  }

  double scaling = results.back().throughput_qps / results.front().throughput_qps;
  size_t cores = std::thread::hardware_concurrency();
  std::printf("\nthroughput scaling 1 -> %zu sessions: %.2fx (%zu hardware threads)\n",
              results.back().sessions, scaling, cores);
  reporter.AddMetric("scaling_1_to_8", json::Value(scaling));
  reporter.AddMetric("hardware_threads", json::Value(cores));
  // Acceptance gate: a shared middleware must scale aggregate throughput
  // >2x from 1 to 8 sessions on a cache-miss workload. Sessions scale
  // through the worker pool's real parallelism, so the gate is only
  // meaningful where the hardware can run >=4 workers at once.
  if (cores < 4) {
    std::printf("GATE SKIPPED: %zu hardware threads (<4), no parallel headroom\n",
                cores);
    return 0;
  }
  if (scaling < 2.0) {
    std::fprintf(stderr, "GATE FAILED: scaling %.2fx < 2x\n", scaling);
    return 1;
  }
  std::printf("GATE OK (>2x)\n");
  return 0;
}
