#include <gtest/gtest.h>

#include "benchdata/templates.h"
#include "benchdata/workload.h"
#include "expr/batch_eval.h"
#include "middleware_test_util.h"
#include "rewrite/vdt.h"
#include "runtime/cache.h"
#include "runtime/middleware.h"
#include "runtime/plan_executor.h"

namespace vegaplus {
namespace runtime {
namespace {

using benchdata::TemplateId;

data::TablePtr TinyTable(int rows) {
  data::Schema schema({{"v", data::DataType::kFloat64}});
  data::TableBuilder builder(schema);
  for (int i = 0; i < rows; ++i) builder.AppendRow({data::Value::Double(i)});
  return builder.Build();
}

TEST(QueryCacheTest, HitMissAndFifoEviction) {
  QueryCache cache(2, 1000, QueryCache::Policy::kFifo);
  data::TablePtr out;
  EXPECT_FALSE(cache.Get("q1", &out));
  cache.Put("q1", TinyTable(1));
  cache.Put("q2", TinyTable(2));
  EXPECT_TRUE(cache.Get("q1", &out));
  cache.Put("q3", TinyTable(3));  // evicts q1 (FIFO ignores the Get)
  EXPECT_FALSE(cache.Get("q1", &out));
  EXPECT_TRUE(cache.Get("q2", &out));
  EXPECT_TRUE(cache.Get("q3", &out));
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

// The default policy is LRU: a Get promotes the entry, so the least
// recently *used* entry is evicted, not the oldest inserted.
TEST(QueryCacheTest, LruPromotionOnGet) {
  QueryCache cache(2, 1000);
  data::TablePtr out;
  cache.Put("q1", TinyTable(1));
  cache.Put("q2", TinyTable(2));
  EXPECT_TRUE(cache.Get("q1", &out));  // promote q1 over q2
  cache.Put("q3", TinyTable(3));       // evicts q2, not q1
  EXPECT_TRUE(cache.Get("q1", &out));
  EXPECT_FALSE(cache.Get("q2", &out));
  EXPECT_TRUE(cache.Get("q3", &out));
  // A duplicate Put is a use too.
  cache.Put("q1", TinyTable(9));       // promotes q1 (stored table unchanged)
  cache.Put("q4", TinyTable(4));       // evicts q3
  ASSERT_TRUE(cache.Get("q1", &out));
  EXPECT_EQ(out->num_rows(), 1u);
  EXPECT_FALSE(cache.Get("q3", &out));
}

TEST(QueryCacheTest, SizeThresholdBlocksLargeResults) {
  QueryCache cache(4, 10);
  cache.Put("big", TinyTable(11));
  data::TablePtr out;
  EXPECT_FALSE(cache.Get("big", &out));
  cache.Put("small", TinyTable(10));
  EXPECT_TRUE(cache.Get("small", &out));
}

TEST(QueryCacheTest, DuplicatePutIgnored) {
  QueryCache cache(2, 100);
  cache.Put("q", TinyTable(1));
  cache.Put("q", TinyTable(2));
  data::TablePtr out;
  ASSERT_TRUE(cache.Get("q", &out));
  EXPECT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(QueryCacheTest, ZeroCapacityNeverStores) {
  QueryCache cache(0, 100);
  cache.Put("q", TinyTable(1));
  data::TablePtr out;
  EXPECT_FALSE(cache.Get("q", &out));
}

class MiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override { engine_.RegisterTable("t", TinyTable(500)); }
  sql::Engine engine_;
};

TEST_F(MiddlewareTest, CacheTiersReduceLatency) {
  Middleware mw(&engine_, {});
  auto first = RunSql(mw, "SELECT * FROM t WHERE v < 100");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->source, rewrite::QueryResponse::Source::kDbms);
  auto second = RunSql(mw, "SELECT * FROM t WHERE v < 100");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, rewrite::QueryResponse::Source::kClientCache);
  EXPECT_LT(second->latency_millis, first->latency_millis);
  EXPECT_EQ(mw.stats().queries, 2u);
  EXPECT_EQ(mw.stats().dbms_executions, 1u);
  EXPECT_EQ(mw.stats().client_cache_hits, 1u);
}

TEST_F(MiddlewareTest, ServerCacheTierWhenClientCacheDisabled) {
  MiddlewareOptions options;
  options.enable_client_cache = false;
  Middleware mw(&engine_, options);
  ASSERT_TRUE(RunSql(mw, "SELECT COUNT(*) AS c FROM t").ok());
  auto second = RunSql(mw, "SELECT COUNT(*) AS c FROM t");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->source, rewrite::QueryResponse::Source::kServerCache);
  // Server hits still pay the round trip.
  EXPECT_GE(second->latency_millis, mw.options().latency.round_trip_ms);
}

TEST_F(MiddlewareTest, BadSqlPropagatesError) {
  Middleware mw(&engine_, {});
  EXPECT_FALSE(RunSql(mw, "SELECT FROM WHERE").ok());
  EXPECT_FALSE(RunSql(mw, "SELECT * FROM missing_table").ok());
}

// The cache is keyed on (prepared statement, bound params), not SQL text:
// formatting variants of one logical query share a single cache entry.
TEST_F(MiddlewareTest, FormattingVariantsShareCacheEntry) {
  Middleware mw(&engine_, {});
  auto first = RunSql(mw, "SELECT * FROM t WHERE v < 100");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->source, rewrite::QueryResponse::Source::kDbms);
  // Different whitespace, case, and parenthesization — same logical query.
  auto second = RunSql(mw, "select  *\n FROM   t   WHERE  (v < 100)");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->source, rewrite::QueryResponse::Source::kClientCache);
  EXPECT_EQ(mw.stats().dbms_executions, 1u);
}

TEST_F(MiddlewareTest, FormattingVariantTemplatesShareHandleAndCache) {
  Middleware mw(&engine_, {});
  auto h1 = mw.Prepare("SELECT COUNT(*) AS c FROM t WHERE v < ${cut}");
  auto h2 = mw.Prepare("select COUNT( * ) AS c from t where (v < ${cut})");
  ASSERT_TRUE(h1.ok()) << h1.status();
  ASSERT_TRUE(h2.ok()) << h2.status();
  EXPECT_EQ(*h1, *h2);

  rewrite::QueryRequest request;
  request.handle = *h1;
  request.params = {{"cut", expr::EvalValue::Number(250)}};
  auto a = mw.Submit(request)->Await();
  ASSERT_TRUE(a.ok()) << a.status();
  request.handle = *h2;
  auto b = mw.Submit(request)->Await();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(b->source, rewrite::QueryResponse::Source::kClientCache);
  // Different binding -> different cache key -> DBMS again.
  request.params = {{"cut", expr::EvalValue::Number(300)}};
  auto c = mw.Submit(request)->Await();
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_EQ(c->source, rewrite::QueryResponse::Source::kDbms);
  EXPECT_EQ(mw.stats().dbms_executions, 2u);
}

// Custom QueryService implementations provide only Prepare/Submit (the
// session API), and VDTs drive exactly that pair — there is no separate
// synchronous execution path to implement or maintain.
class ForwardingService : public rewrite::QueryService {
 public:
  explicit ForwardingService(Middleware* inner) : inner_(inner) {}
  Result<rewrite::PreparedHandle> Prepare(const std::string& sql_template) override {
    ++prepares_;
    last_template_ = sql_template;
    return inner_->Prepare(sql_template);
  }
  rewrite::QueryTicketPtr Submit(const rewrite::QueryRequest& request) override {
    ++submits_;
    return inner_->Submit(request);
  }
  int prepares() const { return prepares_; }
  int submits() const { return submits_; }
  const std::string& last_template() const { return last_template_; }

 private:
  Middleware* inner_;
  int prepares_ = 0;
  int submits_ = 0;
  std::string last_template_;
};

TEST_F(MiddlewareTest, SessionApiIsTheOnlyExecutionPath) {
  Middleware mw(&engine_, {});
  ForwardingService service(&mw);
  // VDTs drive Prepare/Submit directly.
  rewrite::VdtOp vdt("SELECT COUNT(*) AS c FROM t WHERE v < ${cut}", {}, &service);
  expr::MapSignalResolver signals;
  signals.Set("cut", expr::EvalValue::Number(42));
  auto result = vdt.Evaluate(nullptr, signals);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(service.last_template(), "SELECT COUNT(*) AS c FROM t WHERE v < ${cut}");
  EXPECT_GE(service.prepares(), 1);
  EXPECT_GE(service.submits(), 1);
  ASSERT_NE(result->table, nullptr);
  EXPECT_EQ(result->table->num_rows(), 1u);
  EXPECT_DOUBLE_EQ(result->table->column(0).NumericAt(0), 42.0);
}

// Regression (ROADMAP "Bounded prepared-statement registry"): a client that
// prepares a distinct literal-inlined statement per query must not grow the
// registry without bound. Released statements are LRU-evicted past the cap,
// while handles still pinned keep working through arbitrary churn.
TEST_F(MiddlewareTest, StatementRegistryBoundedUnderAdHocChurn) {
  MiddlewareOptions options;
  options.max_prepared_statements = 32;
  // Small caches so result caching is irrelevant to the registry behavior.
  options.cache_capacity = 4;
  Middleware mw(&engine_, options);
  auto session = mw.CreateSession();

  // A long-lived parameterized dashboard statement, prepared up front.
  auto pinned = session->Prepare("SELECT COUNT(*) AS c FROM t WHERE v < ${cut}");
  ASSERT_TRUE(pinned.ok()) << pinned.status();

  for (int i = 0; i < 10000; ++i) {
    auto handle = session->Prepare("SELECT COUNT(*) AS c FROM t WHERE v < " + std::to_string(i));
    ASSERT_TRUE(handle.ok()) << handle.status();
    mw.Release(*handle);
  }
  EXPECT_LE(mw.registry_size(), options.max_prepared_statements);
  EXPECT_EQ(mw.stats().prepared_statements, 10001u);  // cumulative, distinct

  // The pinned handle survived 10k evictions' worth of churn.
  rewrite::QueryRequest request;
  request.handle = *pinned;
  request.params = {{"cut", expr::EvalValue::Number(123)}};
  auto response = mw.Submit(request)->Await();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_DOUBLE_EQ(response->table->column(0).NumericAt(0), 123.0);

  // Re-preparing a formatting variant still dedupes onto the pinned handle.
  auto again = session->Prepare("select COUNT( * ) AS c from t where (v < ${cut})");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *pinned);
}

// Regression (ROADMAP "explicit Release(handle) surface"): a released
// Prepare handle no longer pins its statement — churn can evict it,
// after which the handle fails loudly instead of silently rebinding — while
// an unreleased handle keeps working through the same churn.
TEST_F(MiddlewareTest, ReleasedHandleUnpinsAndLiveHandleNeverRebinds) {
  MiddlewareOptions options;
  options.max_prepared_statements = 16;
  options.cache_capacity = 4;
  Middleware mw(&engine_, options);
  auto session = mw.CreateSession();

  auto released = session->Prepare("SELECT COUNT(*) AS c FROM t WHERE v < ${cut}");
  auto kept = session->Prepare("SELECT SUM(v) AS s FROM t WHERE v < ${cut}");
  ASSERT_TRUE(released.ok()) << released.status();
  ASSERT_TRUE(kept.ok()) << kept.status();

  // Releasing while the registry is under its cap: the statement stays
  // resident, so the handle still resolves.
  mw.Release(*released);
  rewrite::QueryRequest request;
  request.handle = *released;
  request.params = {{"cut", expr::EvalValue::Number(7)}};
  auto before = mw.Submit(request)->Await();
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_DOUBLE_EQ(before->table->column(0).NumericAt(0), 7.0);

  // Churn well past the cap: the released entry is now evictable and goes.
  for (int i = 0; i < 200; ++i) {
    auto handle = session->Prepare("SELECT COUNT(*) AS c FROM t WHERE v < " + std::to_string(i));
    ASSERT_TRUE(handle.ok()) << handle.status();
    mw.Release(*handle);
  }
  EXPECT_LE(mw.registry_size(), options.max_prepared_statements + 1);  // +1 pinned

  auto after = mw.Submit(request)->Await();
  EXPECT_FALSE(after.ok());  // dead handle fails loudly, never rebinds

  // The unreleased handle survived the same churn untouched.
  request.handle = *kept;
  auto live = mw.Submit(request)->Await();
  ASSERT_TRUE(live.ok()) << live.status();

  // Releasing an unknown/already-released handle is a harmless no-op.
  mw.Release(*released);
  mw.Release(999999);

  // Re-preparing the released template registers it afresh under a new
  // handle (handles are never reused).
  auto reprepared = session->Prepare("SELECT COUNT(*) AS c FROM t WHERE v < ${cut}");
  ASSERT_TRUE(reprepared.ok());
  EXPECT_NE(*reprepared, *released);
}

// Pins stack: formatting variants of one template dedupe onto a single
// handle, and one client's Release must not strand the other client's live
// handle — only the last Release unpins.
TEST_F(MiddlewareTest, DedupedPrepareSurvivesOneRelease) {
  MiddlewareOptions options;
  options.max_prepared_statements = 8;
  options.cache_capacity = 4;
  Middleware mw(&engine_, options);
  auto session = mw.CreateSession();

  auto a = session->Prepare("SELECT COUNT(*) AS c FROM t WHERE v < ${cut}");
  auto b = session->Prepare("select COUNT( * ) AS c from t where (v < ${cut})");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(*a, *b);  // deduped: two pins on one entry

  auto churn = [&] {
    for (int i = 0; i < 100; ++i) {
      auto handle = session->Prepare("SELECT COUNT(*) AS c FROM t WHERE v < " + std::to_string(i));
      ASSERT_TRUE(handle.ok()) << handle.status();
      mw.Release(*handle);
    }
  };
  rewrite::QueryRequest request;
  request.handle = *a;
  request.params = {{"cut", expr::EvalValue::Number(5)}};

  mw.Release(*a);  // one of two pins: still pinned
  churn();
  auto still_live = mw.Submit(request)->Await();
  ASSERT_TRUE(still_live.ok()) << still_live.status();

  mw.Release(*b);  // last pin: now evictable
  churn();
  auto dead = mw.Submit(request)->Await();
  EXPECT_FALSE(dead.ok());
}

TEST_F(MiddlewareTest, BinaryEncodingCheaperThanJson) {
  MiddlewareOptions binary;
  MiddlewareOptions json_opts;
  json_opts.binary_encoding = false;
  Middleware mw_bin(&engine_, binary);
  Middleware mw_json(&engine_, json_opts);
  auto b = RunSql(mw_bin, "SELECT * FROM t");
  auto j = RunSql(mw_json, "SELECT * FROM t");
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(j.ok());
  EXPECT_LT(b->bytes, j->bytes);
  EXPECT_LT(b->latency_millis, j->latency_millis);
}

// Fleet stats are monotone across session churn: a dropped session's
// counters are folded into the retired-sessions accumulator, never lost.
TEST_F(MiddlewareTest, RetiredSessionStatsFoldIntoAggregate) {
  Middleware mw(&engine_, {});
  size_t last_queries = 0;
  for (int i = 0; i < 100; ++i) {
    {
      auto session = mw.CreateSession();
      // Distinct literal per iteration: every query really runs.
      auto r = RunSql(mw, "SELECT COUNT(*) AS c FROM t WHERE v < " + std::to_string(i + 1),
                      session.get());
      ASSERT_TRUE(r.ok()) << r.status();
    }  // session dropped here; its stats must survive
    Middleware::Stats s = mw.stats();
    ASSERT_GE(s.queries, last_queries) << "aggregate went backwards at " << i;
    last_queries = s.queries;
  }
  Middleware::Stats s = mw.stats();
  EXPECT_EQ(s.queries, 100u);
  EXPECT_EQ(s.submitted, 100u);
  EXPECT_EQ(s.dbms_executions, 100u);
  EXPECT_EQ(s.sessions, 101u);  // 100 churned + the implicit default session
}

TEST(LatencyModelTest, Monotonicity) {
  LatencyParams p;
  EXPECT_GT(ServerComputeMillis(1000000, 3, p), ServerComputeMillis(1000, 3, p));
  EXPECT_GT(ClientComputeMillis(1000, 2, p), ServerComputeMillis(1000, 2, p) -
                                                 p.per_query_overhead_ms);
  EXPECT_GT(TransferMillis(1 << 20, true, p), p.round_trip_ms);
  EXPECT_GT(TransferMillis(1 << 20, false, p), TransferMillis(1 << 20, true, p));
}

TEST(BaselineTest, VegaFusionBeatsVegaAtScaleOnInit) {
  auto bc = benchdata::MakeBenchCase(TemplateId::kInteractiveHistogram, "flights",
                                     30000, 21);
  ASSERT_TRUE(bc.ok());
  sql::Engine engine;
  engine.RegisterTable(bc->dataset.name, bc->dataset.table);
  std::map<std::string, data::TablePtr> tables{{bc->dataset.name, bc->dataset.table}};

  VegaBaselineExecutor vega(bc->spec, tables);
  auto vega_init = vega.Initialize();
  ASSERT_TRUE(vega_init.ok()) << vega_init.status();

  VegaFusionBaselineExecutor fusion(bc->spec, &engine, {});
  auto fusion_init = fusion.Initialize();
  ASSERT_TRUE(fusion_init.ok()) << fusion_init.status();

  // Histogram aggregates to a handful of rows server-side; full pushdown
  // must beat shipping + binning 30k rows in the "browser".
  EXPECT_LT(fusion_init->total_ms, vega_init->total_ms);
}

// End-to-end output oracle: Vega (every transform client-side, so every
// signal-reading filter runs in FilterOp) against VegaFusion (full
// pushdown), mark data compared with Table::Equals after each interaction,
// on every interactive template and dataset.
TEST(BaselineAgreementTest, BaselinesAgreeOnVisualizationData) {
  size_t comparisons = 0;
  for (TemplateId id : benchdata::AllTemplates()) {
    if (!benchdata::IsInteractive(id)) continue;
    for (const char* dataset : {"flights", "movies", "weather", "taxis"}) {
      const std::string where =
          std::string(benchdata::TemplateName(id)) + " on " + dataset;
      auto bc = benchdata::MakeBenchCase(id, dataset, 4000, 33);
      ASSERT_TRUE(bc.ok()) << where << ": " << bc.status();
      sql::Engine engine;
      engine.RegisterTable(bc->dataset.name, bc->dataset.table);
      std::map<std::string, data::TablePtr> tables{{bc->dataset.name, bc->dataset.table}};

      VegaBaselineExecutor vega(bc->spec, tables);
      ASSERT_TRUE(vega.Initialize().ok()) << where;
      VegaFusionBaselineExecutor fusion(bc->spec, &engine, {});
      ASSERT_TRUE(fusion.Initialize().ok()) << where;

      benchdata::WorkloadGenerator workload(bc->spec, 5);
      for (int i = 0; i < 20; ++i) {
        auto interaction = workload.Next();
        ASSERT_TRUE(vega.Interact(interaction.updates).ok())
            << where << ": " << interaction.description;
        ASSERT_TRUE(fusion.Interact(interaction.updates).ok())
            << where << ": " << interaction.description;
        for (const auto& m : bc->spec.marks) {
          data::TablePtr a = vega.EntryOutput(m.from_data);
          data::TablePtr b = fusion.EntryOutput(m.from_data);
          ASSERT_NE(a, nullptr) << where << " " << m.from_data;
          ASSERT_NE(b, nullptr) << where << " " << m.from_data;
          EXPECT_TRUE(a->Equals(*b))
              << where << " " << m.from_data << " after interaction " << i << " ("
              << interaction.description << ")\nvega:\n"
              << a->ToString(8) << "vegafusion:\n" << b->ToString(8);
          ++comparisons;
        }
      }
    }
  }
  EXPECT_EQ(comparisons, 1040u);  // 13 marks x 4 datasets x 20 interactions
}

TEST(PlanExecutorTest, InteractBeforeInitializeFails) {
  auto bc = benchdata::MakeBenchCase(TemplateId::kInteractiveHistogram, "movies", 500, 2);
  ASSERT_TRUE(bc.ok());
  sql::Engine engine;
  engine.RegisterTable(bc->dataset.name, bc->dataset.table);
  PlanExecutor executor(bc->spec, &engine, {});
  EXPECT_FALSE(executor.Interact({{"maxbins", expr::EvalValue::Number(7)}}).ok());
}

TEST(PlanExecutorTest, CachesMakeRepeatInteractionsCheaper) {
  auto bc = benchdata::MakeBenchCase(TemplateId::kInteractiveHistogram, "flights",
                                     20000, 77);
  ASSERT_TRUE(bc.ok());
  sql::Engine engine;
  engine.RegisterTable(bc->dataset.name, bc->dataset.table);
  PlanExecutor executor(bc->spec, &engine, {});
  rewrite::PlanBuilder builder(bc->spec);
  ASSERT_TRUE(executor.Initialize(builder.FullPushdownPlan()).ok());
  std::vector<SignalUpdate> u1{{"maxbins", expr::EvalValue::Number(30)}};
  std::vector<SignalUpdate> u2{{"maxbins", expr::EvalValue::Number(10)}};
  auto first = executor.Interact(u1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(executor.Interact(u2).ok());
  auto repeat = executor.Interact(u1);  // identical query -> client cache
  ASSERT_TRUE(repeat.ok());
  EXPECT_LT(repeat->external_ms, first->external_ms);
}

}  // namespace
}  // namespace runtime
}  // namespace vegaplus
