// Custom backends: the paper's §3 notes VegaPlus "supports any user-provided
// backend". This example shows all three integration points:
//   * the embedded SQL engine used directly — ad-hoc SQL, EXPLAIN, and the
//     prepared-statement API (parse once, bind per interaction),
//   * the session-oriented async query service (Prepare -> Submit -> ticket)
//     that VDTs speak to the middleware, and
//   * a custom rewrite::QueryService (here: a tracing decorator) plugged
//     under the VDTs. Services implement the session API (Prepare/Submit);
//     there is no string execution path besides it.
//
// Build & run:  ./build/examples/custom_backend
#include <cstdio>

#include "benchdata/templates.h"
#include "rewrite/plan_builder.h"
#include "runtime/middleware.h"
#include "sql/engine.h"

using namespace vegaplus;  // NOLINT

// A QueryService decorator that logs every statement the VDTs prepare and
// every submission they make — the seam where PostgreSQL/DuckDB/HeavyDB
// adapters would live. It implements the session API (Prepare/Submit) and
// forwards to the wrapped service; awaiting the forwarded ticket before
// returning keeps the trace ordered without changing the async contract.
class TracingService : public rewrite::QueryService {
 public:
  explicit TracingService(rewrite::QueryService* inner) : inner_(inner) {}

  Result<rewrite::PreparedHandle> Prepare(const std::string& sql_template) override {
    std::printf("  [prepare->backend] %s\n", sql_template.c_str());
    return inner_->Prepare(sql_template);
  }

  rewrite::QueryTicketPtr Submit(const rewrite::QueryRequest& request) override {
    std::printf("  [submit->backend] handle=%llu params=%zu\n",
                static_cast<unsigned long long>(request.handle),
                request.params.size());
    auto ticket = inner_->Submit(request);
    auto response = ticket->Await();
    if (response.ok()) {
      std::printf("  [backend->client] %zu rows, %zu bytes, %.2f ms (%s)\n",
                  response->table->num_rows(), response->bytes,
                  response->latency_millis,
                  response->source == rewrite::QueryResponse::Source::kDbms
                      ? "dbms"
                      : response->source ==
                                rewrite::QueryResponse::Source::kTileStore
                            ? "tiles"
                            : "cache");
    }
    return ticket;
  }

 private:
  rewrite::QueryService* inner_;
};

int main() {
  auto dataset = benchdata::MakeDataset("movies", 20000, 3);
  sql::Engine engine;
  engine.RegisterTable("movies", dataset->table);

  // --- Direct engine use: ad-hoc SQL + EXPLAIN ---
  std::printf("== direct SQL ==\n");
  auto result = engine.Query(
      "SELECT genre, COUNT(*) AS n, AVG(imdb_rating) AS rating FROM movies "
      "GROUP BY genre ORDER BY n DESC LIMIT 5");
  std::printf("%s\n", result->table->ToString(5).c_str());
  auto est = engine.Explain("SELECT * FROM movies WHERE imdb_rating > 8");
  std::printf("EXPLAIN: ~%.0f of %.0f rows, cost %.0f\n\n", est->output_rows,
              est->input_rows, est->cost);

  // --- Prepared statements: parse once, bind per interaction ---
  std::printf("== prepared statements ==\n");
  auto prepared = engine.Prepare(
      "SELECT COUNT(*) AS n FROM movies WHERE imdb_rating > ${min_rating}");
  for (double cut : {6.0, 7.5, 9.0}) {
    expr::MapSignalResolver params;
    params.Set("min_rating", expr::EvalValue::Number(cut));
    auto bound = engine.ExecuteBound(**prepared, params);
    std::printf("  rating > %.1f -> %.0f movies\n", cut,
                bound->table->column(0).NumericAt(0));
  }

  // --- Session API: async submission with tickets ---
  std::printf("\n== session API (async submit) ==\n");
  runtime::Middleware shared(&engine, {});
  auto session = shared.CreateSession();
  auto handle = session->Prepare(
      "SELECT genre, COUNT(*) AS n FROM movies WHERE imdb_rating > ${min_rating} "
      "GROUP BY genre");
  // Submit two independent bindings concurrently (generation 0 = never
  // supersede); both round trips overlap on the worker pool.
  rewrite::QueryRequest r1{*handle, {{"min_rating", expr::EvalValue::Number(5)}}, 0};
  rewrite::QueryRequest r2{*handle, {{"min_rating", expr::EvalValue::Number(8)}}, 0};
  auto t1 = session->Submit(r1);
  auto t2 = session->Submit(r2);
  auto a = t1->Await();
  auto b = t2->Await();
  if (a.ok() && b.ok()) {
    std::printf("  >5: %zu genres (%.2f ms)   >8: %zu genres (%.2f ms)\n",
                a->table->num_rows(), a->latency_millis, b->table->num_rows(),
                b->latency_millis);
  }
  // A *newer generation* for the same statement supersedes the in-flight
  // one — the stale brush event is cancelled, not decoded.
  auto stale = session->Submit(
      {*handle, {{"min_rating", expr::EvalValue::Number(6)}}, /*generation=*/1});
  auto fresh = session->Submit(
      {*handle, {{"min_rating", expr::EvalValue::Number(7)}}, /*generation=*/2});
  (void)fresh->Await();
  auto stale_result = stale->Await();
  std::printf("  superseded submit: %s\n",
              stale_result.ok() ? "completed before supersession"
                                : stale_result.status().ToString().c_str());
  auto stats = session->stats();
  std::printf("  session stats: %zu submitted, %zu dbms, %zu cancelled\n",
              stats.submitted, stats.dbms_executions, stats.cancelled);

  // --- Custom service under the VDTs ---
  std::printf("\n== VDT traffic through a custom backend ==\n");
  auto bc = benchdata::MakeBenchCase(benchdata::TemplateId::kInteractiveHistogram,
                                     "movies", 20000, 3);
  sql::Engine engine2;
  engine2.RegisterTable(bc->dataset.name, bc->dataset.table);
  runtime::Middleware middleware(&engine2, {});
  TracingService tracing(&middleware);

  rewrite::PlanBuilder builder(bc->spec);
  auto flow = builder.Build(builder.FullPushdownPlan(), &tracing);
  if (!flow.ok()) {
    std::fprintf(stderr, "%s\n", flow.status().ToString().c_str());
    return 1;
  }
  std::printf("initial rendering:\n");
  (void)flow->graph->Run();
  std::printf("interaction (maxbins=24):\n");
  (void)flow->graph->Update({{"maxbins", expr::EvalValue::Number(24)}});
  std::printf("interaction (field change):\n");
  (void)flow->graph->Update(
      {{"field", expr::EvalValue::String(bc->dataset.quantitative[1])}});
  return 0;
}
