// Microbenchmark for the vectorized expression engine: scalar interpreter
// (row-at-a-time expr::Evaluate) vs compiled column-at-a-time execution
// (expr::Compiler + expr::BatchEvaluator) over 1M-row columns.
//
// Workloads: WHERE filtering (fused single compare and a compound
// predicate), projection (arithmetic formula), and a full GROUP BY query
// through the SQL executor with the vectorized path toggled on/off.
// The PR gate is >=5x on filter/projection/group-by; set VP_REQUIRE_SPEEDUP
// to make the binary exit non-zero below that bar.
//
// String workloads (equality filter, group-by, sort over a 100-distinct
// category column) additionally compare dictionary-encoded columns against
// their flat twin (Column::DecodeFlat, via bench::Recode), both running
// the vectorized engine; VP_REQUIRE_DICT_SPEEDUP gates the
// dictionary win (>=4x on string filter + group-by at 1M rows).
//
// Rows default to 1,000,000; VP_SIZES=<n> overrides (the largest entry is
// used), which is how bench-smoke keeps CI runs short.
#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "common/timer.h"
#include "data/table.h"
#include "expr/batch_eval.h"
#include "expr/compiler.h"
#include "expr/evaluator.h"
#include "expr/parser.h"
#include "sql/engine.h"

using namespace vegaplus;         // NOLINT
using namespace vegaplus::bench;  // NOLINT

namespace {

constexpr int kReps = 3;

data::TablePtr MakeWideTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  data::Column d(data::DataType::kFloat64);
  data::Column i(data::DataType::kInt64);
  data::Column s(data::DataType::kString);
  data::Column t(data::DataType::kTimestamp);
  d.Reserve(rows);
  i.Reserve(rows);
  s.Reserve(rows);
  t.Reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    if (rng.NextBool(0.02)) {
      d.AppendNull();
    } else {
      d.AppendDouble(rng.Uniform(0, 1000));
    }
    i.AppendInt(rng.UniformInt(0, 999));
    s.AppendString("cat_" + std::to_string(rng.Index(100)));
    t.AppendInt(1577836800000LL + rng.UniformInt(0, 365LL * 86400000LL));
  }
  std::vector<data::Column> cols;
  cols.push_back(std::move(d));
  cols.push_back(std::move(i));
  cols.push_back(std::move(s));
  cols.push_back(std::move(t));
  return std::make_shared<data::Table>(
      data::Schema({{"d", data::DataType::kFloat64},
                    {"i", data::DataType::kInt64},
                    {"s", data::DataType::kString},
                    {"t", data::DataType::kTimestamp}}),
      std::move(cols));
}

expr::NodePtr MustParse(const char* text) {
  auto parsed = expr::ParseExpression(text);
  if (!parsed.ok()) Die(parsed.status(), text);
  return *parsed;
}

/// Best-of-kReps wall-clock milliseconds of `fn`.
template <typename F>
double TimeMs(F fn) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    StopWatch watch;
    fn();
    best = std::min(best, watch.ElapsedMillis());
  }
  return best;
}

struct Comparison {
  double scalar_ms;
  double vector_ms;
  double speedup() const { return scalar_ms / vector_ms; }
};

void Report(BenchReporter* reporter, const char* name, const Comparison& c) {
  std::printf("%-18s %12.2f %12.2f %9.1fx\n", name, c.scalar_ms, c.vector_ms,
              c.speedup());
  json::Value m = json::Value::MakeObject();
  m.Set("scalar_ms", c.scalar_ms);
  m.Set("vector_ms", c.vector_ms);
  m.Set("speedup", c.speedup());
  reporter->AddMetric(name, std::move(m));
  reporter->AddPhase(std::string(name) + "_scalar", c.scalar_ms);
  reporter->AddPhase(std::string(name) + "_vector", c.vector_ms);
}

Comparison CompareFilter(const data::Table& table, const char* text) {
  expr::NodePtr pred = MustParse(text);
  auto program = expr::Compiler::Compile(pred, table.schema());
  if (!program) Die(Status::InvalidArgument("predicate did not compile"), text);

  size_t scalar_hits = 0, vector_hits = 0;
  Comparison c;
  c.scalar_ms = TimeMs([&] {
    std::vector<int32_t> sel;
    sel.reserve(table.num_rows());
    expr::EvalContext ctx;
    ctx.table = &table;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      ctx.row = r;
      if (expr::Evaluate(pred, ctx).Truthy()) sel.push_back(static_cast<int32_t>(r));
    }
    scalar_hits = sel.size();
  });
  c.vector_ms = TimeMs([&] {
    std::vector<int32_t> sel;
    sel.reserve(table.num_rows());
    expr::BatchEvaluator(table).RunFilter(*program, &sel);
    vector_hits = sel.size();
  });
  if (scalar_hits != vector_hits) {
    Die(Status::RuntimeError(StrFormat("filter mismatch: %zu vs %zu rows", scalar_hits,
                                   vector_hits)),
        text);
  }
  return c;
}

Comparison CompareProjection(const data::Table& table, const char* text) {
  expr::NodePtr node = MustParse(text);
  auto program = expr::Compiler::Compile(node, table.schema());
  if (!program) Die(Status::InvalidArgument("projection did not compile"), text);

  Comparison c;
  c.scalar_ms = TimeMs([&] {
    data::Column col(data::DataType::kFloat64);
    col.Reserve(table.num_rows());
    expr::EvalContext ctx;
    ctx.table = &table;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      ctx.row = r;
      expr::EvalValue v = expr::Evaluate(node, ctx);
      col.Append(v.is_array() ? data::Value::Null() : v.scalar());
    }
  });
  c.vector_ms = TimeMs([&] {
    data::Column col(data::DataType::kFloat64);
    expr::BatchEvaluator(table).RunToColumn(*program, &col);
  });
  return c;
}

/// Same engine query under both string encodings: `flat` registered the
/// flat twin of the table, `dict` the default build.
/// Both runs use the vectorized engine; the speedup isolates the encoding.
Comparison CompareEncoding(const sql::Engine& dict_engine,
                           const sql::Engine& flat_engine, const char* sql) {
  size_t dict_rows = 0, flat_rows = 0;
  Comparison c;
  c.scalar_ms = TimeMs([&] {
    auto result = flat_engine.Query(sql);
    if (!result.ok()) Die(result.status(), sql);
    flat_rows = result->table->num_rows();
  });
  c.vector_ms = TimeMs([&] {
    auto result = dict_engine.Query(sql);
    if (!result.ok()) Die(result.status(), sql);
    dict_rows = result->table->num_rows();
  });
  if (dict_rows != flat_rows) {
    Die(Status::RuntimeError(StrFormat("encoding mismatch: %zu vs %zu rows", dict_rows,
                                   flat_rows)),
        sql);
  }
  return c;
}

void ReportEncoding(BenchReporter* reporter, const char* name, const Comparison& c) {
  std::printf("%-18s %12.2f %12.2f %9.1fx\n", name, c.scalar_ms, c.vector_ms,
              c.speedup());
  json::Value m = json::Value::MakeObject();
  m.Set("flat_ms", c.scalar_ms);
  m.Set("dict_ms", c.vector_ms);
  m.Set("speedup", c.speedup());
  reporter->AddMetric(name, std::move(m));
  reporter->AddPhase(std::string(name) + "_flat", c.scalar_ms);
  reporter->AddPhase(std::string(name) + "_dict", c.vector_ms);
}

Comparison CompareQuery(const sql::Engine& engine, const char* sql) {
  size_t scalar_rows = 0, vector_rows = 0;
  Comparison c;
  common::QueryContext interpreter;
  interpreter.vectorized = false;
  c.scalar_ms = TimeMs([&] {
    auto result = engine.Query(sql, &interpreter);
    if (!result.ok()) Die(result.status(), sql);
    scalar_rows = result->table->num_rows();
  });
  c.vector_ms = TimeMs([&] {
    auto result = engine.Query(sql);
    if (!result.ok()) Die(result.status(), sql);
    vector_rows = result->table->num_rows();
  });
  if (scalar_rows != vector_rows) {
    Die(Status::RuntimeError(StrFormat("query mismatch: %zu vs %zu rows", scalar_rows,
                                   vector_rows)),
        sql);
  }
  return c;
}

}  // namespace

int main() {
  BenchConfig config = LoadConfig();
  size_t rows = 1000000;
  if (std::getenv("VP_SIZES") != nullptr && !config.sizes.empty()) {
    rows = *std::max_element(config.sizes.begin(), config.sizes.end());
  }

  BenchReporter reporter("micro_expr");
  reporter.RecordConfig(config);
  reporter.AddMetric("rows", json::Value(rows));

  std::printf("=== Micro: vectorized expression engine (rows=%zu) ===\n\n", rows);
  data::TablePtr table = MakeWideTable(rows, config.seed);
  sql::Engine engine;
  engine.RegisterTable("t", table);
  // Flat twin (same cells, flat strings) for the encoding comparisons.
  data::TablePtr flat_table = Recode(*table, /*dict=*/false);
  sql::Engine flat_engine;
  flat_engine.RegisterTable("t", flat_table);

  std::printf("%-18s %12s %12s %10s\n", "workload", "scalar_ms", "vector_ms",
              "speedup");

  Comparison filter_fused = CompareFilter(*table, "datum.d > 500");
  Report(&reporter, "filter_fused", filter_fused);

  Comparison filter_compound =
      CompareFilter(*table, "datum.d > 250 && datum.i < 600 && datum.d <= 900");
  Report(&reporter, "filter_compound", filter_compound);

  Comparison projection = CompareProjection(*table, "datum.d * 2 + datum.i / 7");
  Report(&reporter, "projection", projection);

  Comparison group_by = CompareQuery(
      engine,
      "SELECT s, COUNT(*) AS n, SUM(d) AS sd, AVG(i) AS ai FROM t GROUP BY s");
  Report(&reporter, "group_by", group_by);

  Comparison where_query = CompareQuery(
      engine, "SELECT COUNT(*) AS n FROM t WHERE d > 250 AND d <= 900");
  Report(&reporter, "where_query", where_query);

  Comparison order_by = CompareQuery(
      engine, "SELECT i, d FROM t WHERE d > 900 ORDER BY d DESC LIMIT 100");
  Report(&reporter, "order_by", order_by);

  std::printf("\n%-18s %12s %12s %10s\n", "string workload", "flat_ms", "dict_ms",
              "speedup");

  Comparison str_filter = CompareEncoding(
      engine, flat_engine, "SELECT COUNT(*) AS n FROM t WHERE s = 'cat_7'");
  ReportEncoding(&reporter, "str_filter_eq", str_filter);

  Comparison str_group_by = CompareEncoding(
      engine, flat_engine,
      "SELECT s, COUNT(*) AS n, SUM(d) AS sd FROM t GROUP BY s");
  ReportEncoding(&reporter, "str_group_by", str_group_by);

  Comparison str_sort = CompareEncoding(
      engine, flat_engine, "SELECT s, d FROM t ORDER BY s DESC, d LIMIT 100");
  ReportEncoding(&reporter, "str_sort", str_sort);

  const double gate = std::min(
      {filter_fused.speedup(), filter_compound.speedup(), projection.speedup(),
       group_by.speedup()});
  std::printf("\nminimum gated speedup (filter/projection/group-by): %.1fx\n", gate);
  reporter.AddMetric("min_gated_speedup", json::Value(gate));

  const double dict_gate = std::min(str_filter.speedup(), str_group_by.speedup());
  std::printf("minimum gated dictionary speedup (str filter/group-by): %.1fx\n",
              dict_gate);
  reporter.AddMetric("min_dict_speedup", json::Value(dict_gate));

  if (const char* env = std::getenv("VP_REQUIRE_SPEEDUP"); env != nullptr && env[0]) {
    double required = std::atof(env);
    if (gate < required) {
      std::fprintf(stderr, "FAIL: speedup %.1fx below required %.1fx\n", gate,
                   required);
      return 1;
    }
  }
  if (const char* env = std::getenv("VP_REQUIRE_DICT_SPEEDUP");
      env != nullptr && env[0]) {
    double required = std::atof(env);
    if (dict_gate < required) {
      std::fprintf(stderr, "FAIL: dictionary speedup %.1fx below required %.1fx\n",
                   dict_gate, required);
      return 1;
    }
  }
  return 0;
}
