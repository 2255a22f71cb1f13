// Shared harness for the table/figure reproduction binaries.
//
// Scale: defaults are reduced so the whole suite finishes in minutes; set
// VP_PAPER_SCALE=1 for the paper's sizes (50k..1M rows, 10x20 sessions).
// Sizes can also be set directly: VP_SIZES=10000,50000.
#ifndef VEGAPLUS_BENCH_BENCH_UTIL_H_
#define VEGAPLUS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchdata/templates.h"
#include "benchdata/workload.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "data/table.h"
#include "json/json_value.h"
#include "json/json_writer.h"
#include "optimizer/comparator.h"
#include "optimizer/trainer.h"

namespace vegaplus {
namespace bench {

struct BenchConfig {
  std::vector<size_t> sizes{5000, 10000, 20000, 50000};
  size_t sessions = 2;
  size_t interactions = 5;
  size_t max_plans = 192;
  size_t max_pairs = 12000;
  uint64_t seed = 2024;
};

inline BenchConfig LoadConfig() {
  BenchConfig config;
  if (const char* env = std::getenv("VP_PAPER_SCALE"); env && env[0] == '1') {
    config.sizes = {50000, 100000, 500000, 1000000};
    config.sessions = 10;
    config.interactions = 20;
  }
  if (const char* env = std::getenv("VP_SIZES")) {
    config.sizes.clear();
    for (const std::string& s : Split(env, ',')) {
      int64_t v = 0;
      if (ParseInt64(s, &v) && v > 0) config.sizes.push_back(static_cast<size_t>(v));
    }
  }
  if (const char* env = std::getenv("VP_SESSIONS")) {
    int64_t v = 0;
    if (ParseInt64(env, &v) && v > 0) config.sessions = static_cast<size_t>(v);
  }
  if (const char* env = std::getenv("VP_INTERACTIONS")) {
    int64_t v = 0;
    if (ParseInt64(env, &v) && v > 0) config.interactions = static_cast<size_t>(v);
  }
  return config;
}

/// \brief Machine-readable benchmark output: BENCH_<name>.json with the run
/// config, per-phase wall-clock, and free-form result metrics, so the repo's
/// perf trajectory is tracked across PRs (CI uploads these as artifacts).
///
/// Usage: construct at the top of main(), RecordConfig(), AddPhase()/
/// AddMetric() as results land. The file is written on destruction (or an
/// explicit Write()), into $VP_BENCH_JSON_DIR or the working directory.
class BenchReporter {
 public:
  explicit BenchReporter(std::string name) : name_(std::move(name)) {
    root_ = json::Value::MakeObject();
    root_.Set("bench", name_);
    phases_ = json::Value::MakeArray();
    metrics_ = json::Value::MakeObject();
  }
  ~BenchReporter() { Write(); }
  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  void RecordConfig(const BenchConfig& config) {
    json::Value c = json::Value::MakeObject();
    json::Value sizes = json::Value::MakeArray();
    for (size_t s : config.sizes) sizes.Append(json::Value(s));
    c.Set("sizes", std::move(sizes));
    c.Set("sessions", config.sessions);
    c.Set("interactions", config.interactions);
    c.Set("max_plans", config.max_plans);
    c.Set("seed", static_cast<size_t>(config.seed));
    root_.Set("config", std::move(c));
  }

  /// Record one timed phase (wall-clock milliseconds), in run order.
  void AddPhase(const std::string& phase, double wall_ms) {
    json::Value p = json::Value::MakeObject();
    p.Set("name", phase);
    p.Set("wall_ms", wall_ms);
    phases_.Append(std::move(p));
  }

  /// Record a free-form result metric (number, string, or nested object).
  void AddMetric(const std::string& key, json::Value v) {
    metrics_.Set(key, std::move(v));
  }

  void Write() {
    if (written_) return;
    written_ = true;
    root_.Set("total_wall_ms", total_.ElapsedMillis());
    root_.Set("phases", phases_);
    root_.Set("metrics", metrics_);
    std::string dir = ".";
    if (const char* env = std::getenv("VP_BENCH_JSON_DIR"); env != nullptr && env[0]) {
      dir = env;
    }
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    out << json::WritePretty(root_) << "\n";
    out.flush();
    if (out.good()) {
      std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "[bench] ERROR: failed to write %s\n", path.c_str());
    }
  }

 private:
  std::string name_;
  bool written_ = false;
  StopWatch total_;
  json::Value root_;
  json::Value phases_;
  json::Value metrics_;
};

/// Deterministic dataset choice per template (the paper randomly pairs
/// templates with datasets; we rotate).
inline std::string DatasetFor(benchdata::TemplateId id) {
  auto names = benchdata::DatasetNames();
  return names[static_cast<size_t>(id) % names.size()];
}

/// \brief Collected training/evaluation data for one (template, size).
struct TemplateRun {
  benchdata::BenchCase bc;
  std::unique_ptr<sql::Engine> engine;
  plan::EnumerationResult enumeration;
  /// episodes, grouped per session; sessions[s][0] is initial rendering.
  std::vector<std::vector<optimizer::EpisodeRecord>> sessions;

  std::vector<optimizer::EpisodeRecord> AllEpisodes() const {
    std::vector<optimizer::EpisodeRecord> all;
    for (const auto& s : sessions) {
      all.insert(all.end(), s.begin(), s.end());
    }
    return all;
  }
  std::vector<optimizer::EpisodeRecord> InitialEpisodes() const {
    std::vector<optimizer::EpisodeRecord> all;
    for (const auto& s : sessions) {
      if (!s.empty()) all.push_back(s.front());
    }
    return all;
  }
};

/// Simulate `sessions` sessions of `interactions` interactions each,
/// labeling + encoding every candidate plan per episode (§7.1's workload).
inline Result<std::unique_ptr<TemplateRun>> CollectTemplate(
    benchdata::TemplateId id, const std::string& dataset, size_t rows,
    const BenchConfig& config) {
  auto run = std::make_unique<TemplateRun>();
  VP_ASSIGN_OR_RETURN(run->bc, benchdata::MakeBenchCase(id, dataset, rows,
                                                        config.seed ^ rows));
  run->engine = std::make_unique<sql::Engine>();
  run->engine->RegisterTable(run->bc.dataset.name, run->bc.dataset.table);
  const bool interactive = benchdata::IsInteractive(id);

  for (size_t s = 0; s < config.sessions; ++s) {
    optimizer::CollectorOptions copts;
    copts.max_plans = config.max_plans;
    copts.seed = config.seed + s;
    optimizer::EpisodeCollector collector(run->bc.spec, run->engine.get(), copts);
    VP_RETURN_IF_ERROR(collector.Start());
    if (s == 0) run->enumeration = collector.enumeration();
    std::vector<optimizer::EpisodeRecord> episodes;
    VP_ASSIGN_OR_RETURN(optimizer::EpisodeRecord initial, collector.Collect());
    episodes.push_back(std::move(initial));
    if (interactive) {
      benchdata::WorkloadGenerator workload(run->bc.spec, config.seed * 31 + s);
      for (size_t i = 0; i < config.interactions; ++i) {
        VP_RETURN_IF_ERROR(collector.ApplyInteraction(workload.Next().updates));
        VP_ASSIGN_OR_RETURN(optimizer::EpisodeRecord ep, collector.Collect());
        episodes.push_back(std::move(ep));
      }
    }
    run->sessions.push_back(std::move(episodes));
  }
  return run;
}

/// \brief The four §5.3.2 models, trained on one pair set.
struct ModelSuite {
  std::unique_ptr<optimizer::RankSvmComparator> ranksvm;
  std::unique_ptr<optimizer::RandomForestComparator> forest;
  std::unique_ptr<optimizer::HeuristicComparator> heuristic;
  std::unique_ptr<optimizer::RandomComparator> random;

  std::vector<const optimizer::PlanComparator*> All() const {
    return {ranksvm.get(), forest.get(), heuristic.get(), random.get()};
  }
};

inline ModelSuite TrainSuite(const std::vector<ml::PairExample>& train, uint64_t seed) {
  ModelSuite suite;
  ml::RankSvm svm;
  svm.Train(train);
  suite.ranksvm = std::make_unique<optimizer::RankSvmComparator>(std::move(svm));
  ml::ForestOptions fopts;
  fopts.num_trees = 24;
  fopts.seed = seed;
  ml::RandomForest forest(fopts);
  forest.Train(train);
  suite.forest = std::make_unique<optimizer::RandomForestComparator>(std::move(forest));
  suite.heuristic = std::make_unique<optimizer::HeuristicComparator>();
  suite.random = std::make_unique<optimizer::RandomComparator>(seed);
  return suite;
}

/// Pairwise accuracy of a comparator over labeled pairs.
inline double ComparatorAccuracy(const optimizer::PlanComparator& comparator,
                                 const std::vector<ml::PairExample>& pairs) {
  if (pairs.empty()) return 0;
  size_t correct = 0;
  for (const auto& p : pairs) {
    int predicted = comparator.Compare(p.a, p.b);
    int actual = p.label == 1 ? -1 : 1;
    if (predicted == actual) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(pairs.size());
}

inline void Die(const Status& status, const char* what) {
  std::fprintf(stderr, "FATAL (%s): %s\n", what, status.ToString().c_str());
  std::exit(1);
}

/// The table with every string column forced to the given physical form
/// (Column::EncodeDictionary / DecodeFlat); the flat form is the baseline
/// of the string-encoding comparisons.
inline data::TablePtr Recode(const data::Table& table, bool dict) {
  std::vector<data::Column> columns;
  columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(dict ? table.column(c).EncodeDictionary()
                           : table.column(c).DecodeFlat());
  }
  return std::make_shared<data::Table>(table.schema(), std::move(columns));
}

#define BENCH_ASSIGN(lhs, expr_result)                    \
  auto VP_CONCAT(_bench_r_, __LINE__) = (expr_result);    \
  if (!VP_CONCAT(_bench_r_, __LINE__).ok())               \
    ::vegaplus::bench::Die(VP_CONCAT(_bench_r_, __LINE__).status(), #expr_result); \
  lhs = std::move(VP_CONCAT(_bench_r_, __LINE__)).ValueOrDie()

}  // namespace bench
}  // namespace vegaplus

#endif  // VEGAPLUS_BENCH_BENCH_UTIL_H_
