// Workload definitions, set-up, closed-loop clients, the output oracle, and
// the metrics of one benchmark run. perfbench/README.md documents why each
// workload exists and which layer metric should move which end-to-end one.
#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "benchdata/datasets.h"
#include "benchdata/templates.h"
#include "benchdata/workload.h"
#include "common/parallel.h"
#include "common/random.h"
#include "dataflow/signal_registry.h"
#include "expr/kernels/kernels.h"
#include "json/json_value.h"
#include "json/json_writer.h"
#include "optimizer/comparator.h"
#include "plan/encoder.h"
#include "plan/enumerator.h"
#include "report.h"
#include "rewrite/plan_builder.h"
#include "runtime/latency_model.h"
#include "runtime/middleware.h"
#include "runtime/plan_executor.h"
#include "sql/engine.h"
#include "storage/reader.h"
#include "storage/stats.h"
#include "storage/table_shard.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace vp = vegaplus;
using vp::Status;
using vp::benchdata::TemplateId;
using vp::runtime::EpisodeCost;
using vp::runtime::SignalUpdate;
using SignalMap = std::map<std::string, vp::expr::EvalValue>;

// The table and the dashboards are fixed, so every seed replays interactions
// against the same data under the same plans: --seed varies only the
// interaction streams. The warm-up stream is fixed too, so set-up does the
// same work on every seed.
constexpr uint64_t kDatasetSeed = 2024;
constexpr uint64_t kWarmupSeed = 7;
constexpr size_t kWarmupInteractions = 3;
// Wall-time budget for replaying captured statements alone on the engine.
constexpr double kReplayBudgetS = 2.0;
// interactions_per_s is the median rate of this many groups of completions.
constexpr size_t kThroughputGroups = 15;

struct WorkloadDef {
  std::string name;
  std::vector<TemplateId> templates;
  size_t rows = 0;
  /// Concurrent closed-loop clients, capped at the usable CPUs. A client
  /// starts its next interaction only after its dashboard has updated.
  size_t clients = 1;
  /// Interactions per session; then the client opens a new session, cycling
  /// through the workload's dashboards.
  size_t session_interactions = 0;
  /// Run PlanBuilder::AllClientPlan() instead of the heuristic's choice.
  bool all_client = false;
  /// Serve the table from a VPS1 shard instead of memory.
  bool shard = false;
  /// Drop the cache tiers before each session: single users starting cold.
  bool fresh_caches = true;
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"crossfilter_server", {TemplateId::kCrossfilter}, 400000, 1, 40, false, false, true},
      {"crossfilter_client", {TemplateId::kCrossfilter}, 50000, 1, 12, true, false, true},
      {"crossfilter_shard", {TemplateId::kCrossfilter}, 400000, 1, 15, false, true, true},
      {"dashboard_fleet",
       {TemplateId::kInteractiveHistogram, TemplateId::kHeatmapBarChart},
       250000, 4, 20, false, false, false},
  };
  return defs;
}

template <typename T>
double Delta(T after, T before) {
  return after >= before ? static_cast<double>(after - before) : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

void Warn(const char* what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what, status.ToString().c_str());
}

// ---- Set-up ----

struct Dashboard {
  TemplateId id = TemplateId::kCrossfilter;
  vp::spec::VegaSpec spec;
  vp::rewrite::ExecutionPlan plan;       ///< the plan the workload runs
  vp::rewrite::ExecutionPlan heuristic;  ///< the heuristic comparator's choice
  size_t plan_count = 0;
  size_t heuristic_index = 0;
  double enumerate_ms = 0;
  double encode_ms = 0;
  double select_ms = 0;
};

struct Setup {
  std::string table_name;
  vp::data::TablePtr table;  ///< the rows the engine serves, in its row order
  std::unique_ptr<vp::sql::Engine> engine;
  std::shared_ptr<vp::storage::Reader> shard;
  size_t shard_decoded_bytes = 0;
  std::vector<Dashboard> dashboards;
  /// Declared before the middleware, whose before_dbms_execute hook points
  /// here, so it outlives it.
  std::unique_ptr<DbmsStartLog> dbms_log;
  std::shared_ptr<vp::runtime::Middleware> middleware;
  double seconds = 0;
};

SignalMap BoundSignals(const vp::spec::VegaSpec& spec) {
  SignalMap out;
  for (const vp::spec::SignalSpec& s : spec.signals) {
    if (s.bind != vp::spec::BindKind::kNone) out[s.name] = vp::expr::EvalValue::FromJson(s.init);
  }
  return out;
}

Status ChoosePlan(const WorkloadDef& def, const vp::sql::Engine& engine, Dashboard* d) {
  vp::rewrite::PlanBuilder builder(d->spec);
  const auto t0 = Clock::now();
  vp::plan::EnumerationResult enumeration = vp::plan::EnumeratePlans(builder);
  const auto t1 = Clock::now();
  vp::plan::PlanEncoder encoder(builder, &engine);
  vp::dataflow::SignalRegistry signals;
  for (const vp::spec::SignalSpec& s : d->spec.signals) {
    signals.Set(s.name, vp::expr::EvalValue::FromJson(s.init), 0);
  }
  const auto vectors = encoder.EncodePlans(enumeration.plans, signals);
  const auto t2 = Clock::now();
  const size_t best =
      vp::optimizer::SelectBestPlan(vp::optimizer::HeuristicComparator(), vectors);
  const auto t3 = Clock::now();
  if (best >= enumeration.plans.size()) {
    return Status::RuntimeError("no execution plan for " + d->spec.name);
  }
  d->plan_count = enumeration.plans.size();
  d->heuristic_index = best;
  d->heuristic = enumeration.plans[best];
  d->plan = def.all_client ? builder.AllClientPlan() : d->heuristic;
  d->enumerate_ms = Ms(t1 - t0);
  d->encode_ms = Ms(t2 - t1);
  d->select_ms = Ms(t3 - t2);
  return Status::OK();
}

// The table goes to a VPS1 shard ordered by the first brushed field (the
// engine's ORDER BY), so zone maps can prune that brush. The residency
// budget is a quarter of the decoded bytes: the working set is four times
// the chunk cache.
Status RegisterShard(const std::string& dir, Setup* setup) {
  std::string order_field;
  for (const vp::spec::SignalSpec& s : setup->dashboards.front().spec.signals) {
    if (s.bind == vp::spec::BindKind::kInterval) {
      order_field = s.bound_field;
      break;
    }
  }
  if (order_field.empty()) return Status::InvalidArgument("shard workload needs a brush");
  vp::sql::Engine staging;
  staging.RegisterTable(setup->table_name, setup->table);
  VP_ASSIGN_OR_RETURN(vp::sql::QueryResult sorted,
                      staging.Query("SELECT * FROM " + setup->table_name + " ORDER BY " +
                                    order_field));
  setup->table = sorted.table;
  const std::string path = dir + "/" + setup->table_name + ".vps";
  VP_RETURN_IF_ERROR(vp::storage::TableShard::Write(path, *setup->table));
  VP_ASSIGN_OR_RETURN(setup->shard, vp::storage::Reader::Open(path));
  setup->shard->set_residency_budget(0);  // unbounded while measuring the decoded size
  VP_RETURN_IF_ERROR(setup->shard->ReadAll().status());
  setup->shard_decoded_bytes = setup->shard->resident_bytes();
  setup->shard->EvictAll();
  setup->shard->set_residency_budget(std::max<size_t>(1, setup->shard_decoded_bytes / 4));
  return setup->engine->RegisterShardTable(setup->table_name, setup->shard);
}

// One short session per dashboard on a fixed stream pays lazy set-up (the
// morsel pool, first-touch tile trees of the initial views) before timing;
// the caches it filled are dropped again.
Status WarmUp(Setup* setup) {
  for (size_t i = 0; i < setup->dashboards.size(); ++i) {
    const Dashboard& d = setup->dashboards[i];
    vp::runtime::PlanExecutor executor(d.spec, setup->middleware);
    VP_RETURN_IF_ERROR(executor.Initialize(d.plan).status());
    vp::benchdata::WorkloadGenerator workload(d.spec, kWarmupSeed + i);
    for (size_t k = 0; k < kWarmupInteractions; ++k) {
      VP_RETURN_IF_ERROR(executor.Interact(workload.Next().updates).status());
    }
  }
  setup->middleware->ClearCaches();
  return Status::OK();
}

vp::Result<std::unique_ptr<Setup>> BuildSetup(const WorkloadDef& def, const Config& config,
                                              size_t rows) {
  const auto start = Clock::now();
  auto setup = std::make_unique<Setup>();
  VP_ASSIGN_OR_RETURN(vp::benchdata::Dataset dataset,
                      vp::benchdata::MakeDataset("flights", rows, kDatasetSeed));
  setup->table_name = dataset.name;
  setup->table = dataset.table;
  for (size_t i = 0; i < def.templates.size(); ++i) {
    vp::Rng rng(kDatasetSeed + i);
    Dashboard d;
    d.id = def.templates[i];
    VP_ASSIGN_OR_RETURN(d.spec, vp::benchdata::BuildTemplate(d.id, dataset, &rng));
    setup->dashboards.push_back(std::move(d));
  }
  setup->engine = std::make_unique<vp::sql::Engine>();
  if (def.shard) {
    VP_RETURN_IF_ERROR(RegisterShard(config.out_dir, setup.get()));
  } else {
    setup->engine->RegisterTable(setup->table_name, setup->table);
  }
  for (Dashboard& d : setup->dashboards) VP_RETURN_IF_ERROR(ChoosePlan(def, *setup->engine, &d));
  vp::runtime::MiddlewareOptions options;
  options.worker_threads = UsableCpus();
  if (config.trace) {
    setup->dbms_log = std::make_unique<DbmsStartLog>();
    options.before_dbms_execute = setup->dbms_log->Hook();
  }
  setup->middleware = std::make_shared<vp::runtime::Middleware>(setup->engine.get(), options);
  VP_RETURN_IF_ERROR(WarmUp(setup.get()));
  setup->seconds = Ms(Clock::now() - start) / 1000.0;
  return vp::Result<std::unique_ptr<Setup>>(std::move(setup));
}

// ---- Measurement ----

/// Monotone counters read around a phase; metrics use the deltas.
struct Counters {
  vp::runtime::Middleware::Stats middleware;
  vp::sql::ExecStats engine;
  vp::tiles::TileStoreStats tiles;
  uint64_t chunks_pruned = 0;
  uint64_t morsels_pruned = 0;
  uint64_t chunks_paged_in = 0;
  uint64_t bitmap_selections = 0;
  uint64_t index_selections = 0;
  uint64_t scalar_fallbacks = 0;
};

Counters ReadCounters(const Setup& setup) {
  Counters c;
  c.middleware = setup.middleware->stats();
  c.engine = setup.engine->lifetime_stats();
  if (const vp::tiles::TileStore* tiles = setup.middleware->tile_store()) c.tiles = tiles->stats();
  c.chunks_pruned = vp::storage::ChunksPruned();
  c.morsels_pruned = vp::storage::MorselsPruned();
  c.chunks_paged_in = vp::storage::ChunksPagedIn();
  c.bitmap_selections = vp::kernels::BitmapSelections();
  c.index_selections = vp::kernels::IndexSelections();
  c.scalar_fallbacks = vp::kernels::ScalarFallbacks();
  return c;
}

/// What the oracle needs from one finished session.
struct SessionRecord {
  size_t dashboard = 0;
  SignalMap signals;  ///< bound signals' values when the session ended
  std::map<std::string, vp::data::TablePtr> outputs;  ///< per entry; null if not on the client
};

/// One dataflow pass of a traced session.
struct Pulse {
  bool render = false;
  int64_t span = 0;
  Clock::time_point start;
  Clock::time_point end;
  vp::dataflow::RunStats stats;
};

/// Everything the clients of one phase measured.
struct ClientLog {
  std::vector<double> render_ms;
  std::vector<double> interaction_ms;
  std::vector<Clock::time_point> interaction_done;  ///< completion time of each interaction
  std::vector<EpisodeCost> render_model;            ///< untraced sessions
  std::vector<EpisodeCost> interaction_model;  ///< untraced sessions
  std::vector<double> build_ms;                ///< traced sessions
  std::vector<Pulse> pulses;                   ///< traced sessions
  std::vector<std::shared_ptr<RequestRecord>> requests;
  std::vector<SessionRecord> sessions;
  size_t attempted = 0;
  size_t failed = 0;

  void Append(ClientLog&& other) {
    auto move_all = [](auto* into, auto* from) {
      into->insert(into->end(), std::make_move_iterator(from->begin()),
                   std::make_move_iterator(from->end()));
    };
    move_all(&render_ms, &other.render_ms);
    move_all(&interaction_ms, &other.interaction_ms);
    move_all(&interaction_done, &other.interaction_done);
    move_all(&render_model, &other.render_model);
    move_all(&interaction_model, &other.interaction_model);
    move_all(&build_ms, &other.build_ms);
    move_all(&pulses, &other.pulses);
    move_all(&requests, &other.requests);
    move_all(&sessions, &other.sessions);
    attempted += other.attempted;
    failed += other.failed;
  }
};

struct SessionPlan {
  const Dashboard* dashboard = nullptr;
  size_t index = 0;  ///< dashboard index
  uint64_t stream = 0;
  size_t interactions = 0;
  Clock::time_point deadline;
};

SessionRecord StartRecord(const SessionPlan& p) {
  SessionRecord record;
  record.dashboard = p.index;
  record.signals = BoundSignals(p.dashboard->spec);
  return record;
}

// Untraced: the end-to-end numbers, through PlanExecutor.
void RunUntracedSession(const SessionPlan& p, Setup* setup, ClientLog* log) {
  const Dashboard& d = *p.dashboard;
  vp::runtime::PlanExecutor executor(d.spec, setup->middleware);
  SessionRecord record = StartRecord(p);
  ++log->attempted;
  auto start = Clock::now();
  auto render = executor.Initialize(d.plan);
  const double render_ms = Ms(Clock::now() - start);
  if (!render.ok()) {
    ++log->failed;
    Warn("PlanExecutor::Initialize", render.status());
    return;
  }
  log->render_ms.push_back(render_ms);
  log->render_model.push_back(*render);
  vp::benchdata::WorkloadGenerator workload(d.spec, p.stream);
  for (size_t i = 0; i < p.interactions && Clock::now() < p.deadline; ++i) {
    vp::benchdata::Interaction interaction = workload.Next();
    ++log->attempted;
    start = Clock::now();
    auto cost = executor.Interact(interaction.updates);
    const auto done = Clock::now();
    if (!cost.ok()) {
      // The dashboard state is unknown after a failed pulse: no oracle check.
      ++log->failed;
      Warn("PlanExecutor::Interact", cost.status());
      return;
    }
    log->interaction_ms.push_back(Ms(done - start));
    log->interaction_done.push_back(done);
    log->interaction_model.push_back(*cost);
    for (const auto& [name, value] : interaction.updates) record.signals[name] = value;
  }
  for (const vp::spec::DataSpec& entry : d.spec.data) {
    record.outputs[entry.name] = executor.EntryOutput(entry.name);
  }
  log->sessions.push_back(std::move(record));
}

// Traced: the same session built with PlanBuilder::Build over the tracing
// decorator, one span per dataflow pass.
void RunTracedSession(const SessionPlan& p, Setup* setup, Tracer* tracer, ClientLog* log) {
  const Dashboard& d = *p.dashboard;
  std::shared_ptr<vp::runtime::Session> session = setup->middleware->CreateSession();
  TracingService service(session.get(), setup->dbms_log.get(), tracer);
  vp::rewrite::PlanBuilder builder(d.spec);
  SessionRecord record = StartRecord(p);
  auto keep_requests = [&]() {
    service.Drain();
    log->requests.insert(log->requests.end(), service.records().begin(),
                         service.records().end());
  };
  ++log->attempted;
  const int64_t build_span = tracer->NewId();
  service.set_parent(build_span);
  const auto start = Clock::now();
  auto flow = builder.Build(d.plan, &service);
  const auto built = Clock::now();
  tracer->Add({"rewrite.build", start, built, build_span, -1, build_span});
  if (!flow.ok()) {
    ++log->failed;
    Warn("PlanBuilder::Build", flow.status());
    keep_requests();
    return;
  }
  log->build_ms.push_back(Ms(built - start));

  auto pulse = [&](const std::vector<SignalUpdate>* updates) -> std::optional<Pulse> {
    Pulse out;
    out.render = updates == nullptr;
    out.span = tracer->NewId();
    service.set_parent(out.span);
    out.start = Clock::now();
    auto stats = out.render ? flow->graph->Run() : flow->graph->Update(*updates);
    out.end = Clock::now();
    service.Drain();
    tracer->Add({out.render ? "dataflow.render" : "dataflow.pulse", out.start, out.end, out.span,
                 -1, out.span});
    if (!stats.ok()) {
      Warn(out.render ? "Dataflow::Run" : "Dataflow::Update", stats.status());
      return std::nullopt;
    }
    out.stats = *stats;
    return out;
  };

  std::optional<Pulse> render = pulse(nullptr);
  if (!render) {
    ++log->failed;
    keep_requests();
    return;
  }
  // Build plus first pass: what PlanExecutor::Initialize times untraced.
  log->render_ms.push_back(Ms(render->end - start));
  log->pulses.push_back(*render);
  vp::benchdata::WorkloadGenerator workload(d.spec, p.stream);
  for (size_t i = 0; i < p.interactions && Clock::now() < p.deadline; ++i) {
    vp::benchdata::Interaction interaction = workload.Next();
    ++log->attempted;
    std::optional<Pulse> next = pulse(&interaction.updates);
    if (!next) {
      ++log->failed;
      keep_requests();
      return;
    }
    log->interaction_ms.push_back(Ms(next->end - next->start));
    log->interaction_done.push_back(next->end);
    log->pulses.push_back(*next);
    for (const auto& [name, value] : interaction.updates) record.signals[name] = value;
  }
  for (const vp::spec::DataSpec& entry : d.spec.data) {
    auto tail = flow->entry_tails.find(entry.name);
    record.outputs[entry.name] = tail == flow->entry_tails.end() ? nullptr : tail->second->output;
  }
  log->sessions.push_back(std::move(record));
  keep_requests();
}

void RunClient(const WorkloadDef& def, const Config& config, Setup* setup, size_t client,
               Clock::time_point deadline, Tracer* tracer, ClientLog* log) {
  const size_t interactions =
      config.session_interactions > 0 ? config.session_interactions : def.session_interactions;
  vp::Rng streams(config.seed * 7919 + client);
  for (size_t s = 0; Clock::now() < deadline; ++s) {
    if (config.max_sessions > 0 && s >= config.max_sessions) break;
    SessionPlan plan;
    plan.index = (client + s) % setup->dashboards.size();
    plan.dashboard = &setup->dashboards[plan.index];
    plan.stream = streams.Next();
    plan.interactions = interactions;
    plan.deadline = deadline;
    if (def.fresh_caches) setup->middleware->ClearCaches();
    if (tracer != nullptr) {
      RunTracedSession(plan, setup, tracer, log);
    } else {
      RunUntracedSession(plan, setup, log);
    }
  }
}

size_t ClientCount(const WorkloadDef& def) {
  return std::max<size_t>(1, std::min(def.clients, UsableCpus()));
}

struct Phase {
  bool traced = false;
  ClientLog log;
  Clock::time_point start;
  double wall_s = 0;
  Counters before;
  Counters after;
};

Phase RunPhase(const WorkloadDef& def, const Config& config, double seconds, Tracer* tracer,
               Setup* setup) {
  Phase phase;
  phase.traced = tracer != nullptr;
  const size_t clients = ClientCount(def);
  std::vector<ClientLog> logs(clients);
  if (setup->dbms_log != nullptr) setup->dbms_log->set_enabled(phase.traced);
  setup->middleware->ClearCaches();
  phase.before = ReadCounters(*setup);
  phase.start = Clock::now();
  const auto deadline = phase.start + Seconds(seconds);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back(RunClient, std::cref(def), std::cref(config), setup, c, deadline, tracer,
                         &logs[c]);
  }
  for (std::thread& t : threads) t.join();
  phase.wall_s = Ms(Clock::now() - phase.start) / 1000.0;
  phase.after = ReadCounters(*setup);
  for (ClientLog& l : logs) phase.log.Append(std::move(l));
  return phase;
}

// ---- Output oracle ----

struct OracleResult {
  size_t sessions = 0;    ///< sessions compared
  size_t states = 0;      ///< distinct final signal states replayed
  size_t entries = 0;     ///< data entry outputs compared
  size_t mismatches = 0;  ///< sessions with an entry that differs
  std::string first_mismatch;
};

std::string StateKey(const SignalMap& signals) {
  std::string key;
  for (const auto& [name, value] : signals) key += name + "=" + value.ToString() + ";";
  return key;
}

/// A session and the key of its final signal state.
using KeyedRecord = std::pair<std::string, const SessionRecord*>;

// Sessions replay in state order, so consecutive states share most signal
// values (the reference re-runs only what changed) and equal states run
// once.
template <typename Reference>
void Replay(const Dashboard& d, const std::vector<KeyedRecord>& ordered, Reference* reference,
            OracleResult* result) {
  SignalMap current = BoundSignals(d.spec);
  for (size_t i = 0; i < ordered.size(); ++i) {
    const SessionRecord& record = *ordered[i].second;
    std::vector<SignalUpdate> updates;
    for (const auto& [name, value] : record.signals) {
      auto it = current.find(name);
      if (it == current.end() || it->second != value) updates.emplace_back(name, value);
    }
    if (!updates.empty()) {
      auto replayed = reference->Interact(updates);
      if (!replayed.ok()) {
        result->mismatches += ordered.size() - i;
        if (result->first_mismatch.empty()) {
          result->first_mismatch = d.spec.name + ": reference failed: " + replayed.status().ToString();
        }
        return;
      }
      for (const auto& [name, value] : updates) current[name] = value;
    }
    ++result->sessions;
    // An entry only one side keeps on the client (the raw source under the
    // all-client plan) has nothing to compare against.
    size_t compared = 0;
    std::string differs;
    for (const auto& [entry, table] : record.outputs) {
      vp::data::TablePtr expected = reference->EntryOutput(entry);
      if (table == nullptr || expected == nullptr) continue;
      ++compared;
      if (!expected->Equals(*table)) differs = entry;
    }
    if (compared == 0) differs = "(no entry in common)";
    if (!differs.empty()) {
      ++result->mismatches;
      if (result->first_mismatch.empty()) {
        result->first_mismatch = d.spec.name + "/" + differs + " at " + ordered[i].first;
      }
    }
    result->entries += compared;
  }
}

// Every data entry a session left on the client is compared, outside the
// timed region, with runtime::VegaBaselineExecutor (client-side Vega)
// replaying the session's final signal state. The all-client plan is the
// baseline's own execution, so crossfilter_client is checked against the
// heuristic plan instead.
void CheckSlice(const WorkloadDef& def, const Setup& setup, const Dashboard& d,
                const std::vector<KeyedRecord>& ordered, OracleResult* result) {
  Status init;
  if (def.all_client) {
    vp::runtime::PlanExecutor reference(d.spec, setup.engine.get(),
                                        vp::runtime::MiddlewareOptions());
    init = reference.Initialize(d.heuristic).status();
    if (init.ok()) Replay(d, ordered, &reference, result);
  } else {
    vp::runtime::VegaBaselineExecutor reference(d.spec, {{setup.table_name, setup.table}});
    init = reference.Initialize().status();
    if (init.ok()) Replay(d, ordered, &reference, result);
  }
  if (!init.ok()) {
    result->mismatches += ordered.size();
    result->first_mismatch = d.spec.name + ": reference render failed: " + init.ToString();
  }
}

// The replays are independent, so each dashboard's sessions, in state order,
// are cut into one contiguous slice per usable CPU, each replayed on its own
// reference.
OracleResult CheckOutputs(const WorkloadDef& def, const Setup& setup,
                          const std::vector<const SessionRecord*>& records) {
  OracleResult result;
  for (size_t i = 0; i < setup.dashboards.size(); ++i) {
    const Dashboard& d = setup.dashboards[i];
    std::vector<KeyedRecord> ordered;
    for (const SessionRecord* r : records) {
      if (r->dashboard == i) ordered.emplace_back(StateKey(r->signals), r);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const KeyedRecord& a, const KeyedRecord& b) { return a.first < b.first; });
    for (size_t k = 0; k < ordered.size(); ++k) {
      if (k == 0 || ordered[k].first != ordered[k - 1].first) ++result.states;
    }
    const size_t slices = std::min(UsableCpus(), ordered.size());
    std::vector<OracleResult> partial(slices);
    std::vector<std::thread> threads;
    for (size_t s = 0; s < slices; ++s) {
      std::vector<KeyedRecord> slice(ordered.begin() + ordered.size() * s / slices,
                                     ordered.begin() + ordered.size() * (s + 1) / slices);
      threads.emplace_back([&def, &setup, &d, slice = std::move(slice), out = &partial[s]]() {
        CheckSlice(def, setup, d, slice, out);
      });
    }
    for (std::thread& t : threads) t.join();
    for (const OracleResult& p : partial) {
      result.sessions += p.sessions;
      result.entries += p.entries;
      result.mismatches += p.mismatches;
      if (result.first_mismatch.empty()) result.first_mismatch = p.first_mismatch;
    }
  }
  return result;
}

// ---- Metrics ----

struct PlanTimings {
  std::vector<double> enumerate_ms;
  std::vector<double> encode_ms;
  std::vector<double> select_ms;
};

double MedianOf(const std::vector<EpisodeCost>& costs, double EpisodeCost::*field) {
  std::vector<double> values;
  values.reserve(costs.size());
  for (const EpisodeCost& c : costs) values.push_back(c.*field);
  return Median(std::move(values));
}

// Completed interactions per wall second, summed over the clients. A shared
// host has bursts that slow a run for a second or two, so the rate is a
// median: the phase's completions, in time order, are cut into groups of
// equal count, and each group's rate is its completions over the time since
// the previous group ended (since the phase started, for the first).
double InteractionsPerSecond(const Phase& phase) {
  std::vector<Clock::time_point> done = phase.log.interaction_done;
  std::sort(done.begin(), done.end());
  const size_t groups = std::min(kThroughputGroups, done.size());
  std::vector<double> rates;
  Clock::time_point from = phase.start;
  size_t taken = 0;
  for (size_t g = 1; g <= groups; ++g) {
    const size_t upto = done.size() * g / groups;
    const double seconds = Ms(done[upto - 1] - from) / 1000.0;
    if (seconds > 0) rates.push_back(static_cast<double>(upto - taken) / seconds);
    taken = upto;
    from = done[upto - 1];
  }
  return Median(std::move(rates));
}

void AddEndToEnd(const Phase& phase, double setup_s, double peak_rss_mb, Metrics* m) {
  const ClientLog& log = phase.log;
  m->Add("render_p50_ms", Median(log.render_ms), "ms");
  m->Add("interaction_p50_ms", Quantile(log.interaction_ms, 0.5), "ms");
  m->Add("interaction_p95_ms", Quantile(log.interaction_ms, 0.95), "ms");
  m->Add("interactions_per_s", InteractionsPerSecond(phase), "1/s");
  m->Add("setup_s", setup_s, "s");
  m->Add("peak_rss_mb", peak_rss_mb, "MB");
}

std::string ModelReport(const ClientLog& log) {
  std::string out =
      "latency model (runtime/latency_model.h) beside wall time, p50 ms of each column:\n";
  char line[200];
  std::snprintf(line, sizeof(line), "  %-12s %8s %10s %12s %12s %14s\n", "episode", "samples",
                "measured", "model.total", "model.client", "model.external");
  out += line;
  auto row = [&](const char* name, const std::vector<double>& measured,
                 const std::vector<EpisodeCost>& model) {
    std::snprintf(line, sizeof(line), "  %-12s %8zu %10.3f %12.3f %12.3f %14.3f\n", name,
                  measured.size(), Median(measured), MedianOf(model, &EpisodeCost::total_ms),
                  MedianOf(model, &EpisodeCost::client_ms),
                  MedianOf(model, &EpisodeCost::external_ms));
    out += line;
  };
  row("render", log.render_ms, log.render_model);
  row("interaction", log.interaction_ms, log.interaction_model);
  return out;
}

// The engine share of a request without queueing or contention: captured
// bound statements run alone through Engine::Prepare/ExecuteBound.
std::vector<double> ReplayAlone(const vp::sql::Engine& engine,
                                const std::vector<const RequestRecord*>& requests) {
  std::map<std::string, vp::sql::PreparedPtr> prepared;
  std::vector<double> out;
  const auto stop = Clock::now() + Seconds(kReplayBudgetS);
  for (const RequestRecord* r : requests) {
    if (Clock::now() >= stop) break;
    vp::sql::PreparedPtr& statement = prepared[r->sql_template];
    if (statement == nullptr) {
      auto parsed = engine.Prepare(r->sql_template);
      if (!parsed.ok()) continue;
      statement = *parsed;
    }
    vp::rewrite::ParamResolver params(r->params);
    const auto start = Clock::now();
    auto result = engine.ExecuteBound(*statement, params);
    const double ms = Ms(Clock::now() - start);
    if (result.ok()) out.push_back(ms);
  }
  return out;
}

void AddLayerMetrics(const Setup& setup, const PlanTimings& timings, const Phase& plain,
                     const Phase& traced, Metrics* m) {
  const Counters& a = traced.after;
  const Counters& b = traced.before;
  const ClientLog& log = traced.log;
  const vp::runtime::LatencyParams& latency = setup.middleware->options().latency;

  // plan, optimizer (set-up; medians over the set-ups, summed over dashboards)
  double plans = 0;
  double chosen = 0;
  for (const Dashboard& d : setup.dashboards) {
    plans += static_cast<double>(d.plan_count);
    chosen += static_cast<double>(d.heuristic_index);
  }
  m->Add("plan.enumerate_ms", Median(timings.enumerate_ms), "ms");
  m->Add("plan.plans", plans, "count");
  m->Add("plan.encode_ms", Median(timings.encode_ms), "ms");
  m->Add("optimizer.select_ms", Median(timings.select_ms), "ms");
  m->Add("plan.chosen_index", chosen, "index");

  // rewrite + dataflow, per interaction pulse
  std::unordered_map<int64_t, std::vector<Interval>> by_parent;
  for (const auto& r : log.requests) by_parent[r->parent].emplace_back(r->submit, r->done);
  std::vector<double> waits, selfs, model_interaction, model_render;
  double requests = 0, ops = 0, rows = 0, self_total = 0, model_client_total = 0;
  double interactions = 0;
  for (const Pulse& p : log.pulses) {
    const double client_model = vp::runtime::ClientComputeMillis(
        p.stats.rows_processed, p.stats.ops_evaluated, latency);
    const double model_total = client_model + p.stats.external_millis;
    if (p.render) {
      model_render.push_back(model_total);
      continue;
    }
    auto it = by_parent.find(p.span);
    const std::vector<Interval> none;
    const std::vector<Interval>& spans = it == by_parent.end() ? none : it->second;
    const double wait = CoveredMs(spans, p.start, p.end);
    const double self = Ms(p.end - p.start) - wait;
    waits.push_back(wait);
    selfs.push_back(self);
    model_interaction.push_back(model_total);
    interactions += 1;
    requests += static_cast<double>(spans.size());
    ops += p.stats.ops_evaluated;
    rows += static_cast<double>(p.stats.rows_processed);
    self_total += self;
    model_client_total += client_model;
  }
  m->Add("rewrite.build_ms", Median(log.build_ms), "ms");
  m->Add("rewrite.vdt_requests_per_interaction", Ratio(requests, interactions), "count");
  m->Add("rewrite.vdt_wait_ms_p50", Median(waits), "ms");
  m->Add("dataflow.self_ms_p50", Median(selfs), "ms");
  m->Add("dataflow.ops_per_interaction", Ratio(ops, interactions), "count");
  m->Add("dataflow.rows_per_interaction", Ratio(rows, interactions), "count");
  m->Add("dataflow.ns_per_row", Ratio(self_total * 1e6, rows), "ns/row");

  // runtime, over every request (render and interaction)
  std::vector<double> request_ms, pre_dbms_ms, runtime_self_ms, sql_ms;
  std::vector<const RequestRecord*> dbms_requests;
  double sql_total = 0;
  for (const auto& r : log.requests) {
    if (!r->ok) continue;
    const double total = Ms(r->done - r->submit);
    request_ms.push_back(total);
    if (r->reached_dbms) {
      const double exec = Ms(r->done - r->dbms_start);
      pre_dbms_ms.push_back(Ms(r->dbms_start - r->submit));
      sql_ms.push_back(exec);
      sql_total += exec;
      runtime_self_ms.push_back(total - exec);
      dbms_requests.push_back(r.get());
    } else {
      runtime_self_ms.push_back(total);
    }
  }
  const auto& ma = a.middleware;
  const auto& mb = b.middleware;
  const double queries = Delta(ma.queries, mb.queries);
  const double dbms = Delta(ma.dbms_executions, mb.dbms_executions);
  m->Add("runtime.request_ms_p50", Quantile(request_ms, 0.5), "ms");
  m->Add("runtime.request_ms_p95", Quantile(request_ms, 0.95), "ms");
  m->Add("runtime.pre_dbms_ms_p50", Median(pre_dbms_ms), "ms");
  m->Add("runtime.self_ms_p50", Median(runtime_self_ms), "ms");
  m->Add("runtime.client_cache_hit_ratio",
         Ratio(Delta(ma.client_cache_hits, mb.client_cache_hits), queries), "ratio");
  m->Add("runtime.server_cache_hit_ratio",
         Ratio(Delta(ma.server_cache_hits, mb.server_cache_hits), queries), "ratio");
  m->Add("runtime.tile_hit_ratio", Ratio(Delta(ma.tile_hits, mb.tile_hits), queries), "ratio");
  m->Add("runtime.dbms_ratio", Ratio(dbms, queries), "ratio");
  m->Add("runtime.bytes_per_request",
         Ratio(Delta(ma.bytes_transferred, mb.bytes_transferred), queries), "B");
  m->Add("runtime.cancelled", Delta(ma.cancelled, mb.cancelled), "count");
  m->Add("runtime.retries", Delta(ma.retries, mb.retries), "count");
  m->Add("runtime.errors", Delta(ma.errors, mb.errors), "count");
  m->Add("runtime.shed", Delta(ma.shed, mb.shed), "count");
  m->Add("runtime.degraded", Delta(ma.degraded_responses, mb.degraded_responses), "count");

  // tiles
  m->Add("tiles.hits", Delta(a.tiles.hits, b.tiles.hits), "count");
  m->Add("tiles.shape_misses", Delta(a.tiles.shape_misses, b.tiles.shape_misses), "count");
  m->Add("tiles.coverage_misses", Delta(a.tiles.coverage_misses, b.tiles.coverage_misses),
         "count");
  m->Add("tiles.builds", Delta(a.tiles.builds, b.tiles.builds), "count");
  m->Add("tiles.build_conflicts", Delta(a.tiles.build_conflicts, b.tiles.build_conflicts),
         "count");

  // sql, expr
  const double scanned = Delta(a.engine.rows_scanned, b.engine.rows_scanned);
  m->Add("sql.execute_ms_p50", Quantile(sql_ms, 0.5), "ms");
  m->Add("sql.execute_ms_p95", Quantile(sql_ms, 0.95), "ms");
  m->Add("sql.replay_ms_p50", Median(ReplayAlone(*setup.engine, dbms_requests)), "ms");
  m->Add("sql.rows_scanned_per_query", Ratio(scanned, dbms), "count");
  m->Add("sql.rows_output_per_query",
         Ratio(Delta(a.engine.rows_output, b.engine.rows_output), dbms), "count");
  m->Add("sql.ns_per_scanned_row", Ratio(sql_total * 1e6, scanned), "ns/row");
  m->Add("expr.kernel_bitmap_selections", Delta(a.bitmap_selections, b.bitmap_selections),
         "count");
  m->Add("expr.kernel_index_selections", Delta(a.index_selections, b.index_selections), "count");
  m->Add("expr.kernel_scalar_fallbacks", Delta(a.scalar_fallbacks, b.scalar_fallbacks), "count");

  // storage
  const double pruned = Delta(a.chunks_pruned, b.chunks_pruned);
  const double morsels_pruned = Delta(a.morsels_pruned, b.morsels_pruned);
  // Share of the table's chunks (shard) or morsels (memory) skipped per query.
  const double units =
      setup.shard != nullptr
          ? static_cast<double>(setup.shard->num_chunks())
          : std::ceil(static_cast<double>(setup.table->num_rows()) /
                      static_cast<double>(std::max<size_t>(1, vp::parallel::MorselRows())));
  m->Add("storage.chunks_paged_in_per_query",
         Ratio(Delta(a.chunks_paged_in, b.chunks_paged_in), dbms), "count");
  m->Add("storage.chunks_pruned_per_query", Ratio(pruned, dbms), "count");
  m->Add("storage.morsels_pruned_per_query", Ratio(morsels_pruned, dbms), "count");
  m->Add("storage.prune_ratio",
         Ratio(setup.shard != nullptr ? pruned : morsels_pruned, dbms * units), "ratio");
  m->Add("storage.resident_bytes", static_cast<double>(vp::storage::ResidentBytes()), "B");

  // model (diagnostic: runtime/latency_model.h, not a measurement)
  const double engine_rows = Delta(a.engine.rows_processed, b.engine.rows_processed) + scanned;
  const double engine_ops =
      static_cast<double>(std::max(0, a.engine.num_operators - b.engine.num_operators));
  const double model_server = dbms * latency.per_query_overhead_ms +
                              engine_ops * latency.per_op_overhead_ms +
                              engine_rows * latency.server_ns_per_row * 1e-6;
  m->Add("model.interaction_p50_ms", Median(model_interaction), "ms");
  m->Add("model.render_p50_ms", Median(model_render), "ms");
  m->Add("model.error_server", Ratio(model_server, sql_total), "ratio");
  m->Add("model.error_client", Ratio(model_client_total, self_total), "ratio");

  // tracing
  const double traced_p50 = Median(traced.log.interaction_ms);
  m->Add("trace.interaction_p50_ms", traced_p50, "ms");
  m->Add("trace.overhead_ms", traced_p50 - Median(plain.log.interaction_ms), "ms");
}

std::string SelfTimeReport(const std::vector<Span>& spans) {
  std::string out = "self time per layer (traced phase; self = duration minus child spans):\n";
  char line[200];
  std::snprintf(line, sizeof(line), "  %-18s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms");
  out += line;
  for (const auto& [name, t] : SelfTimes(spans)) {
    std::snprintf(line, sizeof(line), "  %-18s %8zu %12.3f %12.3f\n", name.c_str(), t.count,
                  t.total_ms, t.self_ms);
    out += line;
  }
  return out;
}

size_t CountAbove(const std::vector<double>& values, double threshold) {
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(), [&](double v) { return v > threshold; }));
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& def : Workloads()) names.push_back(def.name);
  return names;
}

int RunWorkload(const Config& config) {
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& w : Workloads()) {
    if (w.name == config.workload) def = &w;
  }
  if (def == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  const size_t rows = config.rows > 0 ? config.rows : def->rows;
  std::error_code ignored;
  std::filesystem::create_directories(config.out_dir, ignored);

  // Set up several times: setup_s is the median, the last set-up is measured.
  std::vector<double> setup_seconds;
  PlanTimings timings;
  std::unique_ptr<Setup> setup;
  for (size_t i = 0; i < std::max<size_t>(1, config.setups); ++i) {
    setup.reset();  // release the previous set-up, and its shard file, first
    auto built = BuildSetup(*def, config, rows);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", built.status().ToString().c_str());
      return 1;
    }
    setup = std::move(*built);
    setup_seconds.push_back(setup->seconds);
    double enumerate = 0, encode = 0, select = 0;
    for (const Dashboard& d : setup->dashboards) {
      enumerate += d.enumerate_ms;
      encode += d.encode_ms;
      select += d.select_ms;
    }
    timings.enumerate_ms.push_back(enumerate);
    timings.encode_ms.push_back(encode);
    timings.select_ms.push_back(select);
  }
  // peak_rss_mb is the memory of serving, not of building the table: the
  // transient rows of dataset generation and of earlier set-ups would set
  // the peak otherwise.
  const bool rss_reset = ResetPeakRss();
  const double rss_after_setup_mb = RssMb(false);

  const auto origin = Clock::now();
  Tracer tracer;
  Metrics metrics;
  std::string report;
  std::vector<Phase> phases;
  phases.reserve(2);
  if (!config.trace) {
    phases.push_back(RunPhase(*def, config, config.seconds, nullptr, setup.get()));
    AddEndToEnd(phases[0], Median(setup_seconds), RssMb(true), &metrics);
    report += ModelReport(phases[0].log);
  } else {
    // Same session streams in both halves, so the difference is the tracing.
    phases.push_back(RunPhase(*def, config, config.seconds / 2, nullptr, setup.get()));
    phases.push_back(RunPhase(*def, config, config.seconds / 2, &tracer, setup.get()));
    AddLayerMetrics(*setup, timings, phases[0], phases[1], &metrics);
    report += SelfTimeReport(tracer.spans());
  }

  std::vector<const SessionRecord*> records;
  size_t attempted = 0, call_failures = 0, degraded = 0;
  for (const Phase& p : phases) {
    for (const SessionRecord& r : p.log.sessions) records.push_back(&r);
    attempted += p.log.attempted;
    call_failures += p.log.failed;
    degraded += static_cast<size_t>(
        Delta(p.after.middleware.degraded_responses, p.before.middleware.degraded_responses));
  }
  const auto oracle_start = Clock::now();
  const OracleResult oracle = CheckOutputs(*def, *setup, records);
  const double oracle_s = Ms(Clock::now() - oracle_start) / 1000.0;
  const size_t failed = call_failures + degraded + oracle.mismatches;

  std::string trace_file;
  if (config.trace) {
    trace_file = config.out_dir + "/trace_" + def->name + "_" + std::to_string(config.seed) +
                 ".jsonl";
    if (!tracer.WriteJsonLines(trace_file, origin)) trace_file += " (write failed)";
  }

  namespace json = vp::json;
  json::Value meta = json::Value::MakeObject();
  meta.Set("workload", def->name);
  meta.Set("workload_seed", static_cast<size_t>(config.seed));
  meta.Set("dataset_seed", static_cast<size_t>(kDatasetSeed));
  meta.Set("rows", rows);
  meta.Set("nproc", UsableCpus());
  meta.Set("cpu_model", CpuModel());
  meta.Set("clients", ClientCount(*def));
  meta.Set("setups", setup_seconds.size());
  meta.Set("peak_rss_excludes_setup", rss_reset);
  meta.Set("rss_after_setup_mb", rss_after_setup_mb);
  meta.Set("trace", config.trace);
  if (setup->shard != nullptr) {
    meta.Set("shard_chunks", setup->shard->num_chunks());
    meta.Set("shard_decoded_bytes", setup->shard_decoded_bytes);
    meta.Set("shard_budget_bytes", setup->shard->residency_budget());
  }
  json::Value dashboards = json::Value::MakeArray();
  for (const Dashboard& d : setup->dashboards) {
    json::Value v = json::Value::MakeObject();
    v.Set("template", vp::benchdata::TemplateName(d.id));
    v.Set("plan", d.plan.Key());
    v.Set("heuristic_plan", d.heuristic.Key());
    v.Set("plans", d.plan_count);
    v.Set("heuristic_index", d.heuristic_index);
    json::Value signals = json::Value::MakeObject();
    for (const vp::spec::SignalSpec& s : d.spec.signals) {
      if (s.bind != vp::spec::BindKind::kNone) {
        signals.Set(s.name, s.bound_field.empty() ? std::string(vp::spec::BindKindName(s.bind))
                                                  : s.bound_field);
      }
    }
    v.Set("bound_signals", std::move(signals));
    dashboards.Append(std::move(v));
  }
  meta.Set("dashboards", std::move(dashboards));
  json::Value phase_meta = json::Value::MakeArray();
  for (const Phase& p : phases) {
    const double p95 = Quantile(p.log.interaction_ms, 0.95);
    json::Value v = json::Value::MakeObject();
    v.Set("traced", p.traced);
    v.Set("seconds", p.wall_s);
    v.Set("sessions", p.log.sessions.size());
    v.Set("renders", p.log.render_ms.size());
    v.Set("interactions", p.log.interaction_ms.size());
    v.Set("interactions_beyond_p95", CountAbove(p.log.interaction_ms, p95));
    phase_meta.Append(std::move(v));
  }
  meta.Set("phases", std::move(phase_meta));
  json::Value failures = json::Value::MakeObject();
  failures.Set("attempted", attempted);
  failures.Set("calls", call_failures);
  failures.Set("degraded", degraded);
  failures.Set("oracle_mismatches", oracle.mismatches);
  failures.Set("first_mismatch", oracle.first_mismatch);
  meta.Set("failures", std::move(failures));
  json::Value oracle_meta = json::Value::MakeObject();
  oracle_meta.Set("sessions", oracle.sessions);
  oracle_meta.Set("states", oracle.states);
  oracle_meta.Set("entries", oracle.entries);
  oracle_meta.Set("seconds", oracle_s);
  meta.Set("oracle", std::move(oracle_meta));
  if (config.trace) {
    meta.Set("trace_file", trace_file);
    meta.Set("trace_unmatched_dbms", setup->dbms_log->unmatched());
  }

  std::printf("perfbench %s: seed %llu, %zu rows, %zu client(s), %s\n", def->name.c_str(),
              static_cast<unsigned long long>(config.seed), rows, ClientCount(*def),
              config.trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)");
  for (const Phase& p : phases) {
    if (p.log.interaction_ms.size() < 200) {
      std::printf("note: %s phase has %zu interactions; p95 wants >= 200\n",
                  p.traced ? "traced" : "untraced", p.log.interaction_ms.size());
    }
  }
  std::printf("%s", report.c_str());
  std::printf("metrics:\n%s", metrics.ToText().c_str());
  std::printf("perfbench-meta %s\n", json::Write(meta).c_str());
  json::Value result = json::Value::MakeObject();
  result.Set("correct", oracle.mismatches == 0 && oracle.sessions > 0);
  result.Set("attempted", attempted);
  result.Set("failed", failed);
  result.Set("metrics", metrics.ToJson());
  std::printf("%s\n", json::Write(result).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
