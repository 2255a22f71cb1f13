#include "optimizer/labeler.h"

#include <algorithm>
#include <functional>

#include "rewrite/flatten.h"
#include "sql/prepared.h"

namespace vegaplus {
namespace optimizer {

Result<ColdQueryCosts::Cost> ColdQueryCosts::Execute(const sql::SelectStmt& bound) {
  std::string sql = sql::ToSql(bound);
  auto it = memo_.find(sql);
  if (it != memo_.end()) return it->second;
  auto result = engine_->Execute(bound);
  if (!result.ok()) {
    return Status(result.status().code(),
                  "labeler: " + result.status().message() + " [" + sql + "]");
  }
  Cost cost;
  cost.rows = result->table->num_rows();
  cost.bytes = runtime::EstimateEncodedBytes(*result->table, binary_);
  cost.latency_ms =
      runtime::ServerComputeMillis(
          result->stats.rows_processed + result->stats.rows_scanned,
          result->stats.num_operators, latency_) +
      runtime::TransferMillis(cost.bytes, binary_, latency_);
  memo_.emplace(std::move(sql), cost);
  return cost;
}

SessionLabeler::SessionLabeler(const spec::VegaSpec& spec, const sql::Engine* engine,
                               runtime::LatencyParams latency, bool binary_encoding)
    : builder_(spec), engine_(engine), latency_(latency),
      cold_(engine, latency, binary_encoding) {}

Status SessionLabeler::BuildTemplates() {
  const spec::VegaSpec& spec = builder_.spec();
  const size_t n = spec.data.size();
  data_templates_.assign(n, {});
  side_templates_.assign(n, {});
  parent_.assign(n, -1);
  children_.assign(n, {});
  std::vector<rewrite::ServerPipeline> full_pipelines(n);
  std::vector<bool> has_full(n, false);
  int unique_counter = 0;

  for (size_t e = 0; e < n; ++e) {
    const spec::DataSpec& d = spec.data[e];
    if (!d.source.empty()) {
      for (size_t j = 0; j < e; ++j) {
        if (spec.data[j].name == d.source) {
          parent_[e] = static_cast<int>(j);
          children_[j].push_back(static_cast<int>(e));
        }
      }
    }
    const int max_split = builder_.max_splits()[e];
    const int total = static_cast<int>(d.transforms.size());
    data_templates_[e].resize(static_cast<size_t>(max_split) + 1);

    rewrite::ServerPipeline pipeline;
    bool base_ok = true;
    if (parent_[e] >= 0) {
      size_t p = static_cast<size_t>(parent_[e]);
      bool parent_usable = has_full[p] && builder_.reserved().count(d.source) == 0;
      if (parent_usable) {
        pipeline = full_pipelines[p];
        pipeline.stmt = rewrite::CloneStmt(*pipeline.stmt);
        pipeline.side_queries.clear();
      } else {
        base_ok = false;  // splits > 0 infeasible for this entry
      }
    } else {
      pipeline = rewrite::MakeTablePipeline(!d.table.empty() ? d.table : d.name);
      // split == 0 on a root: raw fetch.
      DataTemplate& raw = data_templates_[e][0];
      const std::string sql = rewrite::RenderPipelineSql(pipeline);
      VP_ASSIGN_OR_RETURN(raw.prepared, sql::PrepareStatement(sql));
      raw.derived = pipeline.derived;
      raw.deps = rewrite::VdtSignalDeps(sql, pipeline.derived);
    }

    if (base_ok) {
      size_t side_seen = 0;
      for (int s = 1; s <= max_split; ++s) {
        VP_RETURN_IF_ERROR(rewrite::ExtendPipeline(
            &pipeline, d.transforms[static_cast<size_t>(s - 1)], unique_counter++));
        // New side queries belong to the transform just processed.
        for (; side_seen < pipeline.side_queries.size(); ++side_seen) {
          const rewrite::ServerPipeline::SideQuery& query = pipeline.side_queries[side_seen];
          SideTemplate side;
          VP_ASSIGN_OR_RETURN(side.prepared, sql::PrepareStatement(query.sql_template));
          side.derived = query.derived;
          side.position = s - 1;
          side.output_signal = query.output_signal;
          side.deps = rewrite::VdtSignalDeps(query.sql_template, side.derived);
          side_templates_[e].push_back(std::move(side));
        }
        DataTemplate& tpl = data_templates_[e][static_cast<size_t>(s)];
        const std::string sql = rewrite::RenderPipelineSql(pipeline);
        VP_ASSIGN_OR_RETURN(tpl.prepared, sql::PrepareStatement(sql));
        tpl.derived = pipeline.derived;
        tpl.deps = rewrite::VdtSignalDeps(sql, tpl.derived);
      }
      if (max_split == total) {
        full_pipelines[e] = pipeline;
        has_full[e] = true;
      }
    }
  }
  return Status::OK();
}

Status SessionLabeler::Start() {
  VP_RETURN_IF_ERROR(BuildTemplates());
  // Client dataflow over the engine's base tables.
  std::map<std::string, data::TablePtr> tables;
  for (const auto& d : builder_.spec().data) {
    if (!d.source.empty()) continue;
    std::string key = !d.table.empty() ? d.table : d.name;
    VP_ASSIGN_OR_RETURN(data::TablePtr t, engine_->catalog().GetTable(key));
    tables[key] = t;
  }
  VP_ASSIGN_OR_RETURN(client_flow_,
                      spec::CompileClientDataflow(builder_.spec(), tables));
  VP_RETURN_IF_ERROR(client_flow_.graph->Run().status());
  started_ = true;
  return Status::OK();
}

Status SessionLabeler::ApplyInteraction(
    const std::vector<runtime::SignalUpdate>& updates) {
  if (!started_) return Status::InvalidArgument("labeler: Start() not called");
  return client_flow_.graph->Update(updates).status();
}

std::set<std::string> SessionLabeler::UpdatedSignals() const {
  std::set<std::string> updated;
  const auto& graph = *client_flow_.graph;
  if (graph.clock() <= 1) return updated;  // initial rendering
  for (const std::string& name : graph.signals().Names()) {
    if (graph.signals().StampOf(name) == graph.clock()) updated.insert(name);
  }
  return updated;
}

bool SessionLabeler::ChainReevaluates(size_t entry, int upto) const {
  const auto& graph = *client_flow_.graph;
  const int64_t clock = graph.clock();
  // Ancestors: any operator re-evaluated there invalidates composed queries.
  int e = static_cast<int>(entry);
  while (parent_[static_cast<size_t>(e)] >= 0) {
    e = parent_[static_cast<size_t>(e)];
    const spec::CompiledEntry* ce =
        client_flow_.FindEntry(builder_.spec().data[static_cast<size_t>(e)].name);
    if (ce != nullptr) {
      for (const auto* op : ce->transform_ops) {
        if (op->stamp == clock) return true;
      }
    }
  }
  const spec::CompiledEntry* ce =
      client_flow_.FindEntry(builder_.spec().data[entry].name);
  if (ce == nullptr) return false;
  for (int t = 0; t < upto && t < static_cast<int>(ce->transform_ops.size()); ++t) {
    if (ce->transform_ops[static_cast<size_t>(t)]->stamp == clock) return true;
  }
  return false;
}

Result<std::vector<double>> SessionLabeler::LabelEpisode(
    const std::vector<rewrite::ExecutionPlan>& plans) {
  if (!started_) return Status::InvalidArgument("labeler: Start() not called");
  const spec::VegaSpec& spec = builder_.spec();
  const auto& graph = *client_flow_.graph;
  const int64_t clock = graph.clock();
  const bool initial = clock <= 1;

  // Per-entry facts from the client run.
  struct EntryFacts {
    std::vector<bool> reeval;       // per transform
    std::vector<size_t> in_rows;    // per transform
  };
  std::vector<EntryFacts> facts(spec.data.size());
  for (size_t e = 0; e < spec.data.size(); ++e) {
    const spec::CompiledEntry* ce = client_flow_.FindEntry(spec.data[e].name);
    if (ce == nullptr) continue;
    EntryFacts& f = facts[e];
    f.reeval.resize(ce->transform_ops.size());
    f.in_rows.resize(ce->transform_ops.size());
    for (size_t t = 0; t < ce->transform_ops.size(); ++t) {
      const dataflow::Operator* op = ce->transform_ops[t];
      f.reeval[t] = initial || op->stamp == clock;
      f.in_rows[t] =
          op->input != nullptr && op->input->output ? op->input->output->num_rows() : 0;
    }
  }

  // Stage costs, computed lazily per (entry, split). Kept per query (not
  // summed): the executor submits independent queries of one pulse
  // concurrently, so composition below charges max-per-wave, not the sum.
  const auto& registry = graph.signals();
  struct PlanQuery {
    double ms = 0;
    const std::vector<std::string>* deps = nullptr;   // signals the query reads
    const std::string* out_signal = nullptr;          // signal it writes (sides)
  };
  struct StageCost {
    std::vector<PlanQuery> sides;  // side queries executed this episode
    bool fetch_present = false;
    PlanQuery fetch;
  };
  std::vector<std::map<int, StageCost>> stage_cache(spec.data.size());
  auto server_cost = [&](size_t e, int split) -> Result<StageCost> {
    auto it = stage_cache[e].find(split);
    if (it != stage_cache[e].end()) return it->second;
    StageCost cost;
    for (const SideTemplate& side : side_templates_[e]) {
      if (side.position >= split) continue;
      if (!initial && !ChainReevaluates(e, side.position + 1)) continue;
      rewrite::DerivedResolver resolver(registry, side.derived);
      VP_RETURN_IF_ERROR(resolver.Materialize());
      VP_ASSIGN_OR_RETURN(sql::SelectPtr bound,
                          sql::BindStatement(*side.prepared->stmt, resolver));
      VP_ASSIGN_OR_RETURN(ColdQueryCosts::Cost c, cold_.Execute(*bound));
      cost.sides.push_back(PlanQuery{c.latency_ms, &side.deps, &side.output_signal});
    }
    const DataTemplate& tpl = data_templates_[e][static_cast<size_t>(split)];
    if (tpl.prepared != nullptr && (initial || ChainReevaluates(e, split))) {
      rewrite::DerivedResolver resolver(registry, tpl.derived);
      VP_RETURN_IF_ERROR(resolver.Materialize());
      VP_ASSIGN_OR_RETURN(sql::SelectPtr bound,
                          sql::BindStatement(*tpl.prepared->stmt, resolver));
      VP_ASSIGN_OR_RETURN(ColdQueryCosts::Cost c, cold_.Execute(*bound));
      cost.fetch_present = true;
      cost.fetch = PlanQuery{c.latency_ms, &tpl.deps, nullptr};
    }
    stage_cache[e].emplace(split, cost);
    return cost;
  };

  // Mirror of the dataflow's rank grouping: queries level by produced-signal
  // dependencies; each level (wave) runs concurrently and costs its maximum.
  auto compose_waves = [](const std::vector<PlanQuery>& queries) {
    std::map<std::string, size_t> producer;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].out_signal != nullptr && !queries[i].out_signal->empty()) {
        producer[*queries[i].out_signal] = i;
      }
    }
    std::vector<int> level(queries.size(), -1);
    std::function<int(size_t)> level_of = [&](size_t i) -> int {
      if (level[i] >= 0) return level[i];
      level[i] = 0;  // cycle guard (dependency cycles cannot occur in valid plans)
      int l = 0;
      for (const std::string& dep : *queries[i].deps) {
        auto it = producer.find(dep);
        if (it != producer.end() && it->second != i) {
          l = std::max(l, level_of(it->second) + 1);
        }
      }
      level[i] = l;
      return l;
    };
    std::map<int, double> wave_max;
    for (size_t i = 0; i < queries.size(); ++i) {
      double& slot = wave_max[level_of(i)];
      slot = std::max(slot, queries[i].ms);
    }
    double total = 0;
    for (const auto& [lvl, ms] : wave_max) total += ms;
    return total;
  };

  std::vector<double> labels;
  labels.reserve(plans.size());
  for (const auto& p : plans) {
    double client_ms = 0;
    std::vector<PlanQuery> queries;
    for (size_t e = 0; e < spec.data.size(); ++e) {
      const spec::DataSpec& d = spec.data[e];
      const int split = p.splits[e];
      const int total = static_cast<int>(d.transforms.size());

      bool child_needs_client = false;
      for (int c : children_[e]) {
        if (p.splits[static_cast<size_t>(c)] == 0) child_needs_client = true;
      }
      bool fetch_needed = builder_.reserved().count(d.name) > 0 || split < total ||
                          child_needs_client || children_[e].empty();

      VP_ASSIGN_OR_RETURN(StageCost sc, server_cost(e, split));
      queries.insert(queries.end(), sc.sides.begin(), sc.sides.end());
      if (fetch_needed && sc.fetch_present) queries.push_back(sc.fetch);

      // Client suffix.
      size_t rows = 0;
      int ops = 0;
      for (int t = split; t < total; ++t) {
        if (facts[e].reeval.size() > static_cast<size_t>(t) &&
            facts[e].reeval[static_cast<size_t>(t)]) {
          rows += facts[e].in_rows[static_cast<size_t>(t)];
          ++ops;
        }
      }
      client_ms += runtime::ClientComputeMillis(rows, ops, latency_);
    }
    labels.push_back(client_ms + compose_waves(queries));
  }
  return labels;
}

}  // namespace optimizer
}  // namespace vegaplus
