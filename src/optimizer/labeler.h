// SessionLabeler: ground-truth latency labels for every candidate plan of a
// spec across an interaction session.
//
// Naively executing every plan per episode is quadratic in work because
// plans share almost all of their stages. Instead the labeler exploits the
// paper's plan structure (§5.2): a plan's cost decomposes per data entry
// into (extent side queries) + (data fetch at the split point) + (client
// suffix). Per episode it
//   1. runs ONE all-client dataflow to learn which operators re-evaluate and
//      every operator's input cardinality (placement-independent facts), and
//   2. executes each distinct composed server query ONCE, memoizing its
//      cold-execution cost (cache-less semantics, so labels are not skewed
//      by lucky cache hits),
// then composes any plan's latency in O(#entries). A validation test checks
// composed labels against real PlanExecutor runs.
#ifndef VEGAPLUS_OPTIMIZER_LABELER_H_
#define VEGAPLUS_OPTIMIZER_LABELER_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rewrite/plan_builder.h"
#include "runtime/middleware.h"
#include "runtime/plan_executor.h"
#include "spec/compiler.h"

namespace vegaplus {
namespace optimizer {

/// \brief Executes each distinct bound statement once; replays the same
/// cold-execution cost on repeats.
class ColdQueryCosts {
 public:
  ColdQueryCosts(const sql::Engine* engine, runtime::LatencyParams latency,
                 bool binary_encoding)
      : engine_(engine), latency_(latency), binary_(binary_encoding) {}

  struct Cost {
    double latency_ms = 0;  // server compute + transfer + decode
    size_t rows = 0;
    size_t bytes = 0;
  };

  /// Cost of `bound`, memoized on its canonical SQL (sql::ToSql).
  Result<Cost> Execute(const sql::SelectStmt& bound);

 private:
  const sql::Engine* engine_;
  runtime::LatencyParams latency_;
  bool binary_;
  std::map<std::string, Cost> memo_;
};

/// \brief Labels all candidate plans per episode of a simulated session.
class SessionLabeler {
 public:
  SessionLabeler(const spec::VegaSpec& spec, const sql::Engine* engine,
                 runtime::LatencyParams latency = {}, bool binary_encoding = true);

  /// Build stage templates and run the initial client dataflow. Must be
  /// called before the first LabelEpisode().
  Status Start();

  /// Advance the session by one interaction.
  Status ApplyInteraction(const std::vector<runtime::SignalUpdate>& updates);

  /// Latency label (ms) per plan for the *current* episode (initial
  /// rendering right after Start(), else the latest interaction).
  Result<std::vector<double>> LabelEpisode(
      const std::vector<rewrite::ExecutionPlan>& plans);

  /// Signals updated by the current episode (empty at initial rendering);
  /// feed this to PlanEncoder::EncodeEpisode so vectors match labels.
  std::set<std::string> UpdatedSignals() const;

  /// Signal environment after the latest episode.
  const dataflow::SignalRegistry& signals() const {
    return client_flow_.graph->signals();
  }

  const rewrite::PlanBuilder& builder() const { return builder_; }

 private:
  // Templates are prepared once in BuildTemplates and bound per episode.
  struct DataTemplate {
    sql::PreparedPtr prepared;  // null where the split is infeasible
    std::vector<rewrite::DerivedParam> derived;
    /// Signals the query reads (wave leveling, mirrors VDT dirty deps).
    std::vector<std::string> deps;
  };
  struct SideTemplate {
    sql::PreparedPtr prepared;
    std::vector<rewrite::DerivedParam> derived;
    int position = 0;  // index of the extent transform within the entry
    std::string output_signal;
    std::vector<std::string> deps;
  };

  Status BuildTemplates();
  bool ChainReevaluates(size_t entry, int upto) const;

  rewrite::PlanBuilder builder_;
  const sql::Engine* engine_;
  runtime::LatencyParams latency_;
  ColdQueryCosts cold_;

  // [entry][split] -> composed data-fetch template.
  std::vector<std::vector<DataTemplate>> data_templates_;
  // [entry] -> extent side queries within the rewritable prefix.
  std::vector<std::vector<SideTemplate>> side_templates_;
  std::vector<int> parent_;
  std::vector<std::vector<int>> children_;

  spec::CompiledDataflow client_flow_;
  bool started_ = false;
};

}  // namespace optimizer
}  // namespace vegaplus

#endif  // VEGAPLUS_OPTIMIZER_LABELER_H_
