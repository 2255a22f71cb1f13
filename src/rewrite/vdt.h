// VegaDBMSTransform (VDT): the custom dataflow operator that binds its
// prepared SQL template with current signal values, ships the request
// through the middleware, and emits the result into the downstream dataflow
// (§4).
//
// The template is prepared (parsed) once per VDT; each evaluation only binds
// parameters, so no SQL text is rendered or parsed per interaction and the
// middleware caches on exact (statement, params) keys. Queries are submitted
// via Prefetch() ahead of the evaluation wave (see dataflow::Operator), so
// independent VDTs in one pulse overlap their round trips; a new submission
// carries a fresh generation, cancelling a superseded in-flight request.
#ifndef VEGAPLUS_REWRITE_VDT_H_
#define VEGAPLUS_REWRITE_VDT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/operator.h"
#include "rewrite/query_service.h"

namespace vegaplus {
namespace rewrite {

/// \brief A template parameter computed from signals at query-build time
/// (e.g. bin step/start derived from the extent signal and maxbins).
struct DerivedParam {
  std::string name;  // hole name in the SQL template
  std::function<Result<expr::EvalValue>(const expr::SignalResolver&)> compute;
  /// Signals the computation reads (for dirty propagation).
  std::vector<std::string> depends_on;
};

/// Signal dependencies of a (template, derived params) pair: the template's
/// holes minus derived names, plus every signal the derived computations
/// read. This is both a VDT's dataflow dirty set and its wave level input
/// (the labeler mirrors the dataflow's rank grouping with it).
std::vector<std::string> VdtSignalDeps(const std::string& sql_template,
                                       const std::vector<DerivedParam>& derived);

/// Overlay resolver: base signals plus computed derived params.
class DerivedResolver : public expr::SignalResolver {
 public:
  DerivedResolver(const expr::SignalResolver& base,
                  const std::vector<DerivedParam>& derived);
  /// Eagerly compute all derived params; call before Lookup-based filling.
  Status Materialize();
  bool Lookup(const std::string& name, expr::EvalValue* out) const override;

 private:
  const expr::SignalResolver& base_;
  const std::vector<DerivedParam>& derived_;
  std::vector<std::pair<std::string, expr::EvalValue>> computed_;
};

/// \brief Data VDT: acts as a data *source* (takes no dataflow input); its
/// tuples come from the DBMS.
class VdtOp : public dataflow::Operator {
 public:
  VdtOp(std::string sql_template, std::vector<DerivedParam> derived,
        QueryService* service);

  /// Submit this VDT's query asynchronously (called per wave by the
  /// dataflow); Evaluate() awaits it.
  void Prefetch(const expr::SignalResolver& signals) override;

  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;

  const std::string& sql_template() const { return sql_template_; }

  /// Interaction generation of the most recent submission.
  uint64_t generation() const { return generation_; }

  /// Prepare the template against the bound service now (otherwise it is
  /// prepared on first fetch). Lets PlanBuilder fail fast at build time.
  Status EnsurePrepared();

 protected:
  /// Materialize derived params and collect one bound value per template
  /// hole. Fails like the legacy hole-filling on unresolved names.
  Result<std::vector<QueryParam>> BuildParams(const expr::SignalResolver& signals);

  /// Prepare the template on first use; then submit-or-reuse the prefetched
  /// ticket and await the response.
  Result<QueryResponse> Fetch(const expr::SignalResolver& signals);

  std::string sql_template_;
  std::vector<DerivedParam> derived_;
  QueryService* service_;
  std::vector<std::string> param_names_;  // template holes
  PreparedHandle handle_ = 0;
  /// Process-unique supersession scope: only this VDT's own submissions
  /// relate by generation (statement handles are deduplicated service-wide,
  /// so distinct VDTs can share one handle and must not cancel each other).
  uint64_t client_id_ = 0;
  uint64_t generation_ = 0;
  QueryTicketPtr pending_;
  std::vector<QueryParam> pending_params_;
};

/// \brief Signal VDT: runs a scalar-producing query (extent) and publishes
/// the result as a signal instead of tuples. Expects a single-row result
/// whose first two columns are [min, max].
class SignalVdtOp : public VdtOp {
 public:
  SignalVdtOp(std::string sql_template, std::vector<DerivedParam> derived,
              QueryService* service, std::string output_signal);

  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;

  const std::string& output_signal() const { return output_signal_; }

 private:
  std::string output_signal_;
};

}  // namespace rewrite
}  // namespace vegaplus

#endif  // VEGAPLUS_REWRITE_VDT_H_
