#include "rewrite/vdt.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "expr/sql_translator.h"

namespace vegaplus {
namespace rewrite {

// Signal deps of a VDT = holes in its template + signals its derived params
// read (the holes of derived params are the derived names themselves, which
// are not real signals).
std::vector<std::string> VdtSignalDeps(const std::string& sql_template,
                                       const std::vector<DerivedParam>& derived) {
  std::vector<std::string> deps;
  auto add = [&deps](const std::string& name) {
    if (std::find(deps.begin(), deps.end(), name) == deps.end()) deps.push_back(name);
  };
  std::vector<std::string> derived_names;
  for (const DerivedParam& d : derived) {
    derived_names.push_back(d.name);
    for (const std::string& s : d.depends_on) add(s);
  }
  for (const std::string& hole : expr::CollectHoles(sql_template)) {
    if (std::find(derived_names.begin(), derived_names.end(), hole) ==
        derived_names.end()) {
      add(hole);
    }
  }
  return deps;
}

DerivedResolver::DerivedResolver(const expr::SignalResolver& base,
                                 const std::vector<DerivedParam>& derived)
    : base_(base), derived_(derived) {}

Status DerivedResolver::Materialize() {
  computed_.clear();
  for (const DerivedParam& d : derived_) {
    VP_ASSIGN_OR_RETURN(expr::EvalValue v, d.compute(base_));
    computed_.emplace_back(d.name, std::move(v));
  }
  return Status::OK();
}

bool DerivedResolver::Lookup(const std::string& name, expr::EvalValue* out) const {
  for (const auto& [n, v] : computed_) {
    if (n == name) {
      *out = v;
      return true;
    }
  }
  return base_.Lookup(name, out);
}

VdtOp::VdtOp(std::string sql_template, std::vector<DerivedParam> derived,
             QueryService* service)
    : Operator("vdt", VdtSignalDeps(sql_template, derived)),
      sql_template_(std::move(sql_template)), derived_(std::move(derived)),
      service_(service), param_names_(expr::CollectHoles(sql_template_)) {
  static std::atomic<uint64_t> next_client_id{1};
  client_id_ = next_client_id.fetch_add(1);
}

Result<std::vector<QueryParam>> VdtOp::BuildParams(const expr::SignalResolver& signals) {
  DerivedResolver resolver(signals, derived_);
  VP_RETURN_IF_ERROR(resolver.Materialize());
  std::vector<QueryParam> params;
  params.reserve(param_names_.size());
  for (const std::string& name : param_names_) {
    expr::EvalValue value;
    if (!resolver.Lookup(name, &value)) {
      return Status::KeyError("vdt: unresolved signal '" + name + "'");
    }
    params.push_back(QueryParam{name, std::move(value)});
  }
  return params;
}

Status VdtOp::EnsurePrepared() {
  if (service_ == nullptr) return Status::InvalidArgument("vdt: no query service bound");
  if (handle_ == 0) {
    VP_ASSIGN_OR_RETURN(handle_, service_->Prepare(sql_template_));
  }
  return Status::OK();
}

void VdtOp::Prefetch(const expr::SignalResolver& signals) {
  if (service_ == nullptr || !EnsurePrepared().ok()) return;  // surfaced by Evaluate
  auto params = BuildParams(signals);
  if (!params.ok()) return;  // surfaced by Evaluate
  if (pending_ != nullptr) {
    if (pending_params_ == *params) return;  // already in flight
    pending_->Cancel();
  }
  pending_params_ = std::move(*params);
  pending_ =
      service_->Submit(QueryRequest{handle_, pending_params_, ++generation_, client_id_});
}

Result<QueryResponse> VdtOp::Fetch(const expr::SignalResolver& signals) {
  VP_RETURN_IF_ERROR(EnsurePrepared());
  VP_ASSIGN_OR_RETURN(std::vector<QueryParam> params, BuildParams(signals));
  QueryTicketPtr ticket;
  if (pending_ != nullptr && pending_params_ == params) {
    // Prefetched earlier in this wave with identical bindings.
    ticket = std::move(pending_);
  } else {
    if (pending_ != nullptr) pending_->Cancel();  // stale prefetch: superseded
    ticket = service_->Submit(QueryRequest{handle_, params, ++generation_, client_id_});
  }
  pending_ = nullptr;
  return ticket->Await();
}

Result<dataflow::EvalResult> VdtOp::Evaluate(const data::TablePtr& /*input*/,
                                             const expr::SignalResolver& signals) {
  if (service_ == nullptr) return Status::InvalidArgument("vdt: no query service bound");
  VP_ASSIGN_OR_RETURN(QueryResponse response, Fetch(signals));
  dataflow::EvalResult result;
  result.table = response.table;
  // A VDT's own client-side work is negligible; the cost is the round trip.
  result.rows_processed = 0;
  result.external_millis = response.latency_millis;
  return result;
}

SignalVdtOp::SignalVdtOp(std::string sql_template, std::vector<DerivedParam> derived,
                         QueryService* service, std::string output_signal)
    : VdtOp(std::move(sql_template), std::move(derived), service),
      output_signal_(std::move(output_signal)) {
  type_ = "vdt_signal";
}

Result<dataflow::EvalResult> SignalVdtOp::Evaluate(const data::TablePtr& input,
                                                   const expr::SignalResolver& signals) {
  VP_ASSIGN_OR_RETURN(dataflow::EvalResult result, VdtOp::Evaluate(input, signals));
  if (!result.table || result.table->num_rows() < 1 ||
      result.table->num_columns() < 2) {
    return Status::RuntimeError("signal vdt: query did not return a [min, max] row");
  }
  double lo = result.table->column(0).NumericAt(0);
  double hi = result.table->column(1).NumericAt(0);
  if (std::isnan(lo)) lo = 0;
  if (std::isnan(hi)) hi = lo + 1;
  result.signal_writes.emplace_back(
      output_signal_, expr::EvalValue::Array({data::Value::Double(lo),
                                              data::Value::Double(hi)}));
  result.table = nullptr;  // signal-only operator
  return result;
}

}  // namespace rewrite
}  // namespace vegaplus
