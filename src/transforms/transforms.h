// The Vega transform library as dataflow operators: filter, extent, bin,
// aggregate, collect, project, stack, timeunit, formula (§4 "Candidate
// Transforms for Rewriting" plus the ones templates need client-side).
#ifndef VEGAPLUS_TRANSFORMS_TRANSFORMS_H_
#define VEGAPLUS_TRANSFORMS_TRANSFORMS_H_

#include <memory>
#include <string>
#include <vector>

#include "dataflow/operator.h"
#include "expr/aggregate.h"
#include "expr/ast.h"
#include "transforms/field_ref.h"

namespace vegaplus {
namespace transforms {

/// Vega aggregate operation names ("count", "sum", "mean", "min", "max",
/// "median", "stdev", "valid").
enum class VegaAggOp { kCount, kValid, kSum, kMean, kMin, kMax, kMedian, kStdev };

/// Parse a Vega aggregate op name; false on unknown names.
bool ParseVegaAggOp(const std::string& name, VegaAggOp* op);
const char* VegaAggOpName(VegaAggOp op);

/// A Vega op as an aggregate-core op (expr/aggregate.h), and whether it
/// reads its field.
struct CoreAgg {
  expr::AggOp op;
  bool reads_field;
};

/// count -> COUNT(*), valid -> COUNT(field), mean -> AVG, stdev -> STDDEV,
/// and the other ops to their own names. AggregateOp and the SQL rewriter
/// both map through this, so the client plan and the pushed-down plan run
/// the same aggregate.
CoreAgg CoreAggOf(VegaAggOp op);

/// \brief filter: keep tuples whose predicate expression is truthy.
class FilterOp : public dataflow::Operator {
 public:
  explicit FilterOp(expr::NodePtr predicate);
  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;
  const expr::NodePtr& predicate() const { return predicate_; }

 private:
  expr::NodePtr predicate_;
};

/// \brief extent: write the [min, max] of a field to a signal.
class ExtentOp : public dataflow::Operator {
 public:
  ExtentOp(FieldRef field, std::string output_signal);
  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;
  const FieldRef& field() const { return field_; }
  const std::string& output_signal() const { return output_signal_; }

 private:
  FieldRef field_;
  std::string output_signal_;
};

/// \brief bin: append bin start/end columns using nice binning over an
/// extent signal and a maxbins signal (or fixed value).
class BinOp : public dataflow::Operator {
 public:
  struct Params {
    FieldRef field;
    /// Signal holding [lo, hi]; required (extent transform or domain signal).
    std::string extent_signal;
    /// Signal holding maxbins; when empty, `maxbins` is used.
    std::string maxbins_signal;
    int maxbins = 10;
    std::string as0 = "bin0";
    std::string as1 = "bin1";
  };
  explicit BinOp(Params params);
  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;
  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// \brief aggregate: group by fields, compute aggregate measures.
class AggregateOp : public dataflow::Operator {
 public:
  struct Params {
    std::vector<FieldRef> groupby;
    std::vector<VegaAggOp> ops;      // parallel to fields/as
    std::vector<FieldRef> fields;    // measure inputs ("" field for count)
    std::vector<std::string> as;     // output names (defaulted if empty)
  };
  explicit AggregateOp(Params params);
  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;
  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// \brief collect: sort tuples by fields.
class CollectOp : public dataflow::Operator {
 public:
  struct SortKey {
    FieldRef field;
    bool descending = false;
  };
  explicit CollectOp(std::vector<SortKey> keys);
  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;
  const std::vector<SortKey>& keys() const { return keys_; }

 private:
  std::vector<SortKey> keys_;
};

/// \brief project: keep/rename a subset of fields.
class ProjectOp : public dataflow::Operator {
 public:
  ProjectOp(std::vector<FieldRef> fields, std::vector<std::string> as);
  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;
  const std::vector<FieldRef>& fields() const { return fields_; }
  const std::vector<std::string>& as() const { return as_; }

 private:
  std::vector<FieldRef> fields_;
  std::vector<std::string> as_;
};

/// \brief stack: per-group running sums producing [y0, y1) spans (the window
/// function of the trellis stacked bar template).
class StackOp : public dataflow::Operator {
 public:
  struct Params {
    FieldRef field;                 // value being stacked
    std::vector<FieldRef> groupby;  // stack groups
    std::vector<CollectOp::SortKey> sort;  // order within a group
    std::string as0 = "y0";
    std::string as1 = "y1";
  };
  explicit StackOp(Params params);
  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;
  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// \brief timeunit: truncate a timestamp field to a calendar unit, appending
/// interval start/end columns.
class TimeunitOp : public dataflow::Operator {
 public:
  struct Params {
    FieldRef field;
    std::string unit = "month";  // year|month|week|date|hours|minutes|seconds
    std::string as0 = "unit0";
    std::string as1 = "unit1";
  };
  explicit TimeunitOp(Params params);
  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;
  const Params& params() const { return params_; }

 private:
  Params params_;
};

/// \brief formula: append a computed column.
class FormulaOp : public dataflow::Operator {
 public:
  FormulaOp(expr::NodePtr expression, std::string as);
  Result<dataflow::EvalResult> Evaluate(const data::TablePtr& input,
                                        const expr::SignalResolver& signals) override;
  const expr::NodePtr& expression() const { return expression_; }
  const std::string& as() const { return as_; }

 private:
  expr::NodePtr expression_;
  std::string as_;
};

}  // namespace transforms
}  // namespace vegaplus

#endif  // VEGAPLUS_TRANSFORMS_TRANSFORMS_H_
