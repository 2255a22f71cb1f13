#include "transforms/transforms.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/parallel.h"
#include "common/str_util.h"
#include "expr/batch_eval.h"
#include "expr/bind.h"
#include "expr/compiler.h"
#include "expr/functions.h"
#include "transforms/binning.h"

namespace vegaplus {
namespace transforms {

namespace {

using data::Column;
using data::DataType;
using data::Schema;
using data::Table;
using data::TablePtr;
using data::Value;
using dataflow::EvalResult;

std::vector<std::string> CollectSignalDeps(const expr::NodePtr& node) {
  std::vector<std::string> fields, signals;
  expr::CollectReferences(node, &fields, &signals);
  return signals;
}

void AddSignalDep(std::vector<std::string>* deps, const std::string& name) {
  if (!name.empty() &&
      std::find(deps->begin(), deps->end(), name) == deps->end()) {
    deps->push_back(name);
  }
}

using expr::BatchEvaluator;
using expr::Vec;

/// Typed register over `col`, or a broadcast null register when the column
/// is absent (the scalar paths treat missing fields as all-null).
Vec ColumnOrNullVec(const Column* col) {
  if (col != nullptr) return expr::ColumnVec(*col);
  Vec v;
  v.kind = expr::RegKind::kNum;
  v.is_const = true;
  v.num.push_back(0);
  v.valid.push_back(0);
  return v;
}

/// Group `rows` by `key_cols` (missing columns group as null). Returns group
/// ids per position plus one representative row per group.
expr::GroupResult GroupByColumns(const std::vector<const Column*>& key_cols,
                                 const std::vector<int32_t>& rows,
                                 std::vector<Vec>* key_vecs) {
  key_vecs->clear();
  key_vecs->reserve(key_cols.size());
  for (const Column* c : key_cols) key_vecs->push_back(ColumnOrNullVec(c));
  std::vector<const Vec*> ptrs;
  ptrs.reserve(key_vecs->size());
  for (const Vec& v : *key_vecs) ptrs.push_back(&v);
  return expr::BuildGroups(ptrs, rows);
}

}  // namespace

bool ParseVegaAggOp(const std::string& name, VegaAggOp* op) {
  if (name == "count") *op = VegaAggOp::kCount;
  else if (name == "valid") *op = VegaAggOp::kValid;
  else if (name == "sum") *op = VegaAggOp::kSum;
  else if (name == "mean" || name == "average" || name == "avg") *op = VegaAggOp::kMean;
  else if (name == "min") *op = VegaAggOp::kMin;
  else if (name == "max") *op = VegaAggOp::kMax;
  else if (name == "median") *op = VegaAggOp::kMedian;
  else if (name == "stdev" || name == "stddev") *op = VegaAggOp::kStdev;
  else return false;
  return true;
}

const char* VegaAggOpName(VegaAggOp op) {
  switch (op) {
    case VegaAggOp::kCount: return "count";
    case VegaAggOp::kValid: return "valid";
    case VegaAggOp::kSum: return "sum";
    case VegaAggOp::kMean: return "mean";
    case VegaAggOp::kMin: return "min";
    case VegaAggOp::kMax: return "max";
    case VegaAggOp::kMedian: return "median";
    case VegaAggOp::kStdev: return "stdev";
  }
  return "?";
}

CoreAgg CoreAggOf(VegaAggOp op) {
  switch (op) {
    case VegaAggOp::kCount: return {expr::AggOp::kCount, false};
    case VegaAggOp::kValid: return {expr::AggOp::kCount, true};
    case VegaAggOp::kSum: return {expr::AggOp::kSum, true};
    case VegaAggOp::kMean: return {expr::AggOp::kAvg, true};
    case VegaAggOp::kMin: return {expr::AggOp::kMin, true};
    case VegaAggOp::kMax: return {expr::AggOp::kMax, true};
    case VegaAggOp::kMedian: return {expr::AggOp::kMedian, true};
    case VegaAggOp::kStdev: return {expr::AggOp::kStddev, true};
  }
  return {expr::AggOp::kCount, false};
}

// ---- FilterOp ----

FilterOp::FilterOp(expr::NodePtr predicate)
    : Operator("filter", CollectSignalDeps(predicate)), predicate_(std::move(predicate)) {}

Result<EvalResult> FilterOp::Evaluate(const TablePtr& input,
                                      const expr::SignalResolver& signals) {
  if (!input) return Status::InvalidArgument("filter: missing input");
  VP_RETURN_IF_ERROR(expr::Validate(predicate_));
  std::vector<int32_t> keep;
  keep.reserve(input->num_rows());
  // The predicate is bound to this pulse's signal values first, so brush
  // and click filters compile to a vector program (often the fused
  // column-compare fast path) and filter morsel-parallel. What still does
  // not compile runs the original tree on the scalar interpreter.
  if (auto program = expr::Compiler::Compile(expr::BindSignals(predicate_, signals),
                                             input->schema())) {
    expr::RunFilterMorselParallel(*input, *program, &keep);
  } else {
    expr::EvalContext ctx;
    ctx.table = input.get();
    ctx.signals = &signals;
    for (size_t r = 0; r < input->num_rows(); ++r) {
      ctx.row = r;
      if (expr::Evaluate(predicate_, ctx).Truthy()) {
        keep.push_back(static_cast<int32_t>(r));
      }
    }
  }
  EvalResult result;
  result.table = input->Take(keep);
  result.rows_processed = input->num_rows();
  return result;
}

// ---- ExtentOp ----

ExtentOp::ExtentOp(FieldRef field, std::string output_signal)
    : Operator("extent", {}), field_(std::move(field)),
      output_signal_(std::move(output_signal)) {
  AddSignalDep(&signal_deps_, field_.signal);
}

Result<EvalResult> ExtentOp::Evaluate(const TablePtr& input,
                                      const expr::SignalResolver& signals) {
  if (!input) return Status::InvalidArgument("extent: missing input");
  VP_ASSIGN_OR_RETURN(std::string field, field_.Resolve(signals));
  const Column* col = input->ColumnByName(field);
  double lo = std::numeric_limits<double>::quiet_NaN();
  double hi = lo;
  if (col != nullptr) {
    for (size_t r = 0; r < col->length(); ++r) {
      double v = col->NumericAt(r);
      if (std::isnan(v)) continue;
      if (std::isnan(lo) || v < lo) lo = v;
      if (std::isnan(hi) || v > hi) hi = v;
    }
  }
  if (std::isnan(lo)) {
    lo = 0;
    hi = 1;
  }
  EvalResult result;
  result.table = input;  // extent passes tuples through unchanged
  result.rows_processed = input->num_rows();
  result.signal_writes.emplace_back(
      output_signal_,
      expr::EvalValue::Array({Value::Double(lo), Value::Double(hi)}));
  return result;
}

// ---- BinOp ----

BinOp::BinOp(Params params) : Operator("bin", {}), params_(std::move(params)) {
  AddSignalDep(&signal_deps_, params_.field.signal);
  AddSignalDep(&signal_deps_, params_.extent_signal);
  AddSignalDep(&signal_deps_, params_.maxbins_signal);
}

Result<EvalResult> BinOp::Evaluate(const TablePtr& input,
                                   const expr::SignalResolver& signals) {
  if (!input) return Status::InvalidArgument("bin: missing input");
  VP_ASSIGN_OR_RETURN(std::string field, params_.field.Resolve(signals));

  expr::EvalValue extent;
  if (params_.extent_signal.empty() || !signals.Lookup(params_.extent_signal, &extent) ||
      !extent.is_array() || extent.array().size() < 2) {
    return Status::InvalidArgument("bin: extent signal '" + params_.extent_signal +
                                   "' missing or not a [lo, hi] array");
  }
  int maxbins = params_.maxbins;
  if (!params_.maxbins_signal.empty()) {
    expr::EvalValue mb;
    if (signals.Lookup(params_.maxbins_signal, &mb) && !mb.is_array() &&
        mb.scalar().is_numeric()) {
      maxbins = MaxbinsFrom(mb.scalar().AsDouble(), params_.maxbins);
    }
  }
  Binning bin = ComputeBinning(extent.array()[0].AsDouble(),
                               extent.array()[1].AsDouble(), maxbins);

  const Column* col = input->ColumnByName(field);
  std::vector<data::Field> fields(input->schema().fields());
  fields.push_back({params_.as0, DataType::kFloat64});
  fields.push_back({params_.as1, DataType::kFloat64});
  std::vector<Column> columns;
  columns.reserve(fields.size());
  for (size_t c = 0; c < input->num_columns(); ++c) columns.push_back(input->column(c));
  Column bin0(DataType::kFloat64), bin1(DataType::kFloat64);
  bin0.Reserve(input->num_rows());
  bin1.Reserve(input->num_rows());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    double v = col != nullptr ? col->NumericAt(r) : std::nan("");
    if (std::isnan(v)) {
      bin0.AppendNull();
      bin1.AppendNull();
      continue;
    }
    double b0 = bin.start + std::floor((v - bin.start) / bin.step) * bin.step;
    bin0.AppendDouble(b0);
    bin1.AppendDouble(b0 + bin.step);
  }
  columns.push_back(std::move(bin0));
  columns.push_back(std::move(bin1));

  EvalResult result;
  result.table = std::make_shared<Table>(Schema(std::move(fields)), std::move(columns));
  result.rows_processed = input->num_rows();
  return result;
}

// ---- AggregateOp ----

namespace {

DataType VegaAggResultType(VegaAggOp op, const Column* arg) {
  switch (op) {
    case VegaAggOp::kCount:
    case VegaAggOp::kValid:
      return DataType::kInt64;
    case VegaAggOp::kMin:
    case VegaAggOp::kMax:
      return arg != nullptr ? arg->type() : DataType::kFloat64;
    default:
      return DataType::kFloat64;
  }
}

}  // namespace

AggregateOp::AggregateOp(Params params)
    : Operator("aggregate", {}), params_(std::move(params)) {
  for (const FieldRef& f : params_.groupby) AddSignalDep(&signal_deps_, f.signal);
  for (const FieldRef& f : params_.fields) AddSignalDep(&signal_deps_, f.signal);
  // Default output names: count -> "count", else op_field.
  for (size_t i = 0; i < params_.ops.size(); ++i) {
    if (i < params_.as.size() && !params_.as[i].empty()) continue;
    std::string name = VegaAggOpName(params_.ops[i]);
    if (i < params_.fields.size() && !params_.fields[i].field.empty()) {
      name += "_" + params_.fields[i].field;
    }
    if (params_.as.size() <= i) params_.as.resize(i + 1);
    params_.as[i] = name;
  }
}

Result<EvalResult> AggregateOp::Evaluate(const TablePtr& input,
                                         const expr::SignalResolver& signals) {
  if (!input) return Status::InvalidArgument("aggregate: missing input");
  // Resolve group/measure fields under current signals.
  std::vector<std::string> group_fields(params_.groupby.size());
  for (size_t i = 0; i < params_.groupby.size(); ++i) {
    VP_ASSIGN_OR_RETURN(group_fields[i], params_.groupby[i].Resolve(signals));
  }
  std::vector<const Column*> group_cols(group_fields.size());
  for (size_t i = 0; i < group_fields.size(); ++i) {
    group_cols[i] = input->ColumnByName(group_fields[i]);
  }
  std::vector<const Column*> measure_cols(params_.ops.size(), nullptr);
  for (size_t i = 0; i < params_.ops.size(); ++i) {
    if (i < params_.fields.size() && !(params_.fields[i].field.empty() &&
                                       params_.fields[i].signal.empty())) {
      VP_ASSIGN_OR_RETURN(std::string f, params_.fields[i].Resolve(signals));
      measure_cols[i] = input->ColumnByName(f);
    }
  }

  // Hash-group all rows by the typed key registers (one pass, no boxing),
  // then run each measure through the aggregate core — the same
  // accumulate/merge/finish the SQL executor's GROUP BY uses. One measure
  // at a time, so exactly one widened column register is live.
  const size_t n = input->num_rows();
  std::vector<int32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  std::vector<Vec> key_vecs;
  expr::GroupResult groups = GroupByColumns(group_cols, rows, &key_vecs);
  const size_t num_groups = groups.num_groups();
  const std::vector<parallel::Range> chunks =
      expr::AggChunks(n, num_groups, params_.ops.size());

  // Group-key output columns gather the representative rows straight from
  // the input columns (typed, zero boxing); aggregate columns append the
  // finished values.
  std::vector<data::Field> fields;
  std::vector<Column> columns;
  for (size_t i = 0; i < group_fields.size(); ++i) {
    if (group_cols[i] != nullptr) {
      fields.push_back({group_fields[i], group_cols[i]->type()});
      columns.push_back(group_cols[i]->Take(groups.rep_rows));
    } else {
      fields.push_back({group_fields[i], DataType::kString});
      Column null_col(DataType::kString);
      null_col.Reserve(num_groups);
      for (size_t g = 0; g < num_groups; ++g) null_col.AppendNull();
      columns.push_back(std::move(null_col));
    }
  }
  for (size_t a = 0; a < params_.ops.size(); ++a) {
    const CoreAgg core = CoreAggOf(params_.ops[a]);
    const Vec arg = core.reads_field ? ColumnOrNullVec(measure_cols[a]) : Vec();
    fields.push_back({params_.as[a], VegaAggResultType(params_.ops[a], measure_cols[a])});
    Column col(fields.back().type);
    col.Reserve(num_groups);
    for (const Value& v :
         expr::AggregateGroups(core.op, core.reads_field ? &arg : nullptr, rows,
                               groups.group_of, num_groups, chunks)) {
      col.Append(v);
    }
    columns.push_back(std::move(col));
  }
  EvalResult result;
  result.table = std::make_shared<Table>(Schema(std::move(fields)), std::move(columns));
  result.rows_processed = input->num_rows();
  return result;
}

// ---- CollectOp ----

CollectOp::CollectOp(std::vector<SortKey> keys)
    : Operator("collect", {}), keys_(std::move(keys)) {
  for (const SortKey& k : keys_) AddSignalDep(&signal_deps_, k.field.signal);
}

Result<EvalResult> CollectOp::Evaluate(const TablePtr& input,
                                       const expr::SignalResolver& signals) {
  if (!input) return Status::InvalidArgument("collect: missing input");
  // Typed sort keys: one register per present key column, compared natively
  // in the comparator instead of boxing two Values per probe; dictionary
  // columns order by their precomputed rank permutation.
  std::vector<Vec> key_vecs;
  std::vector<bool> key_desc;
  for (size_t i = 0; i < keys_.size(); ++i) {
    VP_ASSIGN_OR_RETURN(std::string f, keys_[i].field.Resolve(signals));
    const Column* col = input->ColumnByName(f);
    if (col == nullptr) continue;  // unknown fields never influence the order
    key_vecs.push_back(expr::ColumnVec(*col));
    key_vecs.back().BuildDictRanks();
    key_desc.push_back(keys_[i].descending);
  }
  std::vector<int32_t> order(input->num_rows());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int32_t a, int32_t b) {
    for (size_t i = 0; i < key_vecs.size(); ++i) {
      int cmp = key_vecs[i].CompareCells(static_cast<size_t>(a),
                                         static_cast<size_t>(b));
      if (key_desc[i]) cmp = -cmp;
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  EvalResult result;
  result.table = input->Take(order);
  result.rows_processed = input->num_rows();
  return result;
}

// ---- ProjectOp ----

ProjectOp::ProjectOp(std::vector<FieldRef> fields, std::vector<std::string> as)
    : Operator("project", {}), fields_(std::move(fields)), as_(std::move(as)) {
  for (const FieldRef& f : fields_) AddSignalDep(&signal_deps_, f.signal);
}

Result<EvalResult> ProjectOp::Evaluate(const TablePtr& input,
                                       const expr::SignalResolver& signals) {
  if (!input) return Status::InvalidArgument("project: missing input");
  std::vector<data::Field> out_fields;
  std::vector<Column> columns;
  for (size_t i = 0; i < fields_.size(); ++i) {
    VP_ASSIGN_OR_RETURN(std::string f, fields_[i].Resolve(signals));
    const Column* col = input->ColumnByName(f);
    std::string name = i < as_.size() && !as_[i].empty() ? as_[i] : f;
    if (col != nullptr) {
      out_fields.push_back({name, col->type()});
      columns.push_back(*col);
    } else {
      // Unknown field projects to all-null string column.
      Column null_col(DataType::kString);
      for (size_t r = 0; r < input->num_rows(); ++r) null_col.AppendNull();
      out_fields.push_back({name, DataType::kString});
      columns.push_back(std::move(null_col));
    }
  }
  EvalResult result;
  result.table = std::make_shared<Table>(Schema(std::move(out_fields)), std::move(columns));
  result.rows_processed = input->num_rows();
  return result;
}

// ---- StackOp ----

StackOp::StackOp(Params params) : Operator("stack", {}), params_(std::move(params)) {
  AddSignalDep(&signal_deps_, params_.field.signal);
  for (const FieldRef& f : params_.groupby) AddSignalDep(&signal_deps_, f.signal);
  for (const auto& k : params_.sort) AddSignalDep(&signal_deps_, k.field.signal);
}

Result<EvalResult> StackOp::Evaluate(const TablePtr& input,
                                     const expr::SignalResolver& signals) {
  if (!input) return Status::InvalidArgument("stack: missing input");
  VP_ASSIGN_OR_RETURN(std::string value_field, params_.field.Resolve(signals));
  const Column* value_col = input->ColumnByName(value_field);
  std::vector<const Column*> group_cols;
  for (const FieldRef& f : params_.groupby) {
    VP_ASSIGN_OR_RETURN(std::string g, f.Resolve(signals));
    group_cols.push_back(input->ColumnByName(g));
  }
  std::vector<const Column*> sort_cols;
  std::vector<bool> sort_desc;
  for (const auto& k : params_.sort) {
    VP_ASSIGN_OR_RETURN(std::string s, k.field.Resolve(signals));
    sort_cols.push_back(input->ColumnByName(s));
    sort_desc.push_back(k.descending);
  }

  // Partition rows via the typed group index, preserving first-seen
  // partition order (keys are stored once, in the key registers).
  const size_t n = input->num_rows();
  std::vector<int32_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<Vec> part_key_vecs;
  expr::GroupResult groups = GroupByColumns(group_cols, all_rows, &part_key_vecs);
  std::vector<std::vector<int32_t>> part_rows(groups.num_groups());
  for (size_t r = 0; r < n; ++r) {
    part_rows[groups.group_of[r]].push_back(static_cast<int32_t>(r));
  }

  std::vector<Vec> sort_vecs;
  std::vector<bool> sort_vec_desc;
  for (size_t i = 0; i < sort_cols.size(); ++i) {
    if (sort_cols[i] == nullptr) continue;
    sort_vecs.push_back(expr::ColumnVec(*sort_cols[i]));
    sort_vecs.back().BuildDictRanks();
    sort_vec_desc.push_back(sort_desc[i]);
  }

  std::vector<double> y0(input->num_rows(), 0), y1(input->num_rows(), 0);
  for (std::vector<int32_t>& rows : part_rows) {
    if (!sort_vecs.empty()) {
      std::stable_sort(rows.begin(), rows.end(), [&](int32_t a, int32_t b) {
        for (size_t i = 0; i < sort_vecs.size(); ++i) {
          int cmp = sort_vecs[i].CompareCells(static_cast<size_t>(a),
                                              static_cast<size_t>(b));
          if (sort_vec_desc[i]) cmp = -cmp;
          if (cmp != 0) return cmp < 0;
        }
        return false;
      });
    }
    double running = 0;
    for (int32_t r : rows) {
      double v = value_col != nullptr ? value_col->NumericAt(static_cast<size_t>(r)) : 0;
      if (std::isnan(v)) v = 0;
      y0[static_cast<size_t>(r)] = running;
      running += v;
      y1[static_cast<size_t>(r)] = running;
    }
  }

  std::vector<data::Field> fields(input->schema().fields());
  fields.push_back({params_.as0, DataType::kFloat64});
  fields.push_back({params_.as1, DataType::kFloat64});
  std::vector<Column> columns;
  for (size_t c = 0; c < input->num_columns(); ++c) columns.push_back(input->column(c));
  Column c0(DataType::kFloat64), c1(DataType::kFloat64);
  for (size_t r = 0; r < input->num_rows(); ++r) {
    c0.AppendDouble(y0[r]);
    c1.AppendDouble(y1[r]);
  }
  columns.push_back(std::move(c0));
  columns.push_back(std::move(c1));
  EvalResult result;
  result.table = std::make_shared<Table>(Schema(std::move(fields)), std::move(columns));
  result.rows_processed = input->num_rows();
  return result;
}

// ---- TimeunitOp ----

TimeunitOp::TimeunitOp(Params params)
    : Operator("timeunit", {}), params_(std::move(params)) {
  AddSignalDep(&signal_deps_, params_.field.signal);
}

Result<EvalResult> TimeunitOp::Evaluate(const TablePtr& input,
                                        const expr::SignalResolver& signals) {
  if (!input) return Status::InvalidArgument("timeunit: missing input");
  VP_ASSIGN_OR_RETURN(std::string field, params_.field.Resolve(signals));
  const Column* col = input->ColumnByName(field);

  std::vector<data::Field> fields(input->schema().fields());
  fields.push_back({params_.as0, DataType::kTimestamp});
  fields.push_back({params_.as1, DataType::kTimestamp});
  std::vector<Column> columns;
  for (size_t c = 0; c < input->num_columns(); ++c) columns.push_back(input->column(c));
  Column u0(DataType::kTimestamp), u1(DataType::kTimestamp);
  u0.Reserve(input->num_rows());
  u1.Reserve(input->num_rows());
  for (size_t r = 0; r < input->num_rows(); ++r) {
    const std::optional<int64_t> ms =
        col != nullptr ? expr::TsMillis(col->NumericAt(r)) : std::nullopt;
    if (!ms) {
      u0.AppendNull();
      u1.AppendNull();
      continue;
    }
    int64_t start = expr::TsTruncate(*ms, params_.unit);
    u0.AppendInt(start);
    u1.AppendInt(start + expr::TsUnitWidth(start, params_.unit));
  }
  columns.push_back(std::move(u0));
  columns.push_back(std::move(u1));
  EvalResult result;
  result.table = std::make_shared<Table>(Schema(std::move(fields)), std::move(columns));
  result.rows_processed = input->num_rows();
  return result;
}

// ---- FormulaOp ----

FormulaOp::FormulaOp(expr::NodePtr expression, std::string as)
    : Operator("formula", CollectSignalDeps(expression)),
      expression_(std::move(expression)), as_(std::move(as)) {}

Result<EvalResult> FormulaOp::Evaluate(const TablePtr& input,
                                       const expr::SignalResolver& signals) {
  if (!input) return Status::InvalidArgument("formula: missing input");
  VP_RETURN_IF_ERROR(expr::Validate(expression_));
  Column out(DataType::kFloat64);
  // Formulas bound to this pulse's signal values execute column-at-a-time;
  // the compiler's static result type replaces the scalar path's
  // first-non-null inference.
  if (auto program = expr::Compiler::Compile(expr::BindSignals(expression_, signals),
                                             input->schema())) {
    DataType type;
    switch (program->result_kind) {
      case expr::RegKind::kStr: type = DataType::kString; break;
      case expr::RegKind::kBool: type = DataType::kBool; break;
      default: type = program->result_type; break;
    }
    out = Column(type);
    expr::VecToColumn(expr::RunMorselParallel(*input, *program), input->num_rows(), &out);
  } else {
    // Infer the output type from the first non-null evaluation.
    expr::EvalContext ctx;
    ctx.table = input.get();
    ctx.signals = &signals;
    std::vector<Value> values;
    values.reserve(input->num_rows());
    DataType type = DataType::kFloat64;
    bool type_set = false;
    for (size_t r = 0; r < input->num_rows(); ++r) {
      ctx.row = r;
      expr::EvalValue v = expr::Evaluate(expression_, ctx);
      Value scalar = v.is_array() ? Value::Null() : v.scalar();
      if (!type_set && !scalar.is_null()) {
        type = scalar.type();
        type_set = true;
      }
      values.push_back(std::move(scalar));
    }
    out = Column(type);
    out.Reserve(values.size());
    for (const Value& v : values) out.Append(v);
  }
  std::vector<data::Field> fields(input->schema().fields());
  fields.push_back({as_, out.type()});
  std::vector<Column> columns;
  for (size_t c = 0; c < input->num_columns(); ++c) columns.push_back(input->column(c));
  columns.push_back(std::move(out));
  EvalResult result;
  result.table = std::make_shared<Table>(Schema(std::move(fields)), std::move(columns));
  result.rows_processed = input->num_rows();
  return result;
}

}  // namespace transforms
}  // namespace vegaplus
