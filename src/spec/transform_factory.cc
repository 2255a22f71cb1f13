#include "spec/transform_factory.h"

#include "expr/parser.h"
#include "transforms/binning.h"

namespace vegaplus {
namespace spec {

namespace {

using transforms::FieldRef;

Result<expr::NodePtr> ParseExprParam(const json::Value& params, const std::string& key) {
  const json::Value* e = params.Find(key);
  if (e == nullptr || !e->is_string()) {
    return Status::ParseError("transform: missing '" + key + "' expression");
  }
  VP_ASSIGN_OR_RETURN(expr::NodePtr node, expr::ParseExpression(e->AsString()));
  VP_RETURN_IF_ERROR(expr::Validate(node));
  return node;
}

Result<std::vector<FieldRef>> ParseFieldList(const json::Value& params,
                                             const std::string& key) {
  std::vector<FieldRef> out;
  const json::Value* list = params.Find(key);
  if (list == nullptr) return out;
  if (!list->is_array()) return Status::ParseError("transform: '" + key + "' not a list");
  for (const auto& item : list->array()) {
    if (item.is_null()) {
      out.push_back(FieldRef());  // count-style op without a field
      continue;
    }
    VP_ASSIGN_OR_RETURN(FieldRef f, ParseFieldRef(item));
    out.push_back(std::move(f));
  }
  return out;
}

std::vector<std::string> ParseStringList(const json::Value& params,
                                         const std::string& key) {
  std::vector<std::string> out;
  const json::Value* list = params.Find(key);
  if (list == nullptr || !list->is_array()) return out;
  for (const auto& item : list->array()) {
    out.push_back(item.is_string() ? item.AsString() : "");
  }
  return out;
}

Result<std::vector<transforms::CollectOp::SortKey>> ParseSortKeys(
    const json::Value& params) {
  std::vector<transforms::CollectOp::SortKey> keys;
  const json::Value* sort = params.Find("sort");
  if (sort == nullptr) return keys;
  if (!sort->is_object()) return Status::ParseError("transform: 'sort' not an object");
  const json::Value* fields = sort->Find("field");
  std::vector<std::string> orders = ParseStringList(*sort, "order");
  if (fields == nullptr) return keys;
  auto add_key = [&](const json::Value& f, size_t i) -> Status {
    transforms::CollectOp::SortKey key;
    VP_ASSIGN_OR_RETURN(key.field, ParseFieldRef(f));
    key.descending = i < orders.size() && orders[i] == "descending";
    keys.push_back(std::move(key));
    return Status::OK();
  };
  if (fields->is_array()) {
    for (size_t i = 0; i < fields->array().size(); ++i) {
      VP_RETURN_IF_ERROR(add_key(fields->array()[i], i));
    }
  } else {
    VP_RETURN_IF_ERROR(add_key(*fields, 0));
  }
  return keys;
}

}  // namespace

Result<FieldRef> ParseFieldRef(const json::Value& v) {
  if (v.is_string()) return FieldRef::Fixed(v.AsString());
  if (v.is_object()) {
    std::string sig = v.GetString("signal");
    if (!sig.empty()) return FieldRef::Signal(sig);
  }
  return Status::ParseError("transform: bad field reference");
}

Result<std::unique_ptr<dataflow::Operator>> BuildTransformOp(const TransformSpec& ts) {
  const json::Value& p = ts.params;
  if (ts.type == "filter") {
    VP_ASSIGN_OR_RETURN(expr::NodePtr pred, ParseExprParam(p, "expr"));
    return std::unique_ptr<dataflow::Operator>(new transforms::FilterOp(pred));
  }
  if (ts.type == "extent") {
    const json::Value* f = p.Find("field");
    if (f == nullptr) return Status::ParseError("extent: missing field");
    VP_ASSIGN_OR_RETURN(FieldRef field, ParseFieldRef(*f));
    std::string out_signal = p.GetString("signal");
    if (out_signal.empty()) return Status::ParseError("extent: missing output signal");
    return std::unique_ptr<dataflow::Operator>(
        new transforms::ExtentOp(std::move(field), std::move(out_signal)));
  }
  if (ts.type == "bin") {
    transforms::BinOp::Params params;
    const json::Value* f = p.Find("field");
    if (f == nullptr) return Status::ParseError("bin: missing field");
    VP_ASSIGN_OR_RETURN(params.field, ParseFieldRef(*f));
    if (const json::Value* extent = p.Find("extent")) {
      if (extent->is_object()) params.extent_signal = extent->GetString("signal");
    }
    if (params.extent_signal.empty()) {
      return Status::ParseError("bin: missing extent signal");
    }
    if (const json::Value* mb = p.Find("maxbins")) {
      if (mb->is_number()) {
        params.maxbins = transforms::MaxbinsFrom(mb->AsDouble(), params.maxbins);
      } else if (mb->is_object()) {
        params.maxbins_signal = mb->GetString("signal");
      }
    }
    std::vector<std::string> as = ParseStringList(p, "as");
    if (as.size() >= 1 && !as[0].empty()) params.as0 = as[0];
    if (as.size() >= 2 && !as[1].empty()) params.as1 = as[1];
    return std::unique_ptr<dataflow::Operator>(new transforms::BinOp(std::move(params)));
  }
  if (ts.type == "aggregate") {
    transforms::AggregateOp::Params params;
    VP_ASSIGN_OR_RETURN(params.groupby, ParseFieldList(p, "groupby"));
    VP_ASSIGN_OR_RETURN(params.fields, ParseFieldList(p, "fields"));
    for (const std::string& name : ParseStringList(p, "ops")) {
      transforms::VegaAggOp op;
      if (!transforms::ParseVegaAggOp(name, &op)) {
        return Status::ParseError("aggregate: unknown op '" + name + "'");
      }
      params.ops.push_back(op);
    }
    if (params.ops.empty()) {
      params.ops.push_back(transforms::VegaAggOp::kCount);  // Vega default
      params.fields.resize(1);
    }
    if (params.fields.size() < params.ops.size()) {
      params.fields.resize(params.ops.size());
    }
    params.as = ParseStringList(p, "as");
    return std::unique_ptr<dataflow::Operator>(
        new transforms::AggregateOp(std::move(params)));
  }
  if (ts.type == "collect") {
    VP_ASSIGN_OR_RETURN(auto keys, ParseSortKeys(p));
    return std::unique_ptr<dataflow::Operator>(new transforms::CollectOp(std::move(keys)));
  }
  if (ts.type == "project") {
    VP_ASSIGN_OR_RETURN(auto fields, ParseFieldList(p, "fields"));
    return std::unique_ptr<dataflow::Operator>(
        new transforms::ProjectOp(std::move(fields), ParseStringList(p, "as")));
  }
  if (ts.type == "stack") {
    transforms::StackOp::Params params;
    const json::Value* f = p.Find("field");
    if (f == nullptr) return Status::ParseError("stack: missing field");
    VP_ASSIGN_OR_RETURN(params.field, ParseFieldRef(*f));
    VP_ASSIGN_OR_RETURN(params.groupby, ParseFieldList(p, "groupby"));
    VP_ASSIGN_OR_RETURN(params.sort, ParseSortKeys(p));
    std::vector<std::string> as = ParseStringList(p, "as");
    if (as.size() >= 1 && !as[0].empty()) params.as0 = as[0];
    if (as.size() >= 2 && !as[1].empty()) params.as1 = as[1];
    return std::unique_ptr<dataflow::Operator>(new transforms::StackOp(std::move(params)));
  }
  if (ts.type == "timeunit") {
    transforms::TimeunitOp::Params params;
    const json::Value* f = p.Find("field");
    if (f == nullptr) return Status::ParseError("timeunit: missing field");
    VP_ASSIGN_OR_RETURN(params.field, ParseFieldRef(*f));
    std::string unit = p.GetString("units", p.GetString("unit"));
    if (!unit.empty()) params.unit = unit;
    std::vector<std::string> as = ParseStringList(p, "as");
    if (as.size() >= 1 && !as[0].empty()) params.as0 = as[0];
    if (as.size() >= 2 && !as[1].empty()) params.as1 = as[1];
    return std::unique_ptr<dataflow::Operator>(
        new transforms::TimeunitOp(std::move(params)));
  }
  if (ts.type == "formula") {
    VP_ASSIGN_OR_RETURN(expr::NodePtr expression, ParseExprParam(p, "expr"));
    std::string as = p.GetString("as");
    if (as.empty()) return Status::ParseError("formula: missing 'as'");
    return std::unique_ptr<dataflow::Operator>(
        new transforms::FormulaOp(expression, std::move(as)));
  }
  return Status::NotImplemented("transform: unknown type '" + ts.type + "'");
}

}  // namespace spec
}  // namespace vegaplus
