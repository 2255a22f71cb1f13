#include "sql/executor.h"

#include <algorithm>
#include <numeric>
#include <optional>

#include "common/parallel.h"
#include "common/str_util.h"
#include "expr/aggregate.h"
#include "expr/batch_eval.h"
#include "expr/bind.h"
#include "expr/evaluator.h"
#include "storage/reader.h"

namespace vegaplus {
namespace sql {

namespace {

using data::Column;
using data::DataType;
using data::Schema;
using data::Table;
using data::TablePtr;
using data::Value;
using expr::BatchEvaluator;
using expr::Compiler;
using expr::EvalContext;
using expr::EvalValue;
using expr::NodeKind;
using expr::NodePtr;
using expr::Vec;

/// The options of a query run without a context: every option at its
/// default, no cancellation token.
const common::QueryContext kDefaultContext;

Value EvalScalar(const NodePtr& node, const Table& table, size_t row) {
  EvalContext ctx;
  ctx.table = &table;
  ctx.row = row;
  EvalValue v = expr::Evaluate(node, ctx);
  return v.is_array() ? Value::Null() : v.scalar();
}

/// Evaluate `node` into one register indexed by table row id: vectorized
/// over the whole batch when the expression compiles, boxed through the
/// scalar interpreter otherwise. Used for group keys, sort keys, and
/// aggregate arguments. When `rows` is non-null, the scalar fallback only
/// evaluates those rows (cells outside stay null) so selective queries
/// don't pay interpreter cost for filtered-out rows; the vectorized path
/// always computes the full batch, which is cheaper than gathering.
/// `vectorized` is the query's QueryContext::vectorized.
Vec EvalVec(const NodePtr& node, const Table& table, bool vectorized,
            const std::vector<int32_t>* rows = nullptr,
            const common::CancelToken* cancel = nullptr) {
  if (vectorized) {
    if (auto program = Compiler::Compile(node, table.schema())) {
      return expr::RunMorselParallel(table, *program, cancel);
    }
  }
  // Scalar fallback: poll the token every few thousand rows; a fired token
  // leaves the remaining cells null/absent, and the caller's checkpoint
  // discards the register before anything reads it.
  if (rows != nullptr) {
    std::vector<Value> values(table.num_rows());
    for (size_t pos = 0; pos < rows->size(); ++pos) {
      if ((pos & 4095u) == 0 && common::Fired(cancel)) break;
      const int32_t r = (*rows)[pos];
      values[static_cast<size_t>(r)] = EvalScalar(node, table, static_cast<size_t>(r));
    }
    return expr::BoxedVec(std::move(values));
  }
  std::vector<Value> values;
  values.reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if ((r & 4095u) == 0 && common::Fired(cancel)) break;
    values.push_back(EvalScalar(node, table, r));
  }
  return expr::BoxedVec(std::move(values));
}

/// Append the row indices of `table` where `pred` is truthy, row at a time
/// through the scalar interpreter (for expressions the compiler rejects).
void FilterRowsInterpreted(const NodePtr& pred, const Table& table,
                           std::vector<int32_t>* keep,
                           const common::CancelToken* cancel) {
  EvalContext ctx;
  ctx.table = &table;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if ((r & 4095u) == 0 && common::Fired(cancel)) return;
    ctx.row = r;
    if (expr::Evaluate(pred, ctx).Truthy()) {
      keep->push_back(static_cast<int32_t>(r));
    }
  }
}

/// Append the row indices of `table` where `pred` is truthy: the vectorized
/// path emits the selection vector directly (with the fused column-compare
/// fast path when available, and zone-map morsel pruning when the context
/// allows it).
void FilterRows(const NodePtr& pred, const Table& table, std::vector<int32_t>* keep,
                const common::QueryContext& ctx) {
  if (ctx.vectorized) {
    if (auto program = Compiler::Compile(pred, table.schema())) {
      expr::RunFilterMorselParallel(table, *program, keep, &ctx);
      return;
    }
  }
  FilterRowsInterpreted(pred, table, keep, ctx.token());
}

/// Scan a shard-backed FROM source and run the (folded) WHERE clause once,
/// chunk by chunk, inside the reader's chunk loop: through the compiled
/// program when it compiles, whose fused conjunction also prunes chunks by
/// zone map before page-in, and through the interpreter otherwise. The
/// result is the rows that pass WHERE, in scan order, the same rows
/// FilterRows selects over the whole table. With pruning off the scan gets
/// no zone predicates, so every chunk pages in.
Result<TablePtr> ScanShard(const storage::Reader& shard, const NodePtr& where,
                           storage::ScanStats* sstats,
                           const common::QueryContext& ctx) {
  const common::CancelToken* cancel = ctx.token();
  if (where == nullptr) return shard.ReadAll(cancel, sstats);
  std::optional<expr::Program> program;
  if (ctx.vectorized) program = Compiler::Compile(where, shard.schema());
  const std::vector<storage::Predicate> preds =
      program && ctx.zone_map_pruning ? expr::ZonePredicates(*program)
                                      : std::vector<storage::Predicate>{};
  return shard.Scan(
      preds,
      [&](const Table& chunk, std::vector<int32_t>* keep) {
        if (program) {
          BatchEvaluator(chunk).RunFilter(*program, keep);
        } else {
          FilterRowsInterpreted(where, chunk, keep, cancel);
        }
      },
      cancel, sstats);
}

/// Whether `node` reads the input table only through direct `datum.<name>`
/// member access, collecting the referenced column names (deduped,
/// first-seen order). Bare `datum` or computed `datum[expr]` access could
/// touch arbitrary columns, so they disqualify the caller's gathered
/// (filter-fused) group-by path.
bool CollectProjectedColumns(const NodePtr& node, std::vector<std::string>* cols) {
  if (node == nullptr) return true;
  if (node->kind == expr::NodeKind::kMember && node->a != nullptr &&
      node->a->kind == expr::NodeKind::kIdentifier && node->a->name == "datum") {
    if (std::find(cols->begin(), cols->end(), node->name) == cols->end()) {
      cols->push_back(node->name);
    }
    return true;
  }
  if (node->kind == expr::NodeKind::kIdentifier) return node->name != "datum";
  if (node->kind == expr::NodeKind::kIndex) return false;
  bool ok = CollectProjectedColumns(node->a, cols) &&
            CollectProjectedColumns(node->b, cols) &&
            CollectProjectedColumns(node->c, cols);
  for (const NodePtr& arg : node->args) {
    ok = ok && CollectProjectedColumns(arg, cols);
  }
  return ok;
}

DataType AggResultType(AggOp op, const NodePtr& arg, const Schema& input) {
  switch (op) {
    case AggOp::kCount:
      return DataType::kInt64;
    case AggOp::kMin:
    case AggOp::kMax:
      return arg ? InferType(arg, input) : DataType::kFloat64;
    default:
      return DataType::kFloat64;
  }
}

// Sort `order` (row index permutation) by the given keys, stably. Keys are
// evaluated once into typed registers; the comparator never boxes, and
// code-backed string keys order by a precomputed dictionary permutation (one
// int compare per probe instead of a string compare).
void SortIndices(std::vector<int32_t>* order, const Table& table,
                 const std::vector<OrderItem>& keys, bool vectorized,
                 const common::CancelToken* cancel = nullptr) {
  std::vector<Vec> key_vecs;
  key_vecs.reserve(keys.size());
  for (const OrderItem& k : keys) {
    key_vecs.push_back(EvalVec(k.expr, table, vectorized, nullptr, cancel));
  }
  // A fired token leaves short/empty key registers; skip the sort (the
  // caller's checkpoint discards the order anyway).
  if (common::Fired(cancel)) return;
  for (Vec& v : key_vecs) v.BuildDictRanks();
  std::stable_sort(order->begin(), order->end(), [&](int32_t a, int32_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int cmp = key_vecs[k].CompareCells(static_cast<size_t>(a),
                                         static_cast<size_t>(b));
      if (keys[k].descending) cmp = -cmp;
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
}

}  // namespace

data::DataType InferType(const NodePtr& node, const Schema& input) {
  if (!node) return DataType::kFloat64;
  switch (node->kind) {
    case NodeKind::kLiteral:
      return node->literal.is_null() ? DataType::kFloat64 : node->literal.type();
    case NodeKind::kIdentifier:
      return DataType::kFloat64;  // signal value; numeric in practice
    case NodeKind::kMember: {
      if (node->a && node->a->kind == NodeKind::kIdentifier && node->a->name == "datum") {
        int idx = input.FieldIndex(node->name);
        if (idx >= 0) return input.field(static_cast<size_t>(idx)).type;
      }
      return DataType::kFloat64;
    }
    case NodeKind::kIndex:
      return DataType::kFloat64;
    case NodeKind::kUnary:
      return node->unary_op == expr::UnaryOp::kNot ? DataType::kBool : DataType::kFloat64;
    case NodeKind::kBinary:
      switch (node->binary_op) {
        case expr::BinaryOp::kEq:
        case expr::BinaryOp::kNeq:
        case expr::BinaryOp::kLt:
        case expr::BinaryOp::kLte:
        case expr::BinaryOp::kGt:
        case expr::BinaryOp::kGte:
          return DataType::kBool;
        case expr::BinaryOp::kAnd:
        case expr::BinaryOp::kOr:
          return DataType::kBool;
        case expr::BinaryOp::kAdd: {
          DataType a = InferType(node->a, input);
          DataType b = InferType(node->b, input);
          if (a == DataType::kString || b == DataType::kString) return DataType::kString;
          return DataType::kFloat64;
        }
        default:
          return DataType::kFloat64;
      }
    case NodeKind::kTernary:
      return InferType(node->b, input);
    case NodeKind::kCall: {
      const std::string& fn = node->name;
      if (fn == "isValid" || fn == "inrange") return DataType::kBool;
      if (fn == "lower" || fn == "upper" || fn == "toString" || fn == "format" ||
          fn == "timeFormat") {
        return DataType::kString;
      }
      if (fn == "length" || fn == "year" || fn == "month" || fn == "date" ||
          fn == "day" || fn == "hours" || fn == "minutes" || fn == "seconds" ||
          fn == "indexof") {
        return DataType::kInt64;
      }
      if (fn == "date_trunc" || fn == "date_unit_end") return DataType::kTimestamp;
      if (fn == "if" && node->args.size() == 3) return InferType(node->args[1], input);
      return DataType::kFloat64;
    }
    case NodeKind::kArray:
      return DataType::kFloat64;
  }
  return DataType::kFloat64;
}

Result<TablePtr> ExecuteSelect(const SelectStmt& stmt, const Catalog& catalog,
                               ExecStats* stats,
                               const common::QueryContext* ctx) {
  ExecStats local;
  const common::QueryContext& opts = ctx != nullptr ? *ctx : kDefaultContext;
  const common::CancelToken* cancel = opts.token();
  // Every cancellation exit funnels through here so the work counters of the
  // stages that DID run reach `stats` — an aborted 4M-row scan reports the
  // rows it touched (strictly below the full count), which is the observable
  // proof that workers were reclaimed mid-flight.
  const auto bail = [&](Status st) {
    if (stats != nullptr) stats->Add(local);
    return st;
  };

  // Calls over literals (the rewriter's LEAST/GREATEST brush bounds) fold
  // once here, so the filter and the zone maps see plain
  // `column <cmp> constant` conjuncts.
  const NodePtr where = expr::FoldConstantCalls(stmt.where);

  // Validate expressions up front (unknown functions etc), before any scan.
  for (const auto& item : stmt.items) {
    if (item.expr) VP_RETURN_IF_ERROR(expr::Validate(item.expr));
    if (item.agg_arg) VP_RETURN_IF_ERROR(expr::Validate(item.agg_arg));
  }
  if (stmt.where) VP_RETURN_IF_ERROR(expr::Validate(stmt.where));

  // ---- FROM ----
  TablePtr input;
  // Set for a shard source, whose scan also runs WHERE.
  std::optional<storage::ScanStats> shard_scan;
  if (stmt.from.subquery) {
    Result<TablePtr> sub = ExecuteSelect(*stmt.from.subquery, catalog, stats, ctx);
    if (!sub.ok()) return std::move(sub).status();
    input = std::move(*sub);
  } else if (!stmt.from.table_name.empty()) {
    if (std::shared_ptr<storage::Reader> shard =
            catalog.GetShard(stmt.from.table_name)) {
      // A shard scan counts the rows of the chunks it paged in, before the
      // row filter; pruned chunks count nothing.
      shard_scan.emplace();
      Result<TablePtr> scanned = ScanShard(*shard, where, &*shard_scan, opts);
      local.rows_scanned += static_cast<size_t>(shard_scan->rows_scanned);
      if (!scanned.ok()) return bail(std::move(scanned).status());
      input = std::move(*scanned);
    } else {
      VP_ASSIGN_OR_RETURN(input, catalog.GetTable(stmt.from.table_name));
      local.rows_scanned += input->num_rows();
    }
  } else {
    return Status::InvalidArgument("SQL exec: missing FROM source");
  }
  ++local.num_operators;
  if (common::Fired(cancel)) return bail(cancel->status());

  // ---- WHERE (one operator over the rows it filtered) ----
  std::vector<int32_t> selection;
  if (where) {
    ++local.num_operators;
    local.rows_processed +=
        shard_scan ? static_cast<size_t>(shard_scan->rows_scanned) : input->num_rows();
  }
  if (where && !shard_scan) {
    selection.reserve(input->num_rows());
    FilterRows(where, *input, &selection, opts);
    if (common::Fired(cancel)) return bail(cancel->status());
  } else {
    selection.resize(input->num_rows());
    std::iota(selection.begin(), selection.end(), 0);
  }

  const bool has_aggregates =
      !stmt.group_by.empty() ||
      std::any_of(stmt.items.begin(), stmt.items.end(), [](const SelectItem& i) {
        return i.kind == SelectItem::Kind::kAggregate;
      });

  TablePtr output;

  if (has_aggregates) {
    // ---- GROUP BY + aggregate ----
    ++local.num_operators;
    local.rows_processed += selection.size();

    // Match plain expression items to group-by expressions by unparse text.
    std::vector<std::string> group_texts;
    group_texts.reserve(stmt.group_by.size());
    for (const auto& g : stmt.group_by) group_texts.push_back(expr::ToString(g));

    struct ItemPlan {
      bool is_group_expr = false;
      size_t group_index = 0;
      size_t agg_index = 0;
    };
    std::vector<ItemPlan> item_plans(stmt.items.size());
    std::vector<const SelectItem*> agg_items;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      switch (item.kind) {
        case SelectItem::Kind::kStar:
          return Status::InvalidArgument("SQL exec: '*' not allowed with GROUP BY");
        case SelectItem::Kind::kWindow:
          return Status::InvalidArgument(
              "SQL exec: window function not allowed with GROUP BY");
        case SelectItem::Kind::kExpr: {
          std::string text = expr::ToString(item.expr);
          auto it = std::find(group_texts.begin(), group_texts.end(), text);
          if (it == group_texts.end()) {
            return Status::InvalidArgument(
                "SQL exec: select item '" + text + "' is not in GROUP BY");
          }
          item_plans[i].is_group_expr = true;
          item_plans[i].group_index = static_cast<size_t>(it - group_texts.begin());
          break;
        }
        case SelectItem::Kind::kAggregate:
          item_plans[i].agg_index = agg_items.size();
          agg_items.push_back(&item);
          break;
      }
    }

    // Filter fusion: when WHERE kept a minority of rows and every group key
    // and aggregate argument reads the table only through direct
    // `datum.<col>` access, gather just the referenced columns at the
    // selected rows and evaluate keys/arguments over that narrow compacted
    // table, instead of computing full-batch key registers over mostly
    // filtered-out rows. Bit-identical to the unfused path: Column::Take
    // copies cells exactly (dictionaries shared), first-seen group order
    // equals selection order either way, and the aggregate chunk boundaries
    // depend only on the selection size, which is unchanged.
    TablePtr gathered;
    std::vector<int32_t> positions;  // iota over gathered rows
    const Table* key_input = input.get();
    // Positions into group_of/chunks map to rows of `key_input` through
    // this: table row ids when unfused, the identity when fused.
    const std::vector<int32_t>* acc_rows = &selection;
    if (where && selection.size() * 2 < input->num_rows()) {
      std::vector<std::string> cols;
      bool projectable = true;
      for (const auto& g : stmt.group_by) {
        projectable = projectable && CollectProjectedColumns(g, &cols);
      }
      for (const SelectItem* item : agg_items) {
        if (item->agg_arg) {
          projectable = projectable && CollectProjectedColumns(item->agg_arg, &cols);
        }
      }
      if (projectable) {
        std::vector<data::Field> gfields;
        std::vector<data::Column> gcols;
        for (const std::string& name : cols) {
          int idx = input->schema().FieldIndex(name);
          // Referenced-but-absent columns evaluate to null against either
          // schema; skip them.
          if (idx < 0) continue;
          gfields.push_back(input->schema().field(static_cast<size_t>(idx)));
          gcols.push_back(input->column(static_cast<size_t>(idx)).Take(selection));
        }
        gathered = std::make_shared<Table>(Schema(std::move(gfields)),
                                           std::move(gcols));
        positions.resize(selection.size());
        std::iota(positions.begin(), positions.end(), 0);
        key_input = gathered.get();
        acc_rows = &positions;
      }
    }

    // Evaluate group keys column-at-a-time (over the gathered table when
    // fused, else over the full input — unselected rows are computed but
    // never read), then hash-group the selection. Group keys live once, in
    // the key registers; groups are ids plus one representative row each.
    std::vector<Vec> key_vecs;
    key_vecs.reserve(stmt.group_by.size());
    for (const auto& g : stmt.group_by) {
      key_vecs.push_back(EvalVec(g, *key_input, opts.vectorized,
                                 gathered ? nullptr : &selection, cancel));
    }
    if (common::Fired(cancel)) return bail(cancel->status());
    std::vector<const Vec*> key_ptrs;
    key_ptrs.reserve(key_vecs.size());
    for (const Vec& v : key_vecs) key_ptrs.push_back(&v);
    expr::GroupResult groups = expr::BuildGroups(key_ptrs, *acc_rows);

    size_t num_groups = groups.num_groups();
    // Pure aggregation over zero rows still yields one output row.
    if (stmt.group_by.empty() && num_groups == 0) num_groups = 1;

    // One aggregate at a time, so exactly one full-table argument register
    // is live. The aggregate core accumulates each chunk of selection
    // positions into partial states (across the morsel pool) and merges them
    // in chunk order; the chunk boundaries are shared by every aggregate.
    const std::vector<parallel::Range> chunks =
        expr::AggChunks(selection.size(), num_groups, agg_items.size());
    std::vector<std::vector<Value>> agg_values(agg_items.size());
    for (size_t a = 0; a < agg_items.size(); ++a) {
      const SelectItem* item = agg_items[a];
      Vec arg;
      if (item->agg_arg != nullptr) {
        arg = EvalVec(item->agg_arg, *key_input, opts.vectorized,
                      gathered ? nullptr : &selection, cancel);
        if (common::Fired(cancel)) return bail(cancel->status());
      }
      agg_values[a] =
          expr::AggregateGroups(item->agg_op, item->agg_arg != nullptr ? &arg : nullptr,
                                *acc_rows, groups.group_of, num_groups, chunks, cancel);
      if (common::Fired(cancel)) return bail(cancel->status());
    }

    // Build the output columns group-at-a-time.
    std::vector<data::Field> fields;
    fields.reserve(stmt.items.size());
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      DataType t = item.kind == SelectItem::Kind::kAggregate
                       ? AggResultType(item.agg_op, item.agg_arg, input->schema())
                       : InferType(item.expr, input->schema());
      fields.push_back({DeriveItemName(item, i), t});
    }
    std::vector<Column> columns;
    columns.reserve(fields.size());
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      Column col(fields[i].type);
      col.Reserve(num_groups);
      if (item_plans[i].is_group_expr) {
        const Vec& key = key_vecs[item_plans[i].group_index];
        for (size_t g = 0; g < groups.num_groups(); ++g) {
          key.AppendCellTo(static_cast<size_t>(groups.rep_rows[g]), &col);
        }
      } else {
        for (const Value& v : agg_values[item_plans[i].agg_index]) col.Append(v);
      }
      columns.push_back(std::move(col));
    }
    output = std::make_shared<Table>(Schema(std::move(fields)), std::move(columns));

    // ---- HAVING (references output column names) ----
    if (stmt.having) {
      VP_RETURN_IF_ERROR(expr::Validate(stmt.having));
      ++local.num_operators;
      local.rows_processed += output->num_rows();
      std::vector<int32_t> keep;
      keep.reserve(output->num_rows());
      FilterRows(stmt.having, *output, &keep, opts);
      if (common::Fired(cancel)) return bail(cancel->status());
      output = output->Take(keep);
    }
  } else {
    // ---- Projection (+ window functions) ----
    ++local.num_operators;
    local.rows_processed += selection.size();

    TablePtr filtered = selection.size() == input->num_rows()
                            ? input
                            : input->Take(selection);

    std::vector<data::Field> fields;
    std::vector<int> source_col;  // >=0: pass-through input column
    std::vector<const SelectItem*> item_of_field;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const SelectItem& item = stmt.items[i];
      if (item.kind == SelectItem::Kind::kStar) {
        for (size_t c = 0; c < filtered->num_columns(); ++c) {
          fields.push_back(filtered->schema().field(c));
          source_col.push_back(static_cast<int>(c));
          item_of_field.push_back(nullptr);
        }
        continue;
      }
      DataType t;
      if (item.kind == SelectItem::Kind::kWindow) {
        t = item.window.op == WindowOp::kRowNumber ? DataType::kInt64
                                                   : DataType::kFloat64;
      } else {
        t = InferType(item.expr, filtered->schema());
      }
      fields.push_back({DeriveItemName(item, i), t});
      source_col.push_back(-1);
      item_of_field.push_back(&item);
    }

    const size_t n = filtered->num_rows();
    std::vector<Column> columns;
    columns.reserve(fields.size());
    for (size_t f = 0; f < fields.size(); ++f) {
      if (source_col[f] >= 0) {
        columns.push_back(filtered->column(static_cast<size_t>(source_col[f])));
        continue;
      }
      const SelectItem& item = *item_of_field[f];
      Column col(fields[f].type);
      if (item.kind == SelectItem::Kind::kExpr) {
        bool vectorized = false;
        if (opts.vectorized) {
          if (auto program = Compiler::Compile(item.expr, filtered->schema())) {
            // Morsel-parallel projection: compute the register across the
            // pool, then build the column once (identical to RunToColumn).
            Vec reg = expr::RunMorselParallel(*filtered, *program, cancel);
            if (common::Fired(cancel)) return bail(cancel->status());
            expr::VecToColumn(std::move(reg), n, &col);
            vectorized = true;
          }
        }
        if (!vectorized) {
          col.Reserve(n);
          for (size_t r = 0; r < n; ++r) {
            col.Append(EvalScalar(item.expr, *filtered, r));
          }
        }
      } else {
        // Window function.
        ++local.num_operators;
        local.rows_processed += n;
        // Partition rows via the typed group index (single key store; the
        // per-partition row lists are built off group ids, no re-hashing).
        std::vector<Vec> part_vecs;
        part_vecs.reserve(item.window.partition_by.size());
        for (const auto& pexpr : item.window.partition_by) {
          part_vecs.push_back(EvalVec(pexpr, *filtered, opts.vectorized));
        }
        std::vector<const Vec*> part_ptrs;
        part_ptrs.reserve(part_vecs.size());
        for (const Vec& v : part_vecs) part_ptrs.push_back(&v);
        std::vector<int32_t> all_rows(n);
        std::iota(all_rows.begin(), all_rows.end(), 0);
        expr::GroupResult parts = expr::BuildGroups(part_ptrs, all_rows);
        std::vector<std::vector<int32_t>> part_rows(parts.num_groups());
        for (size_t pos = 0; pos < n; ++pos) {
          part_rows[parts.group_of[pos]].push_back(static_cast<int32_t>(pos));
        }

        Vec arg_vec;
        if (item.window.op != WindowOp::kRowNumber) {
          arg_vec = EvalVec(item.window.arg, *filtered, opts.vectorized);
        }
        std::vector<Value> results(n, Value::Null());
        for (std::vector<int32_t>& rows : part_rows) {
          if (!item.window.order_by.empty()) {
            SortIndices(&rows, *filtered, item.window.order_by, opts.vectorized);
          }
          double running = 0;
          int64_t rank = 0;
          for (int32_t r : rows) {
            if (item.window.op == WindowOp::kRowNumber) {
              results[static_cast<size_t>(r)] = Value::Int(++rank);
            } else {
              Value v = arg_vec.CellValue(static_cast<size_t>(r));
              if (!v.is_null()) running += v.AsDouble();
              results[static_cast<size_t>(r)] = Value::Double(running);
            }
          }
        }
        col.Reserve(n);
        for (size_t r = 0; r < n; ++r) col.Append(results[r]);
      }
      columns.push_back(std::move(col));
    }
    output = std::make_shared<Table>(Schema(std::move(fields)), std::move(columns));
  }

  // ---- ORDER BY (against output columns) ----
  if (!stmt.order_by.empty()) {
    ++local.num_operators;
    local.rows_processed += output->num_rows();
    if (common::Fired(cancel)) return bail(cancel->status());
    std::vector<int32_t> order(output->num_rows());
    std::iota(order.begin(), order.end(), 0);
    SortIndices(&order, *output, stmt.order_by, opts.vectorized, cancel);
    if (common::Fired(cancel)) return bail(cancel->status());
    output = output->Take(order);
  }

  // ---- LIMIT / OFFSET ----
  if (stmt.limit >= 0 || stmt.offset > 0) {
    ++local.num_operators;
    size_t begin = std::min(static_cast<size_t>(stmt.offset), output->num_rows());
    size_t end = stmt.limit < 0 ? output->num_rows()
                                : std::min(begin + static_cast<size_t>(stmt.limit),
                                           output->num_rows());
    const size_t kept = end - begin;
    if (kept * 2 >= output->num_rows()) {
      // Zero-copy view; the discarded fraction of the backing storage is
      // bounded, so pinning it (e.g. in the runtime query cache) is fine.
      output = output->Slice(begin, kept);
    } else {
      // A small LIMIT over a large intermediate: compact so a cached result
      // doesn't pin the whole pre-LIMIT table's storage.
      std::vector<int32_t> keep;
      keep.reserve(kept);
      for (size_t r = begin; r < end; ++r) keep.push_back(static_cast<int32_t>(r));
      output = output->Take(keep);
    }
  }

  local.rows_output = output->num_rows();
  if (stats != nullptr) stats->Add(local);
  return output;
}

}  // namespace sql
}  // namespace vegaplus
