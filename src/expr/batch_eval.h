// Column-at-a-time execution of compiled expression programs (see
// compiler.h), plus the typed key helpers the SQL executor and transforms
// use for grouping and sorting without boxing per-row Values.
//
// The contract with the scalar interpreter: for every program Compile()
// accepts, running it over a batch produces exactly the values (and nulls)
// that expr::Evaluate produces row by row. Anything Compile() rejects is
// evaluated by the caller through the scalar interpreter — usually into a
// kBoxed Vec so grouping/sorting code handles both paths uniformly.
#ifndef VEGAPLUS_EXPR_BATCH_EVAL_H_
#define VEGAPLUS_EXPR_BATCH_EVAL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "data/table.h"
#include "expr/compiler.h"
#include "expr/kernels/kernels.h"
#include "storage/zone_map.h"

namespace vegaplus {
namespace expr {

/// \brief Shared, copy-on-write buffer backing one register array.
///
/// Copying a CowVec bumps a refcount instead of copying elements, so passing
/// registers around — the column-load CSE cache, broadcast reuse, key
/// registers handed to grouping — is free. The first mutation through a
/// non-const accessor detaches (clones) iff the buffer is shared; freshly
/// built buffers are unique, so construction-time writes never copy.
/// Registers can also alias column storage directly (see ColumnVec): the
/// alias holds the column's storage refcount, and the column's own
/// copy-on-write keeps the alias stable across later appends.
template <typename T>
class CowVec {
 public:
  CowVec() = default;
  explicit CowVec(std::vector<T> v)
      : buf_(std::make_shared<std::vector<T>>(std::move(v))) {}
  /// Adopt an externally shared buffer (e.g. an aliasing view of column
  /// storage). Mutations detach, never write through.
  static CowVec Adopt(std::shared_ptr<std::vector<T>> buf) {
    CowVec v;
    v.buf_ = std::move(buf);
    return v;
  }

  CowVec& operator=(std::vector<T> v) {
    buf_ = std::make_shared<std::vector<T>>(std::move(v));
    return *this;
  }

  size_t size() const { return buf_ ? buf_->size() : 0; }
  bool empty() const { return size() == 0; }

  const T* data() const { return buf_ ? buf_->data() : nullptr; }
  T* data() {
    Detach();
    return buf_->data();
  }

  const T& operator[](size_t i) const { return (*buf_)[i]; }
  T& operator[](size_t i) {
    Detach();
    return (*buf_)[i];
  }
  const T& back() const { return buf_->back(); }

  void reserve(size_t n) {
    Detach();
    buf_->reserve(n);
  }
  void resize(size_t n) {
    Detach();
    buf_->resize(n);
  }
  void resize(size_t n, const T& v) {
    Detach();
    buf_->resize(n, v);
  }
  void assign(size_t n, const T& v) {
    Detach();
    buf_->assign(n, v);
  }
  template <typename It>
  void assign(It first, It last) {
    Detach();
    buf_->assign(first, last);
  }
  void push_back(T v) {
    Detach();
    buf_->push_back(std::move(v));
  }
  /// Append another register's contents (concatenation during morsel
  /// stitching).
  void append(const CowVec& other) {
    if (other.empty()) return;
    Detach();
    buf_->insert(buf_->end(), other.buf_->begin(), other.buf_->end());
  }
  void append(CowVec&& other) {
    if (other.empty()) return;
    // Steal only when no buffer exists at all — an empty buffer may carry
    // capacity a caller just reserved for the full concatenation.
    if (!buf_ && other.buf_.use_count() == 1) {
      buf_ = std::move(other.buf_);
      return;
    }
    Detach();
    if (other.buf_.use_count() == 1) {
      buf_->insert(buf_->end(), std::make_move_iterator(other.buf_->begin()),
                   std::make_move_iterator(other.buf_->end()));
    } else {
      buf_->insert(buf_->end(), other.buf_->begin(), other.buf_->end());
    }
  }
  void append(size_t n, const T& v) {
    Detach();
    buf_->insert(buf_->end(), n, v);
  }

  /// Move the elements out (adopting the buffer when uniquely owned).
  std::vector<T> take() && {
    if (!buf_) return {};
    if (buf_.use_count() == 1) return std::move(*buf_);
    return *buf_;
  }

 private:
  void Detach() {
    if (!buf_) {
      buf_ = std::make_shared<std::vector<T>>();
    } else if (buf_.use_count() > 1) {
      buf_ = std::make_shared<std::vector<T>>(*buf_);
    }
  }

  std::shared_ptr<std::vector<T>> buf_;
};

/// \brief One vector register: a column-shaped batch of values of one kind.
struct Vec {
  RegKind kind = RegKind::kNum;
  /// Broadcast constant: a single element stands for every row.
  bool is_const = false;

  // kNum: values + validity mask (empty mask == all valid).
  CowVec<double> num;
  CowVec<uint8_t> valid;
  // kBool: 0/1, never null.
  CowVec<uint8_t> bits;
  // kStr comes in two physical forms with identical observable behavior:
  //  - pointer views: `str[i]` points at the cell's string (nullptr == null).
  //    `str_store` owns strings computed by or copied into this register
  //    (constants included); `str_refs` keeps operand stores and operand
  //    dictionaries alive through blends. Views into column storage stay
  //    valid because the caller holds the table for the register's lifetime;
  //    a register never references Program memory after Run() returns.
  //  - code-backed (dictionary columns): `dict` is set and `codes[i]`
  //    indexes dict's entries (-1 == null); `str` stays empty. Grouping,
  //    equality, and (rank-assisted) sorting run on the int32 codes.
  CowVec<const std::string*> str;
  std::shared_ptr<std::vector<std::string>> str_store;
  /// Type-erased lifetime anchors: operand stores and dictionaries whose
  /// strings this register's pointer views reference.
  std::vector<std::shared_ptr<const void>> str_refs;
  data::DictPtr dict;
  CowVec<int32_t> codes;
  /// Sort ranks per dictionary code (see BuildDictRanks); empty until built.
  std::shared_ptr<const std::vector<int32_t>> dict_ranks;
  // kBoxed: scalar-interpreter fallback values.
  CowVec<data::Value> boxed;

  bool ValidAt(size_t i) const {
    size_t j = is_const ? 0 : i;
    switch (kind) {
      case RegKind::kNum: return valid.empty() || valid[j] != 0;
      case RegKind::kBool: return true;
      case RegKind::kStr: return dict ? codes[j] >= 0 : str[j] != nullptr;
      case RegKind::kBoxed: return !boxed[j].is_null();
    }
    return false;
  }
  double NumAt(size_t i) const { return num[is_const ? 0 : i]; }
  bool BitAt(size_t i) const { return bits[is_const ? 0 : i] != 0; }
  const std::string* StrAt(size_t i) const {
    const size_t j = is_const ? 0 : i;
    if (dict) {
      const int32_t c = codes[j];
      return c < 0 ? nullptr : &dict->values[static_cast<size_t>(c)];
    }
    return str[j];
  }
  /// Dictionary code of cell `i` (code-backed kStr only; -1 == null).
  int32_t CodeAt(size_t i) const { return codes[is_const ? 0 : i]; }

  /// Truthiness of cell `i`, matching EvalValue::Truthy.
  bool TruthyAt(size_t i) const;
  /// Boxed view of cell `i` (numeric cells box as Double; hash/compare
  /// equivalent to the scalar interpreter's typed Values).
  data::Value CellValue(size_t i) const;
  /// Append cell `i` to `out`, with Column::Append's coercions.
  void AppendCellTo(size_t i, data::Column* out) const;
  /// Value::Compare-compatible ordering between two cells of this register.
  int CompareCells(size_t a, size_t b) const;

  /// Precompute the dictionary permutation for a code-backed register so
  /// CompareCells orders by one int compare per probe instead of a string
  /// compare. O(dict size * log) once; a no-op for other registers. Sort
  /// paths call this before comparator loops.
  void BuildDictRanks();
};

/// Typed view of a column as a register (numeric types widen to double;
/// strings become views or shared dictionary codes). Full-range float64 and
/// dictionary columns are aliased, not copied. Used for grouping/sorting on
/// plain columns.
Vec ColumnVec(const data::Column& col);

/// Wrap scalar-interpreter results for the uniform key/sort paths.
Vec BoxedVec(std::vector<data::Value> values);

/// Append every cell of `v` (a register of `n` rows) to `out`, adopting the
/// buffers wholesale for fresh float64 targets and fresh string targets fed
/// by a code-backed register (dictionary passthrough). Shared by RunToColumn
/// and the morsel-parallel projection paths so both produce identical
/// columns.
void VecToColumn(Vec v, size_t n, data::Column* out);

/// \brief Executes compiled programs over a table batch.
class BatchEvaluator {
 public:
  explicit BatchEvaluator(const data::Table& table) : table_(table) {}

  /// Execute and return the result register (one cell per table row).
  Vec Run(const Program& p) const;

  /// Append row indices with truthy results to `sel`, using the fused
  /// predicate fast path (a conjunction of column-vs-constant compares
  /// evaluated in one selection loop, with dictionary equality compiled to
  /// an int32 compare) when the program has one.
  void RunFilter(const Program& p, std::vector<int32_t>* sel) const;

  /// Append every row's result to `out` (which uses its own type's
  /// coercions, like the scalar path's Column::Append).
  void RunToColumn(const Program& p, data::Column* out) const;

  /// Box every row's result into `out`.
  void RunToValues(const Program& p, std::vector<data::Value>* out) const;

 private:
  const data::Table& table_;
};

/// Morsel-parallel equivalents of BatchEvaluator::Run / RunFilter: the table
/// is split into MorselRows()-sized zero-copy slices (Table::Slice), each
/// slice is executed by a per-worker BatchEvaluator on the shared morsel
/// pool (common/parallel.h), and the per-morsel registers / selection
/// vectors are stitched back together in morsel order. Every program op is
/// elementwise, so the stitched result is bit-identical to a single
/// full-batch run; single-morsel inputs and one-thread configurations
/// (parallel::SetMorselParallelism(1)) go through BatchEvaluator directly.
///
/// `cancel` (optional) is polled at morsel checkpoints (common/cancel.h):
/// once it fires, the remaining morsels are skipped and the return value /
/// `sel` contents are unspecified — callers must poll the token after the
/// call and discard the result if it fired. The filter takes the query's
/// context instead: its token, and whether zone maps may skip morsels
/// (QueryContext::zone_map_pruning; a null context prunes).
Vec RunMorselParallel(const data::Table& table, const Program& p,
                      const common::CancelToken* cancel = nullptr);
void RunFilterMorselParallel(const data::Table& table, const Program& p,
                             std::vector<int32_t>* sel,
                             const common::QueryContext* ctx = nullptr);

/// The zone-map form of a program's fused conjunction (Program::fused_preds),
/// which both pruning paths test: shard chunks before page-in
/// (storage::Reader::Scan) and in-memory morsels before their filter run
/// (RunFilterMorselParallel). Empty unless the program is an AND of fused
/// compares.
std::vector<storage::Predicate> ZonePredicates(const Program& p);

/// \brief Hash-grouping over typed key registers.
struct GroupResult {
  /// Group id per position in the `rows` span passed to BuildGroups.
  std::vector<uint32_t> group_of;
  /// First row (table row id) seen for each group, in first-seen order.
  std::vector<int32_t> rep_rows;
  size_t num_groups() const { return rep_rows.size(); }
};

/// Group `rows` (table row ids) by the tuple of key registers. Equality and
/// first-seen group order match the scalar GroupKey path (Value::Compare
/// semantics per cell). With no keys, all rows form one group. Code-backed
/// string keys hash and compare their int32 codes — group ids and
/// representative order depend only on the first-seen scan, so the result is
/// identical to the flat-string path.
///
/// Large inputs group morsel-parallel: each worker hash-groups one chunk of
/// positions locally, and the per-chunk tables are merged in chunk order —
/// group ids, representative rows, and group_of come out identical to the
/// sequential first-seen scan for any thread count.
GroupResult BuildGroups(const std::vector<const Vec*>& keys,
                        const std::vector<int32_t>& rows);

// ---- Per-bin accumulation kernels (tile builds) ----
//
// The tile store precomputes, per zoom level, one slot per bin holding
// COUNT(*) plus per-measure count/sum/min/max. These kernels are its morsel
// inner loops: the caller runs one invocation per chunk (possibly in
// parallel, each chunk into its own slots) and merges chunk results in
// chunk order. Null handling and min/max update rules mirror the aggregate
// core's (expr/aggregate.h) exactly — null cells are skipped, min/max
// initialize on the first valid value and a NaN never replaces an existing
// extremum — so a tile answer reproduces the base GROUP BY cell for cell.

/// Map rows of a numeric register onto bin indices over `span`:
///   k = (int64)floor((v - start) / step)
/// using the same IEEE double ops as the rewriter's bin expression, so
/// `start + k * step` bit-matches the query's computed bin floor for every
/// row of the bin. Null rows map to slot `num_bins` (the null bin). Returns
/// false when any value is non-finite or lands outside [0, num_bins) — the
/// level cannot serve queries bit-identically and must be discarded.
/// Thin wrapper over kernels::ComputeBinIndices on a NumSpanOf view.
bool ComputeBinIndices(const Vec& values, double start, double step,
                       size_t num_bins, parallel::Range span, int32_t* bin_of);

/// Per-bin COUNT(*) and first-seen row id (-1 = empty) over `span`,
/// accumulated into `rows`/`first_row` (both sized num_bins + 1, the last
/// slot being the null bin). Chunk merging is the caller's: first_row
/// merges by minimum, rows by sum.
void AccumulateBinRows(const int32_t* bin_of, parallel::Range span,
                       std::vector<int64_t>* rows,
                       std::vector<int64_t>* first_row);

/// Per-bin aggregate slots of one measure column; the implementation lives
/// in the kernel library so the tile builder and benches share one copy.
using BinAggSlots = kernels::BinAggSlots;

/// Accumulate one measure register into per-bin slots for rows in `span`.
/// Numeric and bool registers use the typed fast path (bools as 1.0/0.0);
/// other register kinds are unsupported for tiles and asserted against by
/// the caller's column selection.
void AccumulateBinAggs(const Vec& values, const int32_t* bin_of,
                       parallel::Range span, BinAggSlots* slots);

/// Null-aware kernel view of a numeric or bool register (the accumulation
/// kernels' argument shape). Valid only while `values`'s buffers are alive;
/// callers must only pass kNum or kBool registers.
kernels::NumSpan NumSpanOf(const Vec& values);

}  // namespace expr
}  // namespace vegaplus

#endif  // VEGAPLUS_EXPR_BATCH_EVAL_H_
