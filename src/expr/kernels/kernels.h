// Explicit-SIMD kernel library for the hot scan/aggregate primitives that
// every execution layer shares: typed compare-to-bitmap, bitmap combine,
// bitmap <-> index-vector conversion (with the density heuristic that picks
// between them), index-domain predicate refinement, gathers, null-aware
// aggregate accumulation, and per-bin slot accumulation.
//
// The library sits below data/storage/expr/sql/tiles in the module DAG (it
// depends only on common), so the batch evaluator, the SQL executor's
// aggregate path, the tile builder, and Column::Take all route their inner
// loops through one implementation instead of keeping near-copies.
//
// One body per kernel: branchless, pragma-vectorized loops with no runtime
// switch. Compares, bitmap logic, conversions, and gathers are exact
// per-element ops, and float accumulation always runs in ascending index
// order (no SIMD reassociation of sums), so results never depend on how a
// loop vectorizes. The kernels' oracle is the scalar expression interpreter
// (expr::Evaluate), which expr_vector_diff_test compares them against.
//
// Comparison semantics mirror the expression engine exactly (which mirrors
// Value::Compare): a null cell fails every compare except !=, kEq is
// !(x < c) && !(x > c) so a NaN cell passes ==, and kNeq is x < c || x > c
// so a NaN cell fails !=.
#ifndef VEGAPLUS_EXPR_KERNELS_KERNELS_H_
#define VEGAPLUS_EXPR_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vegaplus {
namespace kernels {

// ---- Dispatch observability (style of storage/stats.h) ----
//
// Process-global monotone counters; readers take deltas around the work they
// measure. Selection counters record the density heuristic's choice per
// filter evaluation (one bump per batch/morsel/chunk, not per row).

void AddBitmapSelections(uint64_t n);
uint64_t BitmapSelections();
void AddIndexSelections(uint64_t n);
uint64_t IndexSelections();
/// Always 0: no kernel has a scalar fallback body. Kept for the end-to-end
/// benchmark's `expr.kernel_scalar_fallbacks` metric.
uint64_t ScalarFallbacks();

/// Comparison operator of the compare kernels (column on the left).
enum class Cmp : uint8_t { kLt, kLte, kGt, kGte, kEq, kNeq };

// ---- Compare-to-bitmap ----
//
// out[i] = 1 iff row i passes `col <cmp> c`, with the engine's null/NaN
// semantics (see file comment). `valid` may be nullptr (all rows valid).

void CompareNumToBits(const double* vals, const uint8_t* valid, size_t n,
                      Cmp cmp, double c, uint8_t* out);
/// Integer columns widen per element to double before comparing — the same
/// widening as the expression engine's numeric registers.
void CompareInt64ToBits(const int64_t* vals, const uint8_t* valid, size_t n,
                        Cmp cmp, double c, uint8_t* out);
/// Dictionary ==/!= as one int32 compare per row. Null rows carry code -1
/// and an absent constant resolves to -2, so == excludes nulls and !=
/// includes them.
void CompareCodeToBits(const int32_t* codes, size_t n, bool negate,
                       int32_t code, uint8_t* out);
/// Flat-string ==/!=: one string compare per row (never SIMD, but routed
/// here so every filter leaf shares one implementation).
void CompareStrToBits(const std::string* strs, const uint8_t* valid, size_t n,
                      bool negate, const std::string& c, uint8_t* out);

// ---- Bitmap combine ----

void AndBits(uint8_t* dst, const uint8_t* src, size_t n);
void OrBits(uint8_t* dst, const uint8_t* src, size_t n);
void NotBits(uint8_t* dst, size_t n);
size_t CountBits(const uint8_t* bits, size_t n);

// ---- Bitmap <-> index-vector conversion ----

/// Append the set positions (+ base) to `out` in ascending order, exactly
/// the selection vector a branchy scan would build. Returns the number of
/// indices appended. The hot body is a branchless compaction
/// (`tmp[k] = i; k += bits[i]`), so 50%-selectivity filters pay no branch
/// mispredicts.
size_t BitsToIndices(const uint8_t* bits, size_t n, int32_t base,
                     std::vector<int32_t>* out);

/// Scatter `indices[0..count)` (- base) into a 0/1 bitmap of n rows; `out`
/// is fully overwritten.
void IndicesToBits(const int32_t* indices, size_t count, int32_t base,
                   size_t n, uint8_t* out);

/// Density heuristic: dense selections stay in the bitmap domain (branchless
/// AND/OR combine over every row), sparse ones convert to an index vector so
/// later conjuncts only touch surviving rows.
bool PreferBitmap(size_t matches, size_t rows);

// ---- Index-domain predicate refinement (sparse AND chains) ----
//
// Compact (*sel)[from..) in place, keeping rows that pass the predicate —
// the same null/NaN semantics as the compare kernels, gathered at the
// candidate rows only.

void RefineNumIndices(const double* vals, const uint8_t* valid, Cmp cmp,
                      double c, std::vector<int32_t>* sel, size_t from);
void RefineInt64Indices(const int64_t* vals, const uint8_t* valid, Cmp cmp,
                        double c, std::vector<int32_t>* sel, size_t from);
void RefineCodeIndices(const int32_t* codes, bool negate, int32_t code,
                       std::vector<int32_t>* sel, size_t from);
void RefineStrIndices(const std::string* strs, const uint8_t* valid,
                      bool negate, const std::string& c,
                      std::vector<int32_t>* sel, size_t from);

// ---- Gathers ----
//
// out[j] = src[rows[j]]. Used by Column::Take (including dict-code gathers)
// and the executor's filter-fused gather path.

void GatherDoubles(const double* src, const int32_t* rows, size_t n,
                   double* out);
void GatherInt64(const int64_t* src, const int32_t* rows, size_t n,
                 int64_t* out);
void GatherCodes(const int32_t* src, const int32_t* rows, size_t n,
                 int32_t* out);
/// Validity gather; returns the number of zeros (nulls) gathered.
size_t GatherValidity(const uint8_t* src, const int32_t* rows, size_t n,
                      uint8_t* out);

// ---- Null-aware numeric views ----

/// Strided, null-aware view of one numeric register/column, the common
/// argument shape of the accumulation kernels. Exactly one of vals/bits is
/// set: `vals` for doubles (with optional validity mask), `bits` for 0/1
/// bool registers (never null). stride 0 = broadcast constant.
struct NumSpan {
  const double* vals = nullptr;
  const uint8_t* bits = nullptr;
  const uint8_t* valid = nullptr;  // vals form only; nullptr = all valid
  size_t stride = 1;

  bool ValidAt(size_t i) const {
    return bits != nullptr || valid == nullptr || valid[i * stride] != 0;
  }
  double ValueAt(size_t i) const {
    return bits != nullptr ? (bits[i * stride] != 0 ? 1.0 : 0.0)
                           : vals[i * stride];
  }
};

// ---- Null-aware aggregate accumulation (grouped) ----
//
// One pass over positions [begin, end): r = rows[pos] is the value row,
// g = group_of[pos] the destination group. Scatter-bound, so the kernel
// value is the hoisted null/stride handling and the single shared
// implementation; float sums accumulate in position order (chunk boundaries
// are the caller's), which keeps results bit-identical at any thread count.

/// counts[g] += number of positions whose value row is valid.
void GroupedCount(const NumSpan& v, const int32_t* rows,
                  const uint32_t* group_of, size_t begin, size_t end,
                  uint64_t* counts);
/// COUNT(*): every position counts, no argument.
void GroupedCountStar(const uint32_t* group_of, size_t begin, size_t end,
                      uint64_t* counts);
/// sums[g] += value, counts[g] += 1 for valid rows.
void GroupedSum(const NumSpan& v, const int32_t* rows,
                const uint32_t* group_of, size_t begin, size_t end,
                double* sums, uint64_t* counts);
/// sums/sumsqs/counts for variance-family aggregates.
void GroupedSumSq(const NumSpan& v, const int32_t* rows,
                  const uint32_t* group_of, size_t begin, size_t end,
                  double* sums, double* sumsqs, uint64_t* counts);
/// Strict-compare min/max: the first valid value initializes, ties keep the
/// earlier value, and a NaN never replaces an existing extremum (but a NaN
/// that arrives first sticks) — exactly the aggregate core's updates.
/// seen[g] != 0 iff any valid value reached group g.
void GroupedMinMax(const NumSpan& v, const int32_t* rows,
                   const uint32_t* group_of, size_t begin, size_t end,
                   double* mins, double* maxs, uint8_t* seen);

// ---- Per-bin slot accumulation (tile builds) ----

/// Per-bin aggregate slots of one measure column.
struct BinAggSlots {
  std::vector<int64_t> count;  // valid (non-null) cells per bin
  std::vector<double> sum;
  std::vector<double> min;  // meaningful iff count > 0
  std::vector<double> max;

  void Resize(size_t slots);
  /// Fold `other` (a later chunk of the same bins) into this; callers merge
  /// in chunk order so float sums are deterministic.
  void MergeFrom(const BinAggSlots& other);
};

/// Map rows [begin, end) onto bin indices: k = floor((v - start) / step),
/// null rows to slot num_bins. Returns false when any value is non-finite
/// or lands outside [0, num_bins).
bool ComputeBinIndices(const NumSpan& v, double start, double step,
                       size_t num_bins, size_t begin, size_t end,
                       int32_t* bin_of);

/// Per-bin COUNT(*) and first-seen row id (-1 = empty) over [begin, end).
void AccumulateBinRows(const int32_t* bin_of, size_t begin, size_t end,
                       int64_t* rows, int64_t* first_row);

/// Accumulate one measure into per-bin slots for rows [begin, end), with
/// the same null handling and min/max update rules as GroupedMinMax.
void AccumulateBinAggs(const NumSpan& v, const int32_t* bin_of, size_t begin,
                       size_t end, BinAggSlots* slots);

}  // namespace kernels
}  // namespace vegaplus

#endif  // VEGAPLUS_EXPR_KERNELS_KERNELS_H_
