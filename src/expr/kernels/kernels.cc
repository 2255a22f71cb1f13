#include "expr/kernels/kernels.h"

#include <atomic>
#include <cmath>
#include <cstring>

// Vectorization pragma. The bodies are written branchless (bytewise 0/1
// masks, no early exits) so the pragma reliably vectorizes them.
#if defined(__clang__)
#define VP_SIMD_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define VP_SIMD_LOOP _Pragma("GCC ivdep")
#else
#define VP_SIMD_LOOP
#endif

namespace vegaplus {
namespace kernels {
namespace {

std::atomic<uint64_t> g_bitmap_selections{0};
std::atomic<uint64_t> g_index_selections{0};

/// One comparison as a 0/1 byte, with the engine's NaN rules: kEq must be
/// written !(v < c) && !(v > c) (a NaN cell passes ==) and kNeq as its
/// complement (a NaN cell fails !=) — (v >= c) & (v <= c) would NOT be
/// equivalent.
template <Cmp C>
inline uint8_t CmpBit(double v, double c) {
  if constexpr (C == Cmp::kLt) return static_cast<uint8_t>(v < c);
  if constexpr (C == Cmp::kLte) return static_cast<uint8_t>(v <= c);
  if constexpr (C == Cmp::kGt) return static_cast<uint8_t>(v > c);
  if constexpr (C == Cmp::kGte) return static_cast<uint8_t>(v >= c);
  if constexpr (C == Cmp::kEq)
    return static_cast<uint8_t>((!(v < c)) & (!(v > c)));
  return static_cast<uint8_t>((v < c) | (v > c));  // kNeq
}

/// Fold validity into a compare bit: null fails every compare except kNeq,
/// which includes null rows.
template <Cmp C, bool HasValid>
inline uint8_t MaskBit(uint8_t ok, const uint8_t* valid, size_t i) {
  if constexpr (HasValid) {
    if constexpr (C == Cmp::kNeq) {
      return static_cast<uint8_t>(ok | (valid[i] == 0));
    } else {
      return static_cast<uint8_t>(ok & (valid[i] != 0));
    }
  }
  (void)valid;
  (void)i;
  return ok;
}

template <typename T, Cmp C, bool HasValid>
void CompareLoop(const T* vals, const uint8_t* valid, size_t n, double c, uint8_t* out) {
  VP_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) {
    const uint8_t ok = CmpBit<C>(static_cast<double>(vals[i]), c);
    out[i] = MaskBit<C, HasValid>(ok, valid, i);
  }
}

template <typename T, Cmp C>
void CompareDispatch(const T* vals, const uint8_t* valid, size_t n, double c, uint8_t* out) {
  if (valid != nullptr) {
    CompareLoop<T, C, true>(vals, valid, n, c, out);
  } else {
    CompareLoop<T, C, false>(vals, valid, n, c, out);
  }
}

template <typename T>
void CompareToBitsImpl(const T* vals, const uint8_t* valid, size_t n, Cmp cmp,
                       double c, uint8_t* out) {
  switch (cmp) {
    case Cmp::kLt:
      CompareDispatch<T, Cmp::kLt>(vals, valid, n, c, out);
      break;
    case Cmp::kLte:
      CompareDispatch<T, Cmp::kLte>(vals, valid, n, c, out);
      break;
    case Cmp::kGt:
      CompareDispatch<T, Cmp::kGt>(vals, valid, n, c, out);
      break;
    case Cmp::kGte:
      CompareDispatch<T, Cmp::kGte>(vals, valid, n, c, out);
      break;
    case Cmp::kEq:
      CompareDispatch<T, Cmp::kEq>(vals, valid, n, c, out);
      break;
    case Cmp::kNeq:
      CompareDispatch<T, Cmp::kNeq>(vals, valid, n, c, out);
      break;
  }
}

template <typename T, Cmp C, bool HasValid>
size_t RefineLoop(const T* vals, const uint8_t* valid, double c, int32_t* s, size_t m) {
  size_t w = 0;
  for (size_t j = 0; j < m; ++j) {
    const int32_t r = s[j];
    const uint8_t ok = MaskBit<C, HasValid>(
        CmpBit<C>(static_cast<double>(vals[r]), c), valid, r);
    s[w] = r;
    w += ok;
  }
  return w;
}

template <typename T, Cmp C>
size_t RefineDispatch(const T* vals, const uint8_t* valid, double c, int32_t* s, size_t m) {
  return valid != nullptr ? RefineLoop<T, C, true>(vals, valid, c, s, m)
                          : RefineLoop<T, C, false>(vals, valid, c, s, m);
}

template <typename T>
void RefineIndicesImpl(const T* vals, const uint8_t* valid, Cmp cmp, double c,
                       std::vector<int32_t>* sel, size_t from) {
  const size_t m = sel->size() - from;
  if (m == 0) return;
  int32_t* s = sel->data() + from;
  size_t w = 0;
  switch (cmp) {
    case Cmp::kLt:
      w = RefineDispatch<T, Cmp::kLt>(vals, valid, c, s, m);
      break;
    case Cmp::kLte:
      w = RefineDispatch<T, Cmp::kLte>(vals, valid, c, s, m);
      break;
    case Cmp::kGt:
      w = RefineDispatch<T, Cmp::kGt>(vals, valid, c, s, m);
      break;
    case Cmp::kGte:
      w = RefineDispatch<T, Cmp::kGte>(vals, valid, c, s, m);
      break;
    case Cmp::kEq:
      w = RefineDispatch<T, Cmp::kEq>(vals, valid, c, s, m);
      break;
    case Cmp::kNeq:
      w = RefineDispatch<T, Cmp::kNeq>(vals, valid, c, s, m);
      break;
  }
  sel->resize(from + w);
}

}  // namespace

void AddBitmapSelections(uint64_t n) {
  g_bitmap_selections.fetch_add(n, std::memory_order_relaxed);
}
uint64_t BitmapSelections() {
  return g_bitmap_selections.load(std::memory_order_relaxed);
}
void AddIndexSelections(uint64_t n) {
  g_index_selections.fetch_add(n, std::memory_order_relaxed);
}
uint64_t IndexSelections() {
  return g_index_selections.load(std::memory_order_relaxed);
}
uint64_t ScalarFallbacks() { return 0; }

void CompareNumToBits(const double* vals, const uint8_t* valid, size_t n,
                      Cmp cmp, double c, uint8_t* out) {
  CompareToBitsImpl(vals, valid, n, cmp, c, out);
}

void CompareInt64ToBits(const int64_t* vals, const uint8_t* valid, size_t n,
                        Cmp cmp, double c, uint8_t* out) {
  CompareToBitsImpl(vals, valid, n, cmp, c, out);
}

void CompareCodeToBits(const int32_t* codes, size_t n, bool negate,
                       int32_t code, uint8_t* out) {
  if (negate) {
    VP_SIMD_LOOP
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(codes[i] != code);
  } else {
    VP_SIMD_LOOP
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(codes[i] == code);
  }
}

void CompareStrToBits(const std::string* strs, const uint8_t* valid, size_t n,
                      bool negate, const std::string& c, uint8_t* out) {
  // String compares never vectorize; one shared body.
  for (size_t i = 0; i < n; ++i) {
    const bool eq = (valid == nullptr || valid[i] != 0) && strs[i] == c;
    out[i] = static_cast<uint8_t>(eq != negate);
  }
}

void AndBits(uint8_t* dst, const uint8_t* src, size_t n) {
  VP_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) dst[i] = static_cast<uint8_t>((dst[i] != 0) & (src[i] != 0));
}

void OrBits(uint8_t* dst, const uint8_t* src, size_t n) {
  VP_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) dst[i] = static_cast<uint8_t>((dst[i] != 0) | (src[i] != 0));
}

void NotBits(uint8_t* dst, size_t n) {
  VP_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) dst[i] = static_cast<uint8_t>(dst[i] == 0);
}

size_t CountBits(const uint8_t* bits, size_t n) {
  size_t count = 0;
  VP_SIMD_LOOP
  for (size_t i = 0; i < n; ++i) count += (bits[i] != 0);
  return count;
}

size_t BitsToIndices(const uint8_t* bits, size_t n, int32_t base,
                     std::vector<int32_t>* out) {
  const size_t start = out->size();
  out->resize(start + n);
  int32_t* tmp = out->data() + start;
  // Branchless compaction: always store, advance by the bit. At 50%
  // selectivity this is the difference between ~1 mispredict per row and
  // none.
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    tmp[k] = static_cast<int32_t>(i) + base;
    k += (bits[i] != 0);
  }
  out->resize(start + k);
  return k;
}

void IndicesToBits(const int32_t* indices, size_t count, int32_t base,
                   size_t n, uint8_t* out) {
  std::memset(out, 0, n);
  for (size_t j = 0; j < count; ++j) out[indices[j] - base] = 1;
}

bool PreferBitmap(size_t matches, size_t rows) {
  // Stay in the bitmap domain at >= 1/8 density: combining is O(rows) either
  // way there, and the bitmap pass is branchless. Below that, an index
  // vector lets later conjuncts touch only survivors.
  return matches * 8 >= rows;
}

void RefineNumIndices(const double* vals, const uint8_t* valid, Cmp cmp,
                      double c, std::vector<int32_t>* sel, size_t from) {
  RefineIndicesImpl(vals, valid, cmp, c, sel, from);
}

void RefineInt64Indices(const int64_t* vals, const uint8_t* valid, Cmp cmp,
                        double c, std::vector<int32_t>* sel, size_t from) {
  RefineIndicesImpl(vals, valid, cmp, c, sel, from);
}

void RefineCodeIndices(const int32_t* codes, bool negate, int32_t code,
                       std::vector<int32_t>* sel, size_t from) {
  const size_t m = sel->size() - from;
  if (m == 0) return;
  int32_t* s = sel->data() + from;
  size_t w = 0;
  for (size_t j = 0; j < m; ++j) {
    const int32_t r = s[j];
    const bool eq = codes[r] == code;
    s[w] = r;
    w += (eq != negate);
  }
  sel->resize(from + w);
}

void RefineStrIndices(const std::string* strs, const uint8_t* valid,
                      bool negate, const std::string& c,
                      std::vector<int32_t>* sel, size_t from) {
  const size_t m = sel->size() - from;
  if (m == 0) return;
  int32_t* s = sel->data() + from;
  size_t w = 0;
  for (size_t j = 0; j < m; ++j) {
    const int32_t r = s[j];
    const bool eq = (valid == nullptr || valid[r] != 0) && strs[r] == c;
    if (eq != negate) s[w++] = r;
  }
  sel->resize(from + w);
}

void GatherDoubles(const double* src, const int32_t* rows, size_t n,
                   double* out) {
  VP_SIMD_LOOP
  for (size_t j = 0; j < n; ++j) out[j] = src[rows[j]];
}

void GatherInt64(const int64_t* src, const int32_t* rows, size_t n,
                 int64_t* out) {
  VP_SIMD_LOOP
  for (size_t j = 0; j < n; ++j) out[j] = src[rows[j]];
}

void GatherCodes(const int32_t* src, const int32_t* rows, size_t n,
                 int32_t* out) {
  VP_SIMD_LOOP
  for (size_t j = 0; j < n; ++j) out[j] = src[rows[j]];
}

size_t GatherValidity(const uint8_t* src, const int32_t* rows, size_t n,
                      uint8_t* out) {
  size_t nulls = 0;
  VP_SIMD_LOOP
  for (size_t j = 0; j < n; ++j) {
    const uint8_t v = src[rows[j]];
    out[j] = v;
    nulls += (v == 0);
  }
  return nulls;
}

// The grouped and binned accumulators are scatter-bound (random writes per
// group/bin slot), so their win is the single shared, null-hoisted
// implementation, not vector lanes. Position order is strictly ascending —
// float sums never reassociate, so results are bit-identical at any morsel
// thread count.

void GroupedCount(const NumSpan& v, const int32_t* rows,
                  const uint32_t* group_of, size_t begin, size_t end,
                  uint64_t* counts) {
  for (size_t pos = begin; pos < end; ++pos) {
    const size_t r = static_cast<size_t>(rows[pos]);
    if (!v.ValidAt(r)) continue;
    counts[group_of[pos]] += 1;
  }
}

void GroupedCountStar(const uint32_t* group_of, size_t begin, size_t end,
                      uint64_t* counts) {
  for (size_t pos = begin; pos < end; ++pos) counts[group_of[pos]] += 1;
}

void GroupedSum(const NumSpan& v, const int32_t* rows,
                const uint32_t* group_of, size_t begin, size_t end,
                double* sums, uint64_t* counts) {
  for (size_t pos = begin; pos < end; ++pos) {
    const size_t r = static_cast<size_t>(rows[pos]);
    if (!v.ValidAt(r)) continue;
    const uint32_t g = group_of[pos];
    sums[g] += v.ValueAt(r);
    counts[g] += 1;
  }
}

void GroupedSumSq(const NumSpan& v, const int32_t* rows,
                  const uint32_t* group_of, size_t begin, size_t end,
                  double* sums, double* sumsqs, uint64_t* counts) {
  for (size_t pos = begin; pos < end; ++pos) {
    const size_t r = static_cast<size_t>(rows[pos]);
    if (!v.ValidAt(r)) continue;
    const uint32_t g = group_of[pos];
    const double x = v.ValueAt(r);
    sums[g] += x;
    sumsqs[g] += x * x;
    counts[g] += 1;
  }
}

void GroupedMinMax(const NumSpan& v, const int32_t* rows,
                   const uint32_t* group_of, size_t begin, size_t end,
                   double* mins, double* maxs, uint8_t* seen) {
  for (size_t pos = begin; pos < end; ++pos) {
    const size_t r = static_cast<size_t>(rows[pos]);
    if (!v.ValidAt(r)) continue;
    const uint32_t g = group_of[pos];
    const double x = v.ValueAt(r);
    if (seen[g] == 0) {
      seen[g] = 1;
      mins[g] = x;
      maxs[g] = x;
    } else {
      // Strict compares: ties keep the earlier value and a NaN never
      // replaces an existing extremum.
      if (x < mins[g]) mins[g] = x;
      if (x > maxs[g]) maxs[g] = x;
    }
  }
}

void BinAggSlots::Resize(size_t slots) {
  count.assign(slots, 0);
  sum.assign(slots, 0.0);
  min.assign(slots, 0.0);
  max.assign(slots, 0.0);
}

void BinAggSlots::MergeFrom(const BinAggSlots& other) {
  for (size_t b = 0; b < count.size(); ++b) {
    if (other.count[b] == 0) continue;
    if (count[b] == 0) {
      min[b] = other.min[b];
      max[b] = other.max[b];
    } else {
      if (other.min[b] < min[b]) min[b] = other.min[b];
      if (other.max[b] > max[b]) max[b] = other.max[b];
    }
    sum[b] += other.sum[b];
    count[b] += other.count[b];
  }
}

bool ComputeBinIndices(const NumSpan& v, double start, double step,
                       size_t num_bins, size_t begin, size_t end,
                       int32_t* bin_of) {
  const int32_t null_slot = static_cast<int32_t>(num_bins);
  for (size_t i = begin; i < end; ++i) {
    if (!v.ValidAt(i)) {
      bin_of[i] = null_slot;
      continue;
    }
    const double value = v.ValueAt(i);
    if (!std::isfinite(value)) return false;
    const double k = std::floor((value - start) / step);
    if (!(k >= 0.0) || k >= static_cast<double>(num_bins)) return false;
    bin_of[i] = static_cast<int32_t>(k);
  }
  return true;
}

void AccumulateBinRows(const int32_t* bin_of, size_t begin, size_t end,
                       int64_t* rows, int64_t* first_row) {
  for (size_t i = begin; i < end; ++i) {
    const int32_t b = bin_of[i];
    ++rows[b];
    if (first_row[b] < 0) first_row[b] = static_cast<int64_t>(i);
  }
}

void AccumulateBinAggs(const NumSpan& v, const int32_t* bin_of, size_t begin,
                       size_t end, BinAggSlots* slots) {
  for (size_t i = begin; i < end; ++i) {
    if (!v.ValidAt(i)) continue;
    const double value = v.ValueAt(i);
    const int32_t b = bin_of[i];
    if (slots->count[b] == 0) {
      slots->min[b] = value;
      slots->max[b] = value;
    } else {
      if (value < slots->min[b]) slots->min[b] = value;
      if (value > slots->max[b]) slots->max[b] = value;
    }
    slots->sum[b] += value;
    ++slots->count[b];
  }
}

}  // namespace kernels
}  // namespace vegaplus
