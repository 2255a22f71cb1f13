#include "expr/aggregate.h"

#include <algorithm>
#include <cmath>

#include "expr/batch_eval.h"
#include "expr/kernels/kernels.h"

namespace vegaplus {
namespace expr {

namespace {

using data::Value;

/// Partial state of one aggregate for one group.
struct AggState {
  size_t count = 0;  // valid cells (every position for COUNT(*))
  double sum = 0;
  double sum_sq = 0;
  Value min = Value::Null();
  Value max = Value::Null();
  std::vector<double> values;  // median only

  /// Per-row update of a boxed (string or interpreter-fallback) cell.
  void Update(AggOp op, const Value& v) {
    if (v.is_null()) return;
    ++count;
    switch (op) {
      case AggOp::kSum:
      case AggOp::kAvg:
        sum += v.AsDouble();
        break;
      case AggOp::kStddev:
      case AggOp::kVariance: {
        const double d = v.AsDouble();
        sum += d;
        sum_sq += d * d;
        break;
      }
      case AggOp::kMedian:
        values.push_back(v.AsDouble());
        break;
      case AggOp::kMin:
        if (min.is_null() || v.Compare(min) < 0) min = v;
        break;
      case AggOp::kMax:
        if (max.is_null() || v.Compare(max) > 0) max = v;
        break;
      case AggOp::kCount:
        break;
    }
  }

  /// Fold `other` (a later chunk of the same group's positions) into this
  /// state. Chunks merge in position order, so `values` concatenation keeps
  /// selection order and min/max keep the first occurrence on ties (the
  /// strict Compare mirrors the per-row updates, including their
  /// NaN-never-replaces behavior, since Value::Compare treats NaN as equal
  /// to everything). Sums merge by adding per-chunk partials; chunk
  /// boundaries never depend on the thread count, so the float rounding is
  /// identical at any parallelism.
  void Merge(AggOp op, AggState&& other) {
    count += other.count;
    switch (op) {
      case AggOp::kCount:
        break;
      case AggOp::kSum:
      case AggOp::kAvg:
        sum += other.sum;
        break;
      case AggOp::kStddev:
      case AggOp::kVariance:
        sum += other.sum;
        sum_sq += other.sum_sq;
        break;
      case AggOp::kMedian:
        values.insert(values.end(), other.values.begin(), other.values.end());
        break;
      case AggOp::kMin:
        if (!other.min.is_null() && (min.is_null() || other.min.Compare(min) < 0)) {
          min = std::move(other.min);
        }
        break;
      case AggOp::kMax:
        if (!other.max.is_null() && (max.is_null() || other.max.Compare(max) > 0)) {
          max = std::move(other.max);
        }
        break;
    }
  }

  Value Finish(AggOp op) {
    switch (op) {
      case AggOp::kCount:
        return Value::Int(static_cast<int64_t>(count));
      case AggOp::kSum:
        return count == 0 ? Value::Null() : Value::Double(sum);
      case AggOp::kAvg:
        return count == 0 ? Value::Null() : Value::Double(sum / static_cast<double>(count));
      case AggOp::kMin:
        return min;
      case AggOp::kMax:
        return max;
      case AggOp::kMedian: {
        if (values.empty()) return Value::Null();
        std::sort(values.begin(), values.end());
        const size_t n = values.size();
        return Value::Double(n % 2 == 1 ? values[n / 2]
                                        : 0.5 * (values[n / 2 - 1] + values[n / 2]));
      }
      case AggOp::kStddev:
      case AggOp::kVariance: {
        if (count < 2) return Value::Null();
        const double n = static_cast<double>(count);
        double var = (sum_sq - sum * sum / n) / (n - 1);  // sample variance
        if (var < 0) var = 0;
        return Value::Double(op == AggOp::kVariance ? var : std::sqrt(var));
      }
    }
    return Value::Null();
  }
};

/// Accumulate one aggregate over the positions in `span` with a single
/// typed branch per chunk: the inner loops touch raw doubles, never a
/// per-row Value. `arg` is the argument register indexed by row id; `rows`
/// are the row ids per position; `group_of[pos]` is the group of
/// `rows[pos]`; `states` holds one fresh state per group.
void AccumulateAgg(AggOp op, const Vec& arg, const std::vector<int32_t>& rows,
                   const std::vector<uint32_t>& group_of, parallel::Range span,
                   std::vector<AggState>* states) {
  if (arg.kind != RegKind::kNum && arg.kind != RegKind::kBool) {
    // String / boxed-fallback arguments: per-row boxed update (identical to
    // the scalar interpreter path).
    for (size_t pos = span.begin; pos < span.end; ++pos) {
      (*states)[group_of[pos]].Update(op, arg.CellValue(static_cast<size_t>(rows[pos])));
    }
    return;
  }
  // Typed path: the inner loops live in the kernel library, which
  // accumulates into dense SoA scratch (one slot per group) in strict
  // position order; the scratch then folds into the chunk's fresh states,
  // which reproduces per-row updates bit-for-bit — including min/max NaN
  // stickiness, which would not survive folding into populated extrema.
  const kernels::NumSpan v = NumSpanOf(arg);
  const size_t num_groups = states->size();
  switch (op) {
    case AggOp::kCount: {
      std::vector<uint64_t> counts(num_groups, 0);
      kernels::GroupedCount(v, rows.data(), group_of.data(), span.begin, span.end,
                            counts.data());
      for (size_t g = 0; g < num_groups; ++g) {
        (*states)[g].count += static_cast<size_t>(counts[g]);
      }
      return;
    }
    case AggOp::kSum:
    case AggOp::kAvg: {
      std::vector<double> sums(num_groups, 0.0);
      std::vector<uint64_t> counts(num_groups, 0);
      kernels::GroupedSum(v, rows.data(), group_of.data(), span.begin, span.end,
                          sums.data(), counts.data());
      for (size_t g = 0; g < num_groups; ++g) {
        AggState& st = (*states)[g];
        st.sum += sums[g];
        st.count += static_cast<size_t>(counts[g]);
      }
      return;
    }
    case AggOp::kStddev:
    case AggOp::kVariance: {
      std::vector<double> sums(num_groups, 0.0);
      std::vector<double> sumsqs(num_groups, 0.0);
      std::vector<uint64_t> counts(num_groups, 0);
      kernels::GroupedSumSq(v, rows.data(), group_of.data(), span.begin, span.end,
                            sums.data(), sumsqs.data(), counts.data());
      for (size_t g = 0; g < num_groups; ++g) {
        AggState& st = (*states)[g];
        st.sum += sums[g];
        st.sum_sq += sumsqs[g];
        st.count += static_cast<size_t>(counts[g]);
      }
      return;
    }
    case AggOp::kMedian:
      // Per-group value collection stays here: the kernel scratch is
      // fixed-width, medians are not.
      for (size_t pos = span.begin; pos < span.end; ++pos) {
        const size_t r = static_cast<size_t>(rows[pos]);
        if (!arg.ValidAt(r)) continue;
        AggState& st = (*states)[group_of[pos]];
        st.values.push_back(v.ValueAt(r));
        ++st.count;
      }
      return;
    case AggOp::kMin:
    case AggOp::kMax: {
      std::vector<double> mins(num_groups, 0.0);
      std::vector<double> maxs(num_groups, 0.0);
      std::vector<uint8_t> seen(num_groups, 0);
      kernels::GroupedMinMax(v, rows.data(), group_of.data(), span.begin, span.end,
                             mins.data(), maxs.data(), seen.data());
      // Finish ignores count for min/max, so it is left untouched.
      for (size_t g = 0; g < num_groups; ++g) {
        if (seen[g] == 0) continue;
        AggState& st = (*states)[g];
        if (op == AggOp::kMin) {
          st.min = Value::Double(mins[g]);
        } else {
          st.max = Value::Double(maxs[g]);
        }
      }
      return;
    }
  }
}

}  // namespace

std::vector<parallel::Range> AggChunks(size_t positions, size_t num_groups,
                                       size_t num_aggs) {
  return parallel::SplitRanges(
      positions,
      parallel::AggChunkSize(positions, num_groups * std::max<size_t>(1, num_aggs)));
}

std::vector<Value> AggregateGroups(AggOp op, const Vec* arg,
                                   const std::vector<int32_t>& rows,
                                   const std::vector<uint32_t>& group_of,
                                   size_t num_groups,
                                   const std::vector<parallel::Range>& chunks,
                                   const common::CancelToken* cancel) {
  std::vector<std::vector<AggState>> chunk_states(chunks.size());
  parallel::ParallelFor(
      chunks.size(),
      [&](size_t c) {
        std::vector<AggState>& states = chunk_states[c];
        states.assign(num_groups, AggState());
        if (arg == nullptr) {
          // COUNT(*): group cardinalities, no argument to read.
          std::vector<uint64_t> counts(num_groups, 0);
          kernels::GroupedCountStar(group_of.data(), chunks[c].begin, chunks[c].end,
                                    counts.data());
          for (size_t g = 0; g < num_groups; ++g) {
            states[g].count = static_cast<size_t>(counts[g]);
          }
          return;
        }
        AccumulateAgg(op, *arg, rows, group_of, chunks[c], &states);
      },
      cancel);
  // Skipped chunks left default states; the caller discards the result.
  if (common::Fired(cancel)) return {};
  std::vector<AggState> merged(num_groups);
  for (std::vector<AggState>& states : chunk_states) {
    for (size_t g = 0; g < num_groups; ++g) merged[g].Merge(op, std::move(states[g]));
  }
  std::vector<Value> out;
  out.reserve(num_groups);
  for (AggState& st : merged) out.push_back(st.Finish(op));
  return out;
}

}  // namespace expr
}  // namespace vegaplus
