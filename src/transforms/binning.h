// Vega's "nice" binning: choose a human-friendly step ({1,2,5}x10^k) so the
// bin count does not exceed maxbins. Shared by the client-side bin operator
// and the SQL rewriter's query builder so both produce identical buckets.
#ifndef VEGAPLUS_TRANSFORMS_BINNING_H_
#define VEGAPLUS_TRANSFORMS_BINNING_H_

namespace vegaplus {
namespace transforms {

struct Binning {
  double start = 0;
  double stop = 0;
  double step = 1;
};

/// Compute nice bin boundaries for [lo, hi] with at most `maxbins` bins.
/// Degenerate extents (hi <= lo) yield a single unit bin at lo.
Binning ComputeBinning(double lo, double hi, int maxbins);

/// A maxbins count from a number (a signal value or a spec literal). A
/// non-finite value yields `fallback`, the transform's static maxbins. A
/// finite one is clamped to [1, INT_MAX] and then truncated, which keeps
/// the binning of every in-range value and never casts out of range.
int MaxbinsFrom(double value, int fallback);

}  // namespace transforms
}  // namespace vegaplus

#endif  // VEGAPLUS_TRANSFORMS_BINNING_H_
