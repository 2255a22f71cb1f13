#include "transforms/binning.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>

namespace vegaplus {
namespace transforms {

Binning ComputeBinning(double lo, double hi, int maxbins) {
  Binning b;
  if (maxbins < 1) maxbins = 1;
  if (!(hi > lo)) {  // degenerate or NaN extent
    b.start = std::isnan(lo) ? 0 : lo;
    b.stop = b.start + 1;
    b.step = 1;
    return b;
  }
  const double span = hi - lo;
  const double raw_step = span / static_cast<double>(maxbins);
  // Smallest step of the form {1,2,5}*10^k that is >= raw_step, which
  // guarantees ceil(span/step) <= maxbins.
  double level = std::pow(10.0, std::floor(std::log10(raw_step)));
  double step = level;
  for (double mult : {1.0, 2.0, 5.0, 10.0}) {
    step = mult * level;
    if (step >= raw_step) break;
  }
  b.step = step;
  b.start = std::floor(lo / step) * step;
  b.stop = std::ceil(hi / step) * step;
  if (b.stop <= b.start) b.stop = b.start + step;
  return b;
}

int MaxbinsFrom(double value, int fallback) {
  if (!std::isfinite(value)) return fallback;
  const double max_int = std::numeric_limits<int>::max();
  return static_cast<int>(std::clamp(value, 1.0, max_int));
}

}  // namespace transforms
}  // namespace vegaplus
