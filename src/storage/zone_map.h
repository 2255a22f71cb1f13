// Zone maps: per-chunk (or per-morsel) column summaries that let scans skip
// regions a fused predicate provably cannot match.
//
// Soundness contract — MayMatch may return true spuriously but must NEVER
// return false for a region containing a matching row. "Matching" is defined
// by the EXACT semantics of the expression engine's fused predicate loops
// (expr/batch_eval.cc), which differ from naive comparison in three ways the
// rules below must honor:
//
//   * Numeric loops compare as double. Null rows fail every comparison
//     EXCEPT !=, which they pass unconditionally. Equality is compiled as
//     !(x < c) && !(x > c), so a NaN VALUE passes == against any constant
//     (and fails !=). A NaN CONSTANT is never pruned against (conservative).
//   * Dictionary-string ==/!= compares int32 codes with no validity check:
//     null cells carry code -1, a constant absent from the dictionary
//     resolves to code -2. So == against an absent constant matches nothing
//     and != against it matches every row including nulls.
//   * Flat-string loops are null-checked: nulls fail == and pass !=.
//
// Regions are append-only column storage (data::Column never overwrites
// cells while its Storage lives), so a zone computed once stays valid for
// the lifetime of that storage — the basis for GetMorselZones's cache.
#ifndef VEGAPLUS_STORAGE_ZONE_MAP_H_
#define VEGAPLUS_STORAGE_ZONE_MAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "data/column.h"
#include "expr/kernels/kernels.h"

namespace vegaplus {
namespace storage {

/// One fused conjunct `column <cmp> constant` (column on the left), in the
/// column space of the table or shard it filters: the form in which shard
/// chunks and in-memory morsels are tested against their zones. String
/// constants (==/!= only) stay strings; each caller resolves them against
/// the dictionary its zones' codes index. A null constant (ordered numeric
/// compares only) matches no row, so every zone refutes it.
struct Predicate {
  int32_t col = -1;
  kernels::Cmp cmp = kernels::Cmp::kEq;
  bool is_str = false;
  bool null_const = false;
  double num_const = 0.0;  ///< !is_str && !null_const
  std::string str_const;   ///< is_str
};

/// Max distinct dictionary codes a zone records before giving up membership
/// tracking (codes_complete = false => never prune on membership).
constexpr size_t kMaxZoneDictCodes = 512;

/// Flat-string min/max are truncated to this many bytes. A truncated min is
/// still a valid lower bound; a truncated max is NOT a valid upper bound, so
/// truncation sets max_unbounded instead.
constexpr size_t kMaxZoneStringBytes = 64;

/// \brief Summary of one column over one chunk/morsel.
struct ColumnZone {
  enum class Kind : uint8_t {
    kNone = 0,        ///< No summary (kNull columns, unknown) — never prunes.
    kNumeric = 1,     ///< kBool/kInt64/kFloat64/kTimestamp viewed as double.
    kDictCodes = 2,   ///< Dictionary-encoded strings: distinct code set.
    kFlatString = 3,  ///< Flat strings: (possibly truncated) min/max.
  };

  Kind kind = Kind::kNone;
  uint64_t null_count = 0;
  /// Distinct-value count of a complete kDictCodes zone (codes.size());
  /// 0 = unknown, which every other zone reports. Advisory only — pruning
  /// never depends on it.
  uint32_t distinct_hint = 0;

  // kNumeric: min/max over valid, non-NaN cells (as double).
  bool has_finite = false;
  double min = 0.0;
  double max = 0.0;
  bool has_nan = false;  ///< Some valid cell is NaN (passes fused ==).

  // kDictCodes: sorted distinct codes of valid cells (code -1 excluded).
  // When the region exceeds kMaxZoneDictCodes distinct codes,
  // codes_complete is false, codes is empty, and membership never prunes.
  std::vector<int32_t> codes;
  bool codes_complete = false;

  // kFlatString: min/max over valid cells, truncated per
  // kMaxZoneStringBytes. has_values => at least one valid cell.
  bool has_values = false;
  std::string min_str;
  std::string max_str;
  bool max_unbounded = false;

  /// Could any row of the region pass `pred`? The zone's kind picks the
  /// test: numeric min/max, dictionary-code membership, or flat-string
  /// min/max; a predicate of the other form (string vs numeric) never
  /// prunes. `dict_code` is pred's string constant resolved against the
  /// dictionary this zone's codes index (-2 = absent); only kDictCodes
  /// zones read it. String conjuncts prune on ==/!= only.
  bool MayMatch(const Predicate& pred, int32_t dict_code) const;

  // On-disk (de)serialization for the shard chunk directory.
  void AppendTo(std::string* out) const;
  static bool Parse(std::string_view in, size_t* pos, ColumnZone* z);
};

/// Compute the zone of `col` (typically a chunk/morsel slice). The zone kind
/// follows the column's physical form so lookups against it use the same
/// value space as the fused loops do.
ColumnZone ComputeZone(const data::Column& col);

/// Per-morsel zones for an in-memory column, cached globally.
///
/// Keyed on (storage identity, slice offset, length, morsel decomposition);
/// sound because column storage is append-only. The storage pointer is held
/// weakly — entries whose storage died are ignored and swept, so a recycled
/// allocation at the same address can never serve stale zones. `ranges`
/// must be parallel::MorselRanges(col.length()) (or any decomposition that
/// is a pure function of length + its first-range size).
std::shared_ptr<const std::vector<ColumnZone>> GetMorselZones(
    const data::Column& col, const std::vector<parallel::Range>& ranges);

/// Test hook: drop every cached morsel zone.
void ClearMorselZoneCache();

}  // namespace storage
}  // namespace vegaplus

#endif  // VEGAPLUS_STORAGE_ZONE_MAP_H_
