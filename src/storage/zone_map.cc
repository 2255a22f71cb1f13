#include "storage/zone_map.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>

#include "storage/format.h"

namespace vegaplus {
namespace storage {

namespace {

using format::GetF64;
using format::GetI32;
using format::GetString;
using format::GetU32;
using format::GetU64;
using format::GetU8;
using format::PutF64;
using format::PutI32;
using format::PutString;
using format::PutU32;
using format::PutU64;
using format::PutU8;

ColumnZone NumericZone(const data::Column& col) {
  ColumnZone z;
  z.kind = ColumnZone::Kind::kNumeric;
  z.null_count = col.null_count();
  const size_t n = col.length();
  const uint8_t* valid = col.validity_data();
  auto observe = [&](double v) {
    if (std::isnan(v)) {
      z.has_nan = true;
      return;
    }
    if (!z.has_finite) {
      z.has_finite = true;
      z.min = z.max = v;
    } else {
      if (v < z.min) z.min = v;
      if (v > z.max) z.max = v;
    }
  };
  if (col.type() == data::DataType::kFloat64) {
    const double* vals = col.doubles_data();
    for (size_t i = 0; i < n; ++i) {
      if (valid[i]) observe(vals[i]);
    }
  } else {  // kBool / kInt64 / kTimestamp: the fused loops compare as double.
    const int64_t* vals = col.ints_data();
    for (size_t i = 0; i < n; ++i) {
      if (valid[i]) observe(static_cast<double>(vals[i]));
    }
  }
  return z;
}

ColumnZone DictZone(const data::Column& col) {
  ColumnZone z;
  z.kind = ColumnZone::Kind::kDictCodes;
  z.null_count = col.null_count();
  const size_t n = col.length();
  const int32_t* codes = col.codes_data();
  std::set<int32_t> distinct;
  z.codes_complete = true;
  for (size_t i = 0; i < n; ++i) {
    if (codes[i] < 0) continue;  // null
    distinct.insert(codes[i]);
    if (distinct.size() > kMaxZoneDictCodes) {
      z.codes_complete = false;
      distinct.clear();
      break;
    }
  }
  if (z.codes_complete) {
    z.codes.assign(distinct.begin(), distinct.end());
    z.distinct_hint = static_cast<uint32_t>(z.codes.size());
  }
  return z;
}

ColumnZone FlatStringZone(const data::Column& col) {
  ColumnZone z;
  z.kind = ColumnZone::Kind::kFlatString;
  z.null_count = col.null_count();
  const size_t n = col.length();
  const uint8_t* valid = col.validity_data();
  const std::string* vals = col.strings_data();
  for (size_t i = 0; i < n; ++i) {
    if (!valid[i]) continue;
    const std::string& s = vals[i];
    if (!z.has_values) {
      z.has_values = true;
      z.min_str = s;
      z.max_str = s;
    } else {
      if (s < z.min_str) z.min_str = s;
      if (s > z.max_str) z.max_str = s;
    }
  }
  // A truncated min is still a valid lower bound. A truncated max is not a
  // valid upper bound, so record "unbounded above" instead.
  if (z.min_str.size() > kMaxZoneStringBytes) z.min_str.resize(kMaxZoneStringBytes);
  if (z.max_str.size() > kMaxZoneStringBytes) {
    z.max_str.clear();
    z.max_unbounded = true;
  }
  return z;
}

}  // namespace

ColumnZone ComputeZone(const data::Column& col) {
  switch (col.type()) {
    case data::DataType::kBool:
    case data::DataType::kInt64:
    case data::DataType::kFloat64:
    case data::DataType::kTimestamp:
      return NumericZone(col);
    case data::DataType::kString:
      return col.dict_encoded() ? DictZone(col) : FlatStringZone(col);
    case data::DataType::kNull:
      break;
  }
  ColumnZone z;
  z.kind = ColumnZone::Kind::kNone;
  z.null_count = col.null_count();
  return z;
}

namespace {

bool NumericMayMatch(const ColumnZone& z, kernels::Cmp cmp, double c) {
  // A NaN constant: fused == is !(x<NaN) && !(x>NaN), which every valid row
  // passes. Never prune.
  if (std::isnan(c)) return true;
  switch (cmp) {
    case kernels::Cmp::kLt:
      return z.has_finite && z.min < c;
    case kernels::Cmp::kLte:
      return z.has_finite && z.min <= c;
    case kernels::Cmp::kGt:
      return z.has_finite && z.max > c;
    case kernels::Cmp::kGte:
      return z.has_finite && z.max >= c;
    case kernels::Cmp::kEq:
      // NaN values pass fused == against any constant.
      return z.has_nan || (z.has_finite && z.min <= c && c <= z.max);
    case kernels::Cmp::kNeq:
      // Nulls pass != unconditionally; NaN values fail it.
      return z.null_count > 0 || (z.has_finite && (z.min < c || z.max > c));
  }
  return true;
}

bool DictCodeMayMatch(const ColumnZone& z, kernels::Cmp cmp, int32_t c_code) {
  if (!z.codes_complete) return true;
  switch (cmp) {
    case kernels::Cmp::kEq:
      // Nulls (code -1) and absent constants (code -2) never collide with a
      // recorded code (all >= 0), so membership is exact.
      return std::binary_search(z.codes.begin(), z.codes.end(), c_code);
    case kernels::Cmp::kNeq:
      // The fused loop pushes every row whose code differs — including
      // nulls. Prunable only when every row carries exactly c_code.
      if (z.null_count > 0) return true;
      if (z.codes.size() != 1) return !z.codes.empty();
      return z.codes[0] != c_code;
    default:
      return true;  // Ordered string comparisons are never fused.
  }
}

bool StringMayMatch(const ColumnZone& z, kernels::Cmp cmp, const std::string& c) {
  switch (cmp) {
    case kernels::Cmp::kEq:
      // Nulls fail flat ==; only the valid-value range matters.
      return z.has_values && z.min_str <= c && (z.max_unbounded || c <= z.max_str);
    case kernels::Cmp::kNeq:
      // Nulls pass flat !=. Prunable only when every valid cell equals c
      // exactly and there are no nulls.
      if (z.null_count > 0) return true;
      if (!z.has_values) return false;  // zero rows: nothing can match
      if (z.max_unbounded) return true;
      return z.min_str != z.max_str || z.min_str != c;
    default:
      return true;
  }
}

}  // namespace

bool ColumnZone::MayMatch(const Predicate& pred, int32_t dict_code) const {
  if (pred.null_const) return false;  // false on every row, whatever the zone
  switch (kind) {
    case Kind::kNumeric:
      return pred.is_str || NumericMayMatch(*this, pred.cmp, pred.num_const);
    case Kind::kDictCodes:
      return !pred.is_str || DictCodeMayMatch(*this, pred.cmp, dict_code);
    case Kind::kFlatString:
      return !pred.is_str || StringMayMatch(*this, pred.cmp, pred.str_const);
    case Kind::kNone:
      break;
  }
  return true;
}

void ColumnZone::AppendTo(std::string* out) const {
  PutU8(out, static_cast<uint8_t>(kind));
  PutU64(out, null_count);
  PutU32(out, distinct_hint);
  switch (kind) {
    case Kind::kNumeric: {
      uint8_t flags = 0;
      if (has_finite) flags |= 1;
      if (has_nan) flags |= 2;
      PutU8(out, flags);
      PutF64(out, min);
      PutF64(out, max);
      break;
    }
    case Kind::kDictCodes: {
      PutU8(out, codes_complete ? 1 : 0);
      PutU32(out, static_cast<uint32_t>(codes.size()));
      for (int32_t code : codes) PutI32(out, code);
      break;
    }
    case Kind::kFlatString: {
      uint8_t flags = 0;
      if (has_values) flags |= 1;
      if (max_unbounded) flags |= 2;
      PutU8(out, flags);
      PutString(out, min_str);
      PutString(out, max_str);
      break;
    }
    case Kind::kNone:
      break;
  }
}

bool ColumnZone::Parse(std::string_view in, size_t* pos, ColumnZone* z) {
  uint8_t kind_byte;
  if (!GetU8(in, pos, &kind_byte)) return false;
  if (kind_byte > static_cast<uint8_t>(Kind::kFlatString)) return false;
  z->kind = static_cast<Kind>(kind_byte);
  if (!GetU64(in, pos, &z->null_count)) return false;
  if (!GetU32(in, pos, &z->distinct_hint)) return false;
  switch (z->kind) {
    case Kind::kNumeric: {
      uint8_t flags;
      if (!GetU8(in, pos, &flags)) return false;
      z->has_finite = (flags & 1) != 0;
      z->has_nan = (flags & 2) != 0;
      if (!GetF64(in, pos, &z->min)) return false;
      if (!GetF64(in, pos, &z->max)) return false;
      break;
    }
    case Kind::kDictCodes: {
      uint8_t complete;
      if (!GetU8(in, pos, &complete)) return false;
      z->codes_complete = complete != 0;
      uint32_t n;
      if (!GetU32(in, pos, &n)) return false;
      if (n > in.size() - *pos) return false;  // cheap bound before reserve
      z->codes.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (!GetI32(in, pos, &z->codes[i])) return false;
      }
      // Membership uses binary_search; reject unsorted directories rather
      // than silently mis-pruning.
      if (!std::is_sorted(z->codes.begin(), z->codes.end())) return false;
      break;
    }
    case Kind::kFlatString: {
      uint8_t flags;
      if (!GetU8(in, pos, &flags)) return false;
      z->has_values = (flags & 1) != 0;
      z->max_unbounded = (flags & 2) != 0;
      if (!GetString(in, pos, &z->min_str)) return false;
      if (!GetString(in, pos, &z->max_str)) return false;
      break;
    }
    case Kind::kNone:
      break;
  }
  return true;
}

// ---- Morsel zone cache ----

namespace {

struct MorselZoneKey {
  const void* identity;
  size_t offset;
  size_t length;
  size_t num_ranges;
  size_t first_range;

  bool operator==(const MorselZoneKey& o) const {
    return identity == o.identity && offset == o.offset && length == o.length &&
           num_ranges == o.num_ranges && first_range == o.first_range;
  }
};

struct MorselZoneKeyHash {
  size_t operator()(const MorselZoneKey& k) const {
    size_t h = std::hash<const void*>()(k.identity);
    auto mix = [&h](size_t v) { h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2); };
    mix(k.offset);
    mix(k.length);
    mix(k.num_ranges);
    mix(k.first_range);
    return h;
  }
};

struct MorselZoneEntry {
  std::weak_ptr<const void> anchor;  // column storage liveness
  std::shared_ptr<const std::vector<ColumnZone>> zones;
};

constexpr size_t kMorselZoneCacheCap = 1024;

std::mutex g_zone_cache_mu;
std::unordered_map<MorselZoneKey, MorselZoneEntry, MorselZoneKeyHash>
    g_zone_cache;

}  // namespace

std::shared_ptr<const std::vector<ColumnZone>> GetMorselZones(
    const data::Column& col, const std::vector<parallel::Range>& ranges) {
  MorselZoneKey key{col.storage_identity(), col.storage_offset(), col.length(),
                    ranges.size(), ranges.empty() ? 0 : ranges[0].size()};
  {
    std::lock_guard<std::mutex> lock(g_zone_cache_mu);
    auto it = g_zone_cache.find(key);
    if (it != g_zone_cache.end()) {
      // Only trust the entry while the storage that produced it is alive;
      // a dead anchor means the address may have been recycled.
      if (!it->second.anchor.expired()) return it->second.zones;
      g_zone_cache.erase(it);
    }
  }

  auto zones = std::make_shared<std::vector<ColumnZone>>();
  zones->reserve(ranges.size());
  for (const parallel::Range& r : ranges) {
    zones->push_back(ComputeZone(col.Slice(r.begin, r.size())));
  }
  std::shared_ptr<const std::vector<ColumnZone>> result = zones;

  std::lock_guard<std::mutex> lock(g_zone_cache_mu);
  if (g_zone_cache.size() >= kMorselZoneCacheCap) {
    for (auto it = g_zone_cache.begin(); it != g_zone_cache.end();) {
      if (it->second.anchor.expired()) {
        it = g_zone_cache.erase(it);
      } else {
        ++it;
      }
    }
    if (g_zone_cache.size() >= kMorselZoneCacheCap) g_zone_cache.clear();
  }
  g_zone_cache.emplace(key, MorselZoneEntry{col.storage_anchor(), result});
  return result;
}

void ClearMorselZoneCache() {
  std::lock_guard<std::mutex> lock(g_zone_cache_mu);
  g_zone_cache.clear();
}

}  // namespace storage
}  // namespace vegaplus
