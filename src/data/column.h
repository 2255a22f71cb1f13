// Column: typed, nullable, append-only storage. Numeric types are stored in
// native vectors (no boxing); Value is only materialized at cell access.
//
// Storage is held behind a shared_ptr so columns can be copied and sliced
// without duplicating cell data: Slice() returns a view (offset + length)
// over the same buffers, and plain Column copies share storage until one
// side mutates (copy-on-write on the first Append after sharing).
//
// String columns come in two physical forms with identical observable
// behavior:
//   - flat: std::vector<std::string>, one string per row.
//   - dictionary-encoded (the default for new columns while
//     DictionaryEncodingEnabled()): a shared StringDictionary of unique
//     strings plus one int32 code per row (-1 = null). Grouping,
//     equality filtering, and sorting on dictionary columns run at
//     integer speed, and IPC payloads shrink for low-cardinality data.
// Take/Slice/copies share the dictionary; appending a string that is not
// yet in a shared dictionary clones it first (copy-on-write), so sibling
// columns and outstanding readers are never invalidated.
#ifndef VEGAPLUS_DATA_COLUMN_H_
#define VEGAPLUS_DATA_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "data/data_type.h"
#include "data/value.h"

namespace vegaplus {
namespace data {

/// Global kill switch (default on): when off, newly built string columns use
/// the flat representation. Existing columns keep whatever form they have —
/// execution paths branch on the column, not the switch — so differential
/// tests can compare dictionary and flat pipelines end to end.
///
/// Deprecated as a public configuration surface: prefer
/// runtime::EngineConfig (runtime/engine_config.h), which snapshots and
/// applies every process-wide switch coherently. This pair remains the
/// storage owner.
bool DictionaryEncodingEnabled();
void SetDictionaryEncodingEnabled(bool enabled);

/// \brief Unique-string dictionary shared by dictionary-encoded columns and
/// the expression engine's code-backed registers. Codes index `values`;
/// `index` maps each value back to its code for incremental appends.
/// Dictionaries are effectively immutable once shared (columns clone before
/// adding a new unique string to a shared dictionary).
struct StringDictionary {
  std::vector<std::string> values;
  std::unordered_map<std::string, int32_t> index;

  /// Code of `s`, or -1 when absent.
  int32_t Find(const std::string& s) const {
    auto it = index.find(s);
    return it == index.end() ? -1 : it->second;
  }

  /// Code of `s`, adding it when absent. Callers own the sharing rules
  /// (clone-before-mutate when the dictionary is shared — see
  /// Column::DictCode).
  int32_t Intern(std::string s) {
    auto it = index.find(s);
    if (it != index.end()) return it->second;
    const int32_t code = static_cast<int32_t>(values.size());
    index.emplace(s, code);
    values.push_back(std::move(s));
    return code;
  }
};

/// Shared read-only view of a dictionary; keeps it alive independently of
/// the owning column.
using DictPtr = std::shared_ptr<const StringDictionary>;

/// \brief A single column of a Table.
class Column {
 public:
  explicit Column(DataType type = DataType::kNull)
      : type_(type), store_(std::make_shared<Storage>()) {}

  /// Bulk construction: adopt `values` as a kFloat64 column. `validity` uses
  /// 1 = present / 0 = null and must be empty (all valid) or values-sized.
  static Column FromDoubles(std::vector<double> values,
                            std::vector<uint8_t> validity);

  /// Bulk construction of an integer-backed column: `type` is kInt64,
  /// kTimestamp or kBool (values 0/1). `validity` as in FromDoubles.
  static Column FromInts(DataType type, std::vector<int64_t> values,
                         std::vector<uint8_t> validity);

  /// Bulk construction of a flat kString column (used by deserialization and
  /// DecodeFlat so the flat form survives regardless of the kill switch).
  /// `validity` as in FromDoubles; null cells keep empty strings.
  static Column FromStrings(std::vector<std::string> values,
                            std::vector<uint8_t> validity);

  /// Bulk construction of a dictionary-encoded kString column: `codes[i]`
  /// indexes `dict->values`, -1 = null. The dictionary is shared, not
  /// copied. Codes must be in [-1, dict->values.size()).
  static Column FromDictionary(DictPtr dict, std::vector<int32_t> codes);

  DataType type() const { return type_; }
  size_t length() const { return length_; }

  bool IsNull(size_t i) const { return store_->validity[offset_ + i] == 0; }
  size_t null_count() const { return null_count_; }

  // Typed accessors; caller must ensure the type matches and !IsNull(i).
  bool BoolAt(size_t i) const { return store_->ints[offset_ + i] != 0; }
  int64_t IntAt(size_t i) const { return store_->ints[offset_ + i]; }
  double DoubleAt(size_t i) const { return store_->doubles[offset_ + i]; }
  const std::string& StringAt(size_t i) const {
    const Storage& s = *store_;
    if (s.dict == nullptr) return s.strings[offset_ + i];
    const int32_t code = s.codes[offset_ + i];
    // Null cells resolve to the empty string, exactly like the flat form's
    // normalized storage (callers should gate on IsNull, but unguarded
    // iteration must not become out-of-bounds on codes of -1).
    if (code < 0) {
      static const std::string kEmpty;
      return kEmpty;
    }
    return s.dict->values[static_cast<size_t>(code)];
  }

  // ---- Dictionary form ----

  /// True when this kString column stores dictionary codes.
  bool dict_encoded() const { return store_->dict != nullptr; }
  /// The dictionary (dict_encoded() only).
  const StringDictionary& dict() const { return *store_->dict; }
  /// Shared handle to the dictionary (dict_encoded() only); two columns
  /// share a dictionary iff their handles compare equal.
  DictPtr dict_shared() const { return store_->dict; }
  /// Slice-aware code pointer covering length() entries (dict_encoded()
  /// only); -1 = null.
  const int32_t* codes_data() const { return store_->codes.data() + offset_; }

  /// Dictionary-encoded copy of a kString column (shares storage when
  /// already encoded; non-string columns copy unchanged).
  Column EncodeDictionary() const;
  /// Flat copy of a kString column (shares storage when already flat;
  /// non-string columns copy unchanged).
  Column DecodeFlat() const;

  /// Numeric view of cell i (int/timestamp/bool widen to double); NaN if null
  /// or non-numeric.
  double NumericAt(size_t i) const;

  /// Boxed cell access (null-aware).
  Value ValueAt(size_t i) const;

  /// Append a value, coercing numerics (int<->double) as needed. Appending an
  /// incompatible value (e.g. string into int64) appends null.
  void Append(const Value& v);
  void AppendNull();

  // Fast-path appends (type must match the column type).
  void AppendBool(bool v);
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);

  void Reserve(size_t n);

  /// Gather: new column containing rows [indices] in order.
  Column Take(const std::vector<int32_t>& indices) const;

  /// Zero-copy view of rows [offset, offset + len); shares cell storage with
  /// this column. `offset`/`len` are clamped to the column length.
  Column Slice(size_t offset, size_t len) const;

  // Raw storage access for serialization and vectorized execution. Pointers
  // are slice-aware (already offset) and cover length() entries; they stay
  // valid while any column sharing the storage is alive. strings_data() is
  // only meaningful for flat string columns (see dict_encoded()).
  const int64_t* ints_data() const { return store_->ints.data() + offset_; }
  const double* doubles_data() const { return store_->doubles.data() + offset_; }
  const std::string* strings_data() const {
    VP_DCHECK(!dict_encoded()) << "strings_data() on a dictionary column";
    return store_->strings.data() + offset_;
  }
  const uint8_t* validity_data() const { return store_->validity.data() + offset_; }

  // Shared views of whole storage buffers, used by the expression engine to
  // alias column data into registers without copying. Non-null only when
  // this column spans its entire storage (offset 0, full length); callers
  // fall back to copying otherwise. The aliases participate in the storage
  // refcount, so copy-on-write keeps them stable across later appends.
  std::shared_ptr<std::vector<double>> shared_doubles() const;
  std::shared_ptr<std::vector<uint8_t>> shared_validity() const;
  std::shared_ptr<std::vector<int32_t>> shared_codes() const;

  // Storage identity, used by caches (storage::GetMorselZones) to key derived
  // metadata. Storage is append-only: cells [0, length) are never overwritten
  // while the same Storage object lives, so (identity, offset, length)
  // uniquely determines cell contents. Hold the anchor weakly so a recycled
  // allocation at the same address cannot alias a stale cache entry.
  const void* storage_identity() const { return store_.get(); }
  std::shared_ptr<const void> storage_anchor() const { return store_; }
  size_t storage_offset() const { return offset_; }

 private:
  struct Storage {
    std::vector<uint8_t> validity;  // 1 = present, 0 = null
    // Exactly one of these is populated, chosen by the column type.
    std::vector<int64_t> ints;          // kBool, kInt64, kTimestamp, kNull
    std::vector<double> doubles;        // kFloat64
    std::vector<std::string> strings;   // kString, flat form
    // kString, dictionary form: dict != nullptr, one code per row.
    std::shared_ptr<StringDictionary> dict;
    std::vector<int32_t> codes;
  };

  /// Make the storage exclusively owned and un-sliced before a mutation.
  void EnsureMutable();

  /// Code for `v` in this column's dictionary, adding it (with dictionary
  /// copy-on-write) when absent. Requires exclusive storage.
  int32_t DictCode(std::string v);

  /// True when storage spans exactly this column's rows (no slice offset).
  bool FullRange() const {
    return offset_ == 0 && length_ == store_->validity.size();
  }

  DataType type_;
  std::shared_ptr<Storage> store_;
  size_t offset_ = 0;
  size_t length_ = 0;
  size_t null_count_ = 0;
};

}  // namespace data
}  // namespace vegaplus

#endif  // VEGAPLUS_DATA_COLUMN_H_
