#include "data/column.h"

#include "expr/kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>

namespace vegaplus {
namespace data {

namespace {

std::atomic<bool> g_dict_encoding_enabled{true};

}  // namespace

bool DictionaryEncodingEnabled() {
  return g_dict_encoding_enabled.load(std::memory_order_relaxed);
}

void SetDictionaryEncodingEnabled(bool enabled) {
  g_dict_encoding_enabled.store(enabled, std::memory_order_relaxed);
}

double Column::NumericAt(size_t i) const {
  if (IsNull(i)) return std::nan("");
  switch (type_) {
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kTimestamp:
      return static_cast<double>(store_->ints[offset_ + i]);
    case DataType::kFloat64:
      return store_->doubles[offset_ + i];
    default:
      return std::nan("");
  }
}

Value Column::ValueAt(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case DataType::kNull: return Value::Null();
    case DataType::kBool: return Value::Bool(store_->ints[offset_ + i] != 0);
    case DataType::kInt64: return Value::Int(store_->ints[offset_ + i]);
    case DataType::kTimestamp: return Value::Timestamp(store_->ints[offset_ + i]);
    case DataType::kFloat64: return Value::Double(store_->doubles[offset_ + i]);
    case DataType::kString: return Value::String(StringAt(i));
  }
  return Value::Null();
}

void Column::EnsureMutable() {
  if (store_.use_count() == 1 && offset_ == 0 &&
      length_ == store_->validity.size()) {
    return;
  }
  auto fresh = std::make_shared<Storage>();
  const size_t begin = offset_;
  const size_t end = offset_ + length_;
  fresh->validity.assign(store_->validity.begin() + begin,
                         store_->validity.begin() + end);
  if (!store_->ints.empty()) {
    fresh->ints.assign(store_->ints.begin() + begin, store_->ints.begin() + end);
  }
  if (!store_->doubles.empty()) {
    fresh->doubles.assign(store_->doubles.begin() + begin,
                          store_->doubles.begin() + end);
  }
  if (!store_->strings.empty()) {
    fresh->strings.assign(store_->strings.begin() + begin,
                          store_->strings.begin() + end);
  }
  if (store_->dict != nullptr) {
    // Codes copy per column; the dictionary itself stays shared (appends of
    // new unique strings clone it first, see DictCode).
    fresh->dict = store_->dict;
    fresh->codes.assign(store_->codes.begin() + begin,
                        store_->codes.begin() + end);
  }
  store_ = std::move(fresh);
  offset_ = 0;
}

int32_t Column::DictCode(std::string v) {
  std::shared_ptr<StringDictionary>& dict = store_->dict;
  const int32_t found = dict->Find(v);
  if (found >= 0) return found;
  if (dict.use_count() > 1) {
    // The dictionary is shared with sibling columns (Take/Slice results) or
    // live registers; clone before adding so their view never changes.
    dict = std::make_shared<StringDictionary>(*dict);
  }
  return dict->Intern(std::move(v));
}

void Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kBool:
      if (v.is_bool() || v.is_numeric()) {
        AppendBool(v.AsDouble() != 0.0);
      } else {
        AppendNull();
      }
      return;
    case DataType::kInt64:
    case DataType::kTimestamp:
      if (v.is_numeric() || v.is_bool()) {
        AppendInt(static_cast<int64_t>(v.AsDouble()));
      } else {
        AppendNull();
      }
      return;
    case DataType::kFloat64:
      if (v.is_numeric() || v.is_bool()) {
        AppendDouble(v.AsDouble());
      } else {
        AppendNull();
      }
      return;
    case DataType::kString:
      if (v.is_string()) {
        AppendString(v.AsString());
      } else {
        AppendString(v.ToString());
      }
      return;
    case DataType::kNull:
      AppendNull();
      return;
  }
}

void Column::AppendNull() {
  EnsureMutable();
  store_->validity.push_back(0);
  ++null_count_;
  ++length_;
  switch (type_) {
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kTimestamp:
      store_->ints.push_back(0);
      break;
    case DataType::kFloat64:
      store_->doubles.push_back(0.0);
      break;
    case DataType::kString:
      // An empty string column commits to a form at its first append.
      if (store_->dict == nullptr && length_ == 1 && DictionaryEncodingEnabled()) {
        store_->dict = std::make_shared<StringDictionary>();
      }
      if (store_->dict != nullptr) {
        store_->codes.push_back(-1);
      } else {
        store_->strings.emplace_back();
      }
      break;
    case DataType::kNull:
      store_->ints.push_back(0);
      break;
  }
}

void Column::AppendBool(bool v) {
  VP_DCHECK(type_ == DataType::kBool);
  EnsureMutable();
  store_->validity.push_back(1);
  store_->ints.push_back(v ? 1 : 0);
  ++length_;
}

void Column::AppendInt(int64_t v) {
  VP_DCHECK(type_ == DataType::kInt64 || type_ == DataType::kTimestamp);
  EnsureMutable();
  store_->validity.push_back(1);
  store_->ints.push_back(v);
  ++length_;
}

void Column::AppendDouble(double v) {
  VP_DCHECK(type_ == DataType::kFloat64);
  EnsureMutable();
  store_->validity.push_back(1);
  store_->doubles.push_back(v);
  ++length_;
}

void Column::AppendString(std::string v) {
  VP_DCHECK(type_ == DataType::kString);
  EnsureMutable();
  store_->validity.push_back(1);
  ++length_;
  // An empty string column commits to a form at its first append.
  if (store_->dict == nullptr && length_ == 1 && DictionaryEncodingEnabled()) {
    store_->dict = std::make_shared<StringDictionary>();
  }
  if (store_->dict != nullptr) {
    store_->codes.push_back(DictCode(std::move(v)));
  } else {
    store_->strings.push_back(std::move(v));
  }
}

void Column::Reserve(size_t n) {
  EnsureMutable();
  store_->validity.reserve(n);
  switch (type_) {
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kNull:
      store_->ints.reserve(n);
      break;
    case DataType::kFloat64:
      store_->doubles.reserve(n);
      break;
    case DataType::kString:
      if (store_->dict != nullptr ||
          (length_ == 0 && DictionaryEncodingEnabled())) {
        store_->codes.reserve(n);
      } else {
        store_->strings.reserve(n);
      }
      break;
  }
}

namespace {

/// Adopts `validity` (1 = present; empty = all valid) for `values`, resetting
/// the values under null cells to what AppendNull stores (0, empty string).
/// Returns the null count.
template <typename T>
size_t AdoptValidity(std::vector<T>* values, std::vector<uint8_t> validity,
                     std::vector<uint8_t>* out) {
  VP_CHECK(validity.empty() || validity.size() == values->size())
      << "validity/values length mismatch";
  if (validity.empty()) {
    out->assign(values->size(), 1);
    return 0;
  }
  size_t nulls = 0;
  for (size_t i = 0; i < validity.size(); ++i) {
    if (validity[i] == 0) {
      ++nulls;
      (*values)[i] = T();
    } else {
      validity[i] = 1;
    }
  }
  *out = std::move(validity);
  return nulls;
}

}  // namespace

Column Column::FromDoubles(std::vector<double> values,
                           std::vector<uint8_t> validity) {
  Column out(DataType::kFloat64);
  Storage& s = *out.store_;
  out.length_ = values.size();
  out.null_count_ = AdoptValidity(&values, std::move(validity), &s.validity);
  s.doubles = std::move(values);
  return out;
}

Column Column::FromInts(DataType type, std::vector<int64_t> values,
                        std::vector<uint8_t> validity) {
  VP_CHECK(type == DataType::kInt64 || type == DataType::kTimestamp ||
           type == DataType::kBool)
      << "FromInts: not an integer-backed type";
  Column out(type);
  Storage& s = *out.store_;
  out.length_ = values.size();
  out.null_count_ = AdoptValidity(&values, std::move(validity), &s.validity);
  s.ints = std::move(values);
  return out;
}

Column Column::FromStrings(std::vector<std::string> values,
                           std::vector<uint8_t> validity) {
  Column out(DataType::kString);
  Storage& s = *out.store_;
  out.length_ = values.size();
  out.null_count_ = AdoptValidity(&values, std::move(validity), &s.validity);
  s.strings = std::move(values);
  return out;
}

Column Column::FromDictionary(DictPtr dict, std::vector<int32_t> codes) {
  VP_CHECK(dict != nullptr) << "FromDictionary: null dictionary";
  Column out(DataType::kString);
  Storage& s = *out.store_;
  out.length_ = codes.size();
  s.validity.resize(codes.size());
  size_t nulls = 0;
  for (size_t i = 0; i < codes.size(); ++i) {
    VP_DCHECK(codes[i] >= -1 &&
              codes[i] < static_cast<int32_t>(dict->values.size()))
        << "FromDictionary: code out of range";
    const bool valid = codes[i] >= 0;
    s.validity[i] = valid ? 1 : 0;
    nulls += valid ? 0 : 1;
  }
  out.null_count_ = nulls;
  // Dictionaries are created mutable by columns and only ever mutated under
  // the copy-on-write rule in DictCode, so adopting a shared const view is
  // safe: any later new-string append sees use_count > 1 and clones.
  s.dict = std::const_pointer_cast<StringDictionary>(std::move(dict));
  s.codes = std::move(codes);
  return out;
}

Column Column::EncodeDictionary() const {
  if (type_ != DataType::kString || dict_encoded()) return *this;
  auto dict = std::make_shared<StringDictionary>();
  std::vector<int32_t> codes(length_);
  const std::string* src = store_->strings.data() + offset_;
  const uint8_t* valid = store_->validity.data() + offset_;
  for (size_t i = 0; i < length_; ++i) {
    codes[i] = valid[i] == 0 ? -1 : dict->Intern(src[i]);
  }
  return FromDictionary(std::move(dict), std::move(codes));
}

Column Column::DecodeFlat() const {
  if (type_ != DataType::kString || !dict_encoded()) return *this;
  std::vector<std::string> values(length_);
  std::vector<uint8_t> validity(length_);
  const int32_t* codes = codes_data();
  const std::vector<std::string>& dict = store_->dict->values;
  for (size_t i = 0; i < length_; ++i) {
    if (codes[i] >= 0) {
      values[i] = dict[static_cast<size_t>(codes[i])];
      validity[i] = 1;
    }
  }
  return FromStrings(std::move(values), std::move(validity));
}

Column Column::Take(const std::vector<int32_t>& indices) const {
  // Bulk gather straight against the storage arrays: no per-element
  // mutability checks or appends on this hot path.
  Column out(type_);
  Storage& s = *out.store_;
  const size_t m = indices.size();
  out.length_ = m;
  s.validity.resize(m);
  const uint8_t* valid = store_->validity.data() + offset_;
  out.null_count_ =
      kernels::GatherValidity(valid, indices.data(), m, s.validity.data());
  switch (type_) {
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kTimestamp:
    case DataType::kNull: {
      s.ints.resize(m);
      kernels::GatherInt64(store_->ints.data() + offset_, indices.data(),
                                 m, s.ints.data());
      break;
    }
    case DataType::kFloat64: {
      s.doubles.resize(m);
      kernels::GatherDoubles(store_->doubles.data() + offset_,
                                   indices.data(), m, s.doubles.data());
      break;
    }
    case DataType::kString: {
      if (store_->dict != nullptr) {
        // Integer gather + shared dictionary: no strings touched at all.
        s.dict = store_->dict;
        s.codes.resize(m);
        kernels::GatherCodes(store_->codes.data() + offset_,
                                   indices.data(), m, s.codes.data());
        break;
      }
      s.strings.resize(m);
      const std::string* src = store_->strings.data() + offset_;
      for (size_t j = 0; j < m; ++j) {
        if (s.validity[j]) s.strings[j] = src[static_cast<size_t>(indices[j])];
      }
      break;
    }
  }
  return out;
}

Column Column::Slice(size_t offset, size_t len) const {
  offset = std::min(offset, length_);
  len = std::min(len, length_ - offset);
  Column out(type_);
  out.store_ = store_;
  out.offset_ = offset_ + offset;
  out.length_ = len;
  size_t nulls = 0;
  if (null_count_ > 0) {
    const uint8_t* valid = store_->validity.data() + out.offset_;
    for (size_t i = 0; i < len; ++i) nulls += valid[i] == 0;
  }
  out.null_count_ = nulls;
  return out;
}

std::shared_ptr<std::vector<double>> Column::shared_doubles() const {
  if (!FullRange() || store_->doubles.size() != length_) return nullptr;
  return std::shared_ptr<std::vector<double>>(store_, &store_->doubles);
}

std::shared_ptr<std::vector<uint8_t>> Column::shared_validity() const {
  if (!FullRange()) return nullptr;
  return std::shared_ptr<std::vector<uint8_t>>(store_, &store_->validity);
}

std::shared_ptr<std::vector<int32_t>> Column::shared_codes() const {
  if (!FullRange() || store_->codes.size() != length_) return nullptr;
  return std::shared_ptr<std::vector<int32_t>>(store_, &store_->codes);
}

}  // namespace data
}  // namespace vegaplus
