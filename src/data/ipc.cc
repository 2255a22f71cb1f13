#include "data/ipc.h"

#include <cmath>
#include <cstring>

#include "common/str_util.h"
#include "json/json_parser.h"
#include "json/json_writer.h"

namespace vegaplus {
namespace data {

namespace {

// Bumped to 2 when string columns gained the per-column encoding tag
// (dictionary vs flat): an old-format payload is rejected cleanly at the
// magic check instead of misparsing the tag byte.
constexpr char kMagic[4] = {'V', 'P', 'T', '2'};

void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

bool GetU32(std::string_view in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 4);
  *pos += 4;
  return true;
}

bool GetU64(std::string_view in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  std::memcpy(v, in.data() + *pos, 8);
  *pos += 8;
  return true;
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool GetString(std::string_view in, size_t* pos, std::string* s) {
  uint32_t len;
  if (!GetU32(in, pos, &len)) return false;
  if (*pos + len > in.size()) return false;
  s->assign(in.data() + *pos, len);
  *pos += len;
  return true;
}

/// The first `n` bits of a packed little-endian bitmap, one byte per bit.
/// Requires bits.size() * 8 >= n.
std::vector<uint8_t> UnpackBits(const std::string& bits, size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t r = 0; r < n; ++r) {
    out[r] = static_cast<uint8_t>((static_cast<uint8_t>(bits[r / 8]) >> (r % 8)) & 1);
  }
  return out;
}

/// The `n` fixed-width values stored at in[pos...], copied in one block.
/// The caller has checked that they lie inside `in`.
template <typename T>
std::vector<T> CopyValues(std::string_view in, size_t pos, size_t n) {
  std::vector<T> out(n);
  if (n > 0) std::memcpy(out.data(), in.data() + pos, n * sizeof(T));
  return out;
}

}  // namespace

json::Value TableToJson(const Table& table) {
  json::Value rows = json::Value::MakeArray();
  rows.array().reserve(table.num_rows());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    json::Value row = json::Value::MakeObject();
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      if (col.IsNull(r)) continue;
      const std::string& name = table.schema().field(c).name;
      switch (col.type()) {
        case DataType::kBool:
          row.Set(name, json::Value(col.BoolAt(r)));
          break;
        case DataType::kInt64:
        case DataType::kTimestamp:
          row.Set(name, json::Value(static_cast<double>(col.IntAt(r))));
          break;
        case DataType::kFloat64:
          row.Set(name, json::Value(col.DoubleAt(r)));
          break;
        case DataType::kString:
          row.Set(name, json::Value(col.StringAt(r)));
          break;
        case DataType::kNull:
          break;
      }
    }
    rows.Append(std::move(row));
  }
  return rows;
}

std::string SerializeJsonRows(const Table& table) {
  return json::Write(TableToJson(table));
}

Result<TablePtr> JsonToTable(const json::Value& rows) {
  if (!rows.is_array()) return Status::TypeError("JsonToTable: expected array");
  // Infer schema: union of keys (in first-seen order); number columns are
  // int64 if all values integral, else float64.
  std::vector<std::string> names;
  std::vector<DataType> types;
  auto find_col = [&](const std::string& name) -> int {
    for (size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  for (const json::Value& row : rows.array()) {
    if (!row.is_object()) return Status::TypeError("JsonToTable: expected row objects");
    for (const auto& [key, cell] : row.members()) {
      int idx = find_col(key);
      DataType t = DataType::kNull;
      switch (cell.type()) {
        case json::Type::kBool: t = DataType::kBool; break;
        case json::Type::kNumber:
          t = (cell.AsDouble() == std::floor(cell.AsDouble()) &&
               std::fabs(cell.AsDouble()) < 9.0e15)
                  ? DataType::kInt64
                  : DataType::kFloat64;
          break;
        case json::Type::kString: t = DataType::kString; break;
        default: t = DataType::kNull; break;
      }
      if (idx < 0) {
        names.push_back(key);
        types.push_back(t);
      } else if (types[static_cast<size_t>(idx)] != t && t != DataType::kNull) {
        DataType& cur = types[static_cast<size_t>(idx)];
        if (cur == DataType::kNull) {
          cur = t;
        } else if ((cur == DataType::kInt64 && t == DataType::kFloat64) ||
                   (cur == DataType::kFloat64 && t == DataType::kInt64)) {
          cur = DataType::kFloat64;
        } else if (cur != t) {
          cur = DataType::kString;
        }
      }
    }
  }
  std::vector<Field> fields;
  fields.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    fields.push_back({names[i], types[i] == DataType::kNull ? DataType::kString : types[i]});
  }
  TableBuilder builder((Schema(fields)));
  builder.Reserve(rows.size());
  for (const json::Value& row : rows.array()) {
    std::vector<Value> values(fields.size(), Value::Null());
    for (const auto& [key, cell] : row.members()) {
      int idx = find_col(key);
      if (idx < 0) continue;
      switch (cell.type()) {
        case json::Type::kBool: values[static_cast<size_t>(idx)] = Value::Bool(cell.AsBool()); break;
        case json::Type::kNumber:
          if (fields[static_cast<size_t>(idx)].type == DataType::kInt64) {
            values[static_cast<size_t>(idx)] = Value::Int(cell.AsInt());
          } else {
            values[static_cast<size_t>(idx)] = Value::Double(cell.AsDouble());
          }
          break;
        case json::Type::kString: values[static_cast<size_t>(idx)] = Value::String(cell.AsString()); break;
        default: break;
      }
    }
    builder.AppendRow(values);
  }
  return builder.Build();
}

Result<TablePtr> DeserializeJsonRows(const std::string& text) {
  VP_ASSIGN_OR_RETURN(json::Value doc, json::Parse(text));
  return JsonToTable(doc);
}

std::string SerializeBinary(const Table& table) {
  std::string out;
  out.append(kMagic, 4);
  PutU32(&out, static_cast<uint32_t>(table.num_columns()));
  PutU64(&out, table.num_rows());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Field& f = table.schema().field(c);
    PutString(&out, f.name);
    out.push_back(static_cast<char>(f.type));
  }
  const size_t n = table.num_rows();
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    // Validity bitmap, packed.
    std::string bitmap((n + 7) / 8, '\0');
    for (size_t r = 0; r < n; ++r) {
      if (!col.IsNull(r)) bitmap[r / 8] |= static_cast<char>(1u << (r % 8));
    }
    PutString(&out, bitmap);
    switch (col.type()) {
      case DataType::kBool: {
        std::string bits((n + 7) / 8, '\0');
        for (size_t r = 0; r < n; ++r) {
          if (!col.IsNull(r) && col.BoolAt(r)) bits[r / 8] |= static_cast<char>(1u << (r % 8));
        }
        PutString(&out, bits);
        break;
      }
      case DataType::kInt64:
      case DataType::kTimestamp: {
        PutU64(&out, n * 8);
        out.append(reinterpret_cast<const char*>(col.ints_data()), n * 8);
        break;
      }
      case DataType::kFloat64: {
        PutU64(&out, n * 8);
        out.append(reinterpret_cast<const char*>(col.doubles_data()), n * 8);
        break;
      }
      case DataType::kString: {
        // One encoding tag per string column: 1 = dictionary (unique strings
        // once + int32 codes per row), 0 = flat (offsets + concatenated
        // bytes). Low-cardinality columns shrink to roughly
        // 4 bytes/row + the dictionary.
        if (col.dict_encoded()) {
          out.push_back(1);
          // Compact to the referenced entries: filtered/sliced results share
          // their source's full dictionary, and shipping unreferenced
          // strings would blow a 10-row response up to the base table's
          // cardinality. Codes are remapped in first-use order.
          const std::vector<std::string>& dict = col.dict().values;
          const int32_t* codes = col.codes_data();
          std::vector<int32_t> new_of_old(dict.size(), -1);
          std::vector<uint32_t> used;  // old codes, in first-use order
          std::vector<int32_t> remapped(n);
          for (size_t r = 0; r < n; ++r) {
            const int32_t c = codes[r];
            if (c < 0) {
              remapped[r] = -1;
              continue;
            }
            int32_t& nc = new_of_old[static_cast<size_t>(c)];
            if (nc < 0) {
              nc = static_cast<int32_t>(used.size());
              used.push_back(static_cast<uint32_t>(c));
            }
            remapped[r] = nc;
          }
          PutU32(&out, static_cast<uint32_t>(used.size()));
          std::string bytes;
          std::vector<uint32_t> offsets;
          offsets.reserve(used.size() + 1);
          offsets.push_back(0);
          for (uint32_t old_code : used) {
            bytes.append(dict[old_code]);
            offsets.push_back(static_cast<uint32_t>(bytes.size()));
          }
          PutU64(&out, offsets.size() * 4);
          out.append(reinterpret_cast<const char*>(offsets.data()),
                     offsets.size() * 4);
          PutString(&out, bytes);
          PutU64(&out, n * 4);
          out.append(reinterpret_cast<const char*>(remapped.data()), n * 4);
          break;
        }
        out.push_back(0);
        std::string bytes;
        std::vector<uint32_t> offsets;
        offsets.reserve(n + 1);
        offsets.push_back(0);
        for (size_t r = 0; r < n; ++r) {
          if (!col.IsNull(r)) bytes.append(col.StringAt(r));
          offsets.push_back(static_cast<uint32_t>(bytes.size()));
        }
        PutU64(&out, offsets.size() * 4);
        out.append(reinterpret_cast<const char*>(offsets.data()), offsets.size() * 4);
        PutString(&out, bytes);
        break;
      }
      case DataType::kNull:
        break;
    }
  }
  return out;
}

Result<TablePtr> DeserializeBinary(std::string_view buffer) {
  size_t pos = 0;
  if (buffer.size() < 4 || std::memcmp(buffer.data(), kMagic, 4) != 0) {
    return Status::ParseError("binary table: bad magic");
  }
  pos = 4;
  uint32_t num_cols;
  uint64_t num_rows;
  if (!GetU32(buffer, &pos, &num_cols) || !GetU64(buffer, &pos, &num_rows)) {
    return Status::ParseError("binary table: truncated header");
  }
  std::vector<Field> fields(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    if (!GetString(buffer, &pos, &fields[c].name) || pos >= buffer.size()) {
      return Status::ParseError("binary table: truncated schema");
    }
    const uint8_t type_byte = static_cast<uint8_t>(buffer[pos++]);
    if (type_byte > static_cast<uint8_t>(DataType::kTimestamp)) {
      return Status::ParseError("binary table: unknown column type");
    }
    fields[c].type = static_cast<DataType>(type_byte);
  }
  const size_t n = static_cast<size_t>(num_rows);
  std::vector<Column> columns;
  columns.reserve(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    // Every column starts with a packed validity bitmap of n bits, so a
    // bitmap that fits in the buffer also bounds n (and n * 8 below).
    std::string bitmap;
    if (!GetString(buffer, &pos, &bitmap) || bitmap.size() * 8 < n) {
      return Status::ParseError("binary table: truncated validity");
    }
    std::vector<uint8_t> validity = UnpackBits(bitmap, n);
    Column col(fields[c].type);
    switch (fields[c].type) {
      case DataType::kBool: {
        std::string bits;
        if (!GetString(buffer, &pos, &bits) || bits.size() * 8 < n) {
          return Status::ParseError("truncated bools");
        }
        const std::vector<uint8_t> set = UnpackBits(bits, n);
        col = Column::FromInts(DataType::kBool,
                               std::vector<int64_t>(set.begin(), set.end()),
                               std::move(validity));
        break;
      }
      case DataType::kInt64:
      case DataType::kTimestamp: {
        uint64_t len;
        if (!GetU64(buffer, &pos, &len) || pos + len > buffer.size() || len != n * 8) {
          return Status::ParseError("truncated ints");
        }
        col = Column::FromInts(fields[c].type, CopyValues<int64_t>(buffer, pos, n),
                               std::move(validity));
        pos += len;
        break;
      }
      case DataType::kFloat64: {
        uint64_t len;
        if (!GetU64(buffer, &pos, &len) || pos + len > buffer.size() || len != n * 8) {
          return Status::ParseError("truncated doubles");
        }
        col = Column::FromDoubles(CopyValues<double>(buffer, pos, n),
                                  std::move(validity));
        pos += len;
        break;
      }
      case DataType::kString: {
        if (pos >= buffer.size()) return Status::ParseError("truncated encoding tag");
        const uint8_t encoding = static_cast<uint8_t>(buffer[pos++]);
        if (encoding == 1) {
          // Dictionary form: unique strings, then int32 codes per row. The
          // column is reconstructed dictionary-encoded regardless of the
          // kill switch (the payload dictates the physical form).
          uint32_t dict_size;
          if (!GetU32(buffer, &pos, &dict_size)) {
            return Status::ParseError("truncated dictionary size");
          }
          uint64_t len;
          if (!GetU64(buffer, &pos, &len) || pos + len > buffer.size() ||
              len != (static_cast<uint64_t>(dict_size) + 1) * 4) {
            return Status::ParseError("truncated dictionary offsets");
          }
          const std::vector<uint32_t> offsets =
              CopyValues<uint32_t>(buffer, pos, dict_size + size_t{1});
          pos += len;
          std::string bytes;
          if (!GetString(buffer, &pos, &bytes)) {
            return Status::ParseError("truncated dictionary bytes");
          }
          auto dict = std::make_shared<StringDictionary>();
          dict->values.reserve(dict_size);
          for (uint32_t d = 0; d < dict_size; ++d) {
            if (offsets[d] > offsets[d + 1] || offsets[d + 1] > bytes.size()) {
              return Status::ParseError("bad dictionary offsets");
            }
            dict->Intern(bytes.substr(offsets[d], offsets[d + 1] - offsets[d]));
          }
          if (dict->values.size() != dict_size) {
            return Status::ParseError("duplicate dictionary entries");
          }
          if (!GetU64(buffer, &pos, &len) || pos + len > buffer.size() ||
              len != n * 4) {
            return Status::ParseError("truncated codes");
          }
          std::vector<int32_t> codes = CopyValues<int32_t>(buffer, pos, n);
          pos += len;
          for (size_t r = 0; r < n; ++r) {
            if ((validity[r] != 0) != (codes[r] >= 0) ||
                codes[r] >= static_cast<int32_t>(dict_size)) {
              return Status::ParseError("code/validity mismatch");
            }
          }
          col = Column::FromDictionary(std::move(dict), std::move(codes));
          break;
        }
        if (encoding != 0) return Status::ParseError("unknown string encoding");
        uint64_t len;
        if (!GetU64(buffer, &pos, &len) || pos + len > buffer.size() ||
            len != (n + 1) * 4) {
          return Status::ParseError("truncated offsets");
        }
        const std::vector<uint32_t> offsets = CopyValues<uint32_t>(buffer, pos, n + 1);
        pos += len;
        std::string bytes;
        if (!GetString(buffer, &pos, &bytes)) return Status::ParseError("truncated strings");
        // Rebuild flat (the payload dictates the form, not the switch).
        std::vector<std::string> values(n);
        for (size_t r = 0; r < n; ++r) {
          if (validity[r]) {
            values[r].assign(bytes, offsets[r], offsets[r + 1] - offsets[r]);
          }
        }
        col = Column::FromStrings(std::move(values), std::move(validity));
        break;
      }
      case DataType::kNull: {
        col.Reserve(n);
        for (size_t r = 0; r < n; ++r) col.AppendNull();
        break;
      }
    }
    columns.push_back(std::move(col));
  }
  return TablePtr(std::make_shared<Table>(Schema(std::move(fields)), std::move(columns)));
}

std::string SerializeEnvelope(const std::string& kind, const std::string& meta,
                              const Table& table) {
  std::string out;
  out.append("VPE1", 4);
  PutString(&out, kind);
  PutString(&out, meta);
  std::string body = SerializeBinary(table);
  PutU64(&out, body.size());
  out.append(body);
  return out;
}

Result<Envelope> DeserializeEnvelope(std::string_view buffer) {
  if (buffer.size() < 4 || buffer.compare(0, 4, "VPE1") != 0) {
    return Status::InvalidArgument("ipc: bad envelope magic");
  }
  size_t pos = 4;
  Envelope env;
  if (!GetString(buffer, &pos, &env.kind) ||
      !GetString(buffer, &pos, &env.meta)) {
    return Status::InvalidArgument("ipc: truncated envelope header");
  }
  uint64_t body_size;
  if (!GetU64(buffer, &pos, &body_size) || pos + body_size > buffer.size()) {
    return Status::InvalidArgument("ipc: truncated envelope body");
  }
  VP_ASSIGN_OR_RETURN(env.table, DeserializeBinary(buffer.substr(pos, body_size)));
  return env;
}

}  // namespace data
}  // namespace vegaplus
