#include "storage/column_file.h"

#include <cstring>
#include <fstream>
#include <string_view>
#include <utility>

#include "data/ipc.h"
#include "storage/format.h"
#include "storage/table_shard.h"

#if defined(__unix__) || defined(__APPLE__)
#define VEGAPLUS_STORAGE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace vegaplus {
namespace storage {

namespace {

using format::GetString;
using format::GetU32;
using format::GetU64;
using format::GetU8;

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::IOError("storage: " + path + ": " + what);
}

// Upper bounds that make header parsing robust against garbage sizes: a
// directory entry is >= 45 bytes and a dictionary entry >= 4, so any real
// count is bounded by the file size anyway; these just fail fast.
constexpr uint64_t kMaxCols = 1u << 16;
constexpr uint64_t kMaxChunks = 1u << 28;
constexpr uint64_t kMaxDictEntries = 1u << 28;

}  // namespace

Result<std::shared_ptr<ColumnFile>> ColumnFile::Open(const std::string& path) {
  std::shared_ptr<ColumnFile> file(new ColumnFile());
  file->path_ = path;

#if VEGAPLUS_STORAGE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("storage: cannot open " + path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return Status::IOError("storage: cannot stat " + path);
  }
  file->size_ = static_cast<size_t>(st.st_size);
  if (file->size_ > 0) {
    void* base = ::mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      return Status::IOError("storage: mmap failed for " + path);
    }
    file->map_base_ = base;
    file->data_ = static_cast<const char*>(base);
  }
  ::close(fd);
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("storage: cannot open " + path);
  }
  file->heap_buffer_.assign(std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IOError("storage: cannot read " + path);
  }
  file->data_ = file->heap_buffer_.data();
  file->size_ = file->heap_buffer_.size();
#endif

  VP_RETURN_IF_ERROR(file->ParseAndValidate());
  return file;
}

ColumnFile::~ColumnFile() {
#if VEGAPLUS_STORAGE_HAVE_MMAP
  if (map_base_ != nullptr) {
    ::munmap(map_base_, size_);
  }
#endif
}

Status ColumnFile::ParseAndValidate() {
  const std::string_view buf(data_, size_);
  if (buf.size() < sizeof(kShardMagic) + 4 ||
      std::memcmp(buf.data(), kShardMagic, sizeof(kShardMagic)) != 0) {
    return Corrupt(path_, "bad shard magic");
  }
  size_t pos = sizeof(kShardMagic);
  uint32_t version;
  if (!GetU32(buf, &pos, &version)) return Corrupt(path_, "truncated header");
  if (version != kShardVersion) {
    return Corrupt(path_, "unsupported shard version " + std::to_string(version));
  }
  if (!GetString(buf, &pos, &kind_) || !GetString(buf, &pos, &meta_)) {
    return Corrupt(path_, "truncated header");
  }
  uint32_t num_cols;
  if (!GetU32(buf, &pos, &num_cols)) return Corrupt(path_, "truncated header");
  if (num_cols > kMaxCols) return Corrupt(path_, "implausible column count");
  std::vector<data::Field> fields;
  fields.reserve(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    data::Field f;
    uint8_t type_byte;
    if (!GetString(buf, &pos, &f.name) || !GetU8(buf, &pos, &type_byte)) {
      return Corrupt(path_, "truncated schema");
    }
    if (type_byte > static_cast<uint8_t>(data::DataType::kTimestamp)) {
      return Corrupt(path_, "unknown column type");
    }
    f.type = static_cast<data::DataType>(type_byte);
    fields.push_back(std::move(f));
  }
  schema_ = data::Schema(std::move(fields));

  uint64_t num_chunks;
  if (!GetU64(buf, &pos, &total_rows_) || !GetU64(buf, &pos, &chunk_rows_) ||
      !GetU64(buf, &pos, &num_chunks)) {
    return Corrupt(path_, "truncated header");
  }
  if (chunk_rows_ == 0 && num_chunks > 0) {
    return Corrupt(path_, "zero chunk_rows with chunks present");
  }
  if (num_chunks > kMaxChunks) return Corrupt(path_, "implausible chunk count");

  dicts_.assign(num_cols, nullptr);
  for (uint32_t c = 0; c < num_cols; ++c) {
    uint8_t has_dict;
    if (!GetU8(buf, &pos, &has_dict)) return Corrupt(path_, "truncated dict page");
    if (!has_dict) continue;
    uint32_t entries;
    if (!GetU32(buf, &pos, &entries)) return Corrupt(path_, "truncated dict page");
    if (entries > kMaxDictEntries) {
      return Corrupt(path_, "implausible dictionary size");
    }
    auto dict = std::make_shared<data::StringDictionary>();
    dict->values.reserve(entries);
    for (uint32_t i = 0; i < entries; ++i) {
      std::string v;
      if (!GetString(buf, &pos, &v)) return Corrupt(path_, "truncated dict page");
      dict->Intern(std::move(v));
    }
    if (dict->values.size() != entries) {
      return Corrupt(path_, "duplicate entries in dictionary page");
    }
    dicts_[c] = std::move(dict);
  }

  uint64_t dir_size;
  if (!GetU64(buf, &pos, &dir_size)) return Corrupt(path_, "truncated directory");
  if (dir_size > buf.size() - pos) return Corrupt(path_, "directory overruns file");
  const size_t dir_end = pos + dir_size;

  chunks_.reserve(num_chunks);
  zones_.reserve(num_chunks * num_cols);
  uint64_t rows_seen = 0;
  for (uint64_t i = 0; i < num_chunks; ++i) {
    ChunkInfo ci;
    if (pos + 4 * 8 > dir_end ||
        !GetU64(buf, &pos, &ci.row_begin) || !GetU64(buf, &pos, &ci.rows) ||
        !GetU64(buf, &pos, &ci.payload_off) ||
        !GetU64(buf, &pos, &ci.payload_size)) {
      return Corrupt(path_, "truncated chunk directory");
    }
    if (ci.row_begin != rows_seen) {
      return Corrupt(path_, "non-contiguous chunk rows");
    }
    rows_seen += ci.rows;
    if (ci.payload_off > buf.size() ||
        ci.payload_size > buf.size() - ci.payload_off ||
        ci.payload_off < dir_end) {
      return Corrupt(path_, "chunk payload overruns file");
    }
    for (uint32_t c = 0; c < num_cols; ++c) {
      ColumnZone z;
      if (!ColumnZone::Parse(buf, &pos, &z) || pos > dir_end) {
        return Corrupt(path_, "corrupt zone map");
      }
      // Dictionary zones hold codes of the column's dictionary page.
      if (z.kind == ColumnZone::Kind::kDictCodes && dicts_[c] == nullptr) {
        return Corrupt(path_, "dictionary zone without a dictionary page");
      }
      zones_.push_back(std::move(z));
    }
    chunks_.push_back(ci);
  }
  if (pos != dir_end) return Corrupt(path_, "directory size mismatch");
  if (rows_seen != total_rows_) {
    return Corrupt(path_, "chunk rows do not sum to total_rows");
  }
  return Status::OK();
}

Result<data::TablePtr> ColumnFile::DecodeChunk(size_t i) const {
  if (i >= chunks_.size()) {
    return Status::OutOfRange("storage: chunk index out of range");
  }
  const ChunkInfo& ci = chunks_[i];
  const std::string_view payload(data_ + ci.payload_off, ci.payload_size);
  auto env = data::DeserializeEnvelope(payload);
  if (!env.ok()) {
    return Corrupt(path_, "chunk " + std::to_string(i) +
                              " payload: " + env.status().message());
  }
  data::TablePtr chunk = env->table;
  if (chunk->num_rows() != ci.rows || !(chunk->schema() == schema_)) {
    return Corrupt(path_, "chunk " + std::to_string(i) +
                              " shape disagrees with directory");
  }

  // Remap chunk-local compacted dictionaries onto the shared file pages so
  // all chunks of a column compare codes in the same space.
  bool needs_rebuild = false;
  std::vector<data::Column> columns;
  columns.reserve(chunk->num_columns());
  for (size_t c = 0; c < chunk->num_columns(); ++c) {
    const data::Column& col = chunk->column(c);
    const data::DictPtr& file_dict = dicts_[c];
    if (file_dict == nullptr || col.type() != data::DataType::kString) {
      columns.push_back(col);
      continue;
    }
    std::vector<int32_t> codes(col.length());
    if (col.dict_encoded()) {
      // Translate via a per-entry map: chunk dictionaries are small
      // (compacted to referenced entries).
      const auto& chunk_values = col.dict().values;
      std::vector<int32_t> remap(chunk_values.size());
      for (size_t k = 0; k < chunk_values.size(); ++k) {
        remap[k] = file_dict->Find(chunk_values[k]);
        if (remap[k] < 0) {
          return Corrupt(path_, "chunk dictionary value missing from page");
        }
      }
      const int32_t* in_codes = col.codes_data();
      for (size_t r = 0; r < col.length(); ++r) {
        const int32_t code = in_codes[r];
        if (code < 0) {
          codes[r] = -1;
        } else if (static_cast<size_t>(code) < remap.size()) {
          codes[r] = remap[code];
        } else {
          return Corrupt(path_, "chunk code out of dictionary range");
        }
      }
    } else {
      // Flat chunk of a dictionary column (defensive; the writer always
      // serializes dictionary columns with the dict tag).
      for (size_t r = 0; r < col.length(); ++r) {
        if (col.IsNull(r)) {
          codes[r] = -1;
          continue;
        }
        codes[r] = file_dict->Find(col.StringAt(r));
        if (codes[r] < 0) {
          return Corrupt(path_, "chunk string missing from dictionary page");
        }
      }
    }
    columns.push_back(data::Column::FromDictionary(file_dict, std::move(codes)));
    needs_rebuild = true;
  }
  if (!needs_rebuild) return chunk;
  return data::TablePtr(
      std::make_shared<data::Table>(schema_, std::move(columns)));
}

}  // namespace storage
}  // namespace vegaplus
