#include "storage/reader.h"

#include <utility>

#include "expr/kernels/kernels.h"
#include "storage/stats.h"

namespace vegaplus {
namespace storage {

namespace {
// Installed page-in fault hook. Held by shared_ptr so a concurrent
// SetPageInFaultHook never frees a hook another thread is mid-invoking.
std::mutex g_fault_hook_mu;
std::shared_ptr<const PageInFaultHook> g_fault_hook;

std::shared_ptr<const PageInFaultHook> CurrentFaultHook() {
  std::lock_guard<std::mutex> lock(g_fault_hook_mu);
  return g_fault_hook;
}

/// Appends the cells of column `c` of every chunk to `values`, one block
/// per chunk, and returns their validity.
template <typename T>
std::vector<uint8_t> ConcatCells(const std::vector<data::TablePtr>& chunks, size_t c,
                                 size_t total, const T* (data::Column::*cells)() const,
                                 std::vector<T>* values) {
  std::vector<uint8_t> validity;
  values->reserve(total);
  validity.reserve(total);
  for (const data::TablePtr& t : chunks) {
    const data::Column& col = t->column(c);
    const T* v = (col.*cells)();
    const uint8_t* ok = col.validity_data();
    values->insert(values->end(), v, v + col.length());
    validity.insert(validity.end(), ok, ok + col.length());
  }
  return validity;
}
}  // namespace

void SetPageInFaultHook(PageInFaultHook hook) {
  std::lock_guard<std::mutex> lock(g_fault_hook_mu);
  if (hook) {
    g_fault_hook = std::make_shared<const PageInFaultHook>(std::move(hook));
  } else {
    g_fault_hook.reset();
  }
}

Reader::Reader(std::shared_ptr<const ColumnFile> file)
    : file_(std::move(file)), budget_(DefaultResidencyBudget()) {}

Result<std::shared_ptr<Reader>> Reader::Open(const std::string& path) {
  VP_ASSIGN_OR_RETURN(std::shared_ptr<ColumnFile> file, ColumnFile::Open(path));
  return std::shared_ptr<Reader>(new Reader(std::move(file)));
}

Reader::~Reader() {
  std::lock_guard<std::mutex> lock(mu_);
  if (resident_bytes_ > 0) {
    AddResidentBytes(-static_cast<int64_t>(resident_bytes_));
  }
}

void Reader::set_residency_budget(size_t bytes) {
  budget_.store(bytes, std::memory_order_relaxed);
  // Shrink eagerly so tests and benchmarks observe the new bound at once.
  std::lock_guard<std::mutex> lock(mu_);
  const size_t budget = bytes;
  while (budget > 0 && resident_bytes_ > budget && !lru_.empty()) {
    const size_t victim = lru_.back();
    lru_.pop_back();
    auto it = resident_.find(victim);
    resident_bytes_ -= it->second.bytes;
    AddResidentBytes(-static_cast<int64_t>(it->second.bytes));
    resident_.erase(it);
  }
}

size_t Reader::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

Result<data::TablePtr> Reader::Chunk(size_t i) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = resident_.find(i);
    if (it != resident_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.table;
    }
  }

  // Chaos seam: injected page-in faults/stalls fire on the cache-miss path
  // only, like real IO errors would.
  if (std::shared_ptr<const PageInFaultHook> hook = CurrentFaultHook()) {
    VP_RETURN_IF_ERROR((*hook)(file_->path(), i));
  }

  // Decode outside the lock; concurrent first touches may decode twice, the
  // first insertion wins and the loser's copy is dropped.
  VP_ASSIGN_OR_RETURN(data::TablePtr table, file_->DecodeChunk(i));
  AddChunksPagedIn(1);
  const size_t bytes = static_cast<size_t>(file_->chunk(i).payload_size);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = resident_.find(i);
  if (it != resident_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second.table;
  }
  lru_.push_front(i);
  resident_.emplace(i, Resident{table, bytes, lru_.begin()});
  resident_bytes_ += bytes;
  AddResidentBytes(static_cast<int64_t>(bytes));
  const size_t budget = budget_.load(std::memory_order_relaxed);
  while (budget > 0 && resident_bytes_ > budget && lru_.size() > 1) {
    const size_t victim = lru_.back();
    lru_.pop_back();
    auto vit = resident_.find(victim);
    resident_bytes_ -= vit->second.bytes;
    AddResidentBytes(-static_cast<int64_t>(vit->second.bytes));
    resident_.erase(vit);
  }
  return table;
}

Result<data::TablePtr> Reader::ReadAll(const common::CancelToken* cancel,
                                       ScanStats* stats) const {
  std::vector<data::TablePtr> chunks;
  chunks.reserve(file_->num_chunks());
  for (size_t i = 0; i < file_->num_chunks(); ++i) {
    // Cancellation checkpoint: abort before paging in / decoding the next
    // chunk, so an expired deadline stops the scan at chunk granularity.
    if (common::Fired(cancel)) return cancel->status();
    VP_ASSIGN_OR_RETURN(data::TablePtr chunk, Chunk(i));
    if (stats != nullptr) {
      ++stats->chunks_scanned;
      stats->rows_scanned += chunk->num_rows();
    }
    chunks.push_back(std::move(chunk));
  }
  return Concat(chunks);
}

bool Reader::ChunkPruned(size_t i, const std::vector<Predicate>& preds,
                         const std::vector<int32_t>& dict_codes) const {
  for (size_t p = 0; p < preds.size(); ++p) {
    const Predicate& pred = preds[p];
    if (pred.col < 0 ||
        static_cast<size_t>(pred.col) >= file_->schema().num_fields()) {
      continue;  // unknown column: cannot prune on it
    }
    const ColumnZone& zone = file_->zone(i, static_cast<size_t>(pred.col));
    bool may_match = true;
    if (!pred.is_str) {
      may_match = zone.MayMatchNumeric(pred.cmp, pred.num_const);
    } else if (file_->dict(static_cast<size_t>(pred.col)) != nullptr) {
      may_match = zone.MayMatchDictCode(pred.cmp, dict_codes[p]);
    } else {
      may_match = zone.MayMatchString(pred.cmp, pred.str_const);
    }
    // The predicates are a conjunction: one impossible conjunct kills the
    // whole chunk.
    if (!may_match) return true;
  }
  return false;
}

Result<data::TablePtr> Reader::MaterializeMatching(
    const std::vector<Predicate>& preds, ScanStats* stats,
    const common::CancelToken* cancel) const {
  const bool prune = ZoneMapPruningEnabled() && !preds.empty();

  // Resolve string constants against the file dictionaries once. An absent
  // constant resolves to -2, mirroring the expression engine (null cells
  // carry -1, so == matches nothing and != matches everything).
  std::vector<int32_t> dict_codes(preds.size(), -2);
  if (prune) {
    for (size_t p = 0; p < preds.size(); ++p) {
      const Predicate& pred = preds[p];
      if (!pred.is_str || pred.col < 0 ||
          static_cast<size_t>(pred.col) >= file_->schema().num_fields()) {
        continue;
      }
      const data::DictPtr& dict = file_->dict(static_cast<size_t>(pred.col));
      if (dict == nullptr) continue;
      const int32_t code = dict->Find(pred.str_const);
      dict_codes[p] = code < 0 ? -2 : code;
    }
  }

  std::vector<data::TablePtr> survivors;
  survivors.reserve(file_->num_chunks());
  uint64_t pruned = 0;
  for (size_t i = 0; i < file_->num_chunks(); ++i) {
    if (prune && ChunkPruned(i, preds, dict_codes)) {
      ++pruned;
      continue;
    }
    // Cancellation checkpoint before each page-in; stats are incremental so
    // an aborted scan reports the chunks/rows it actually touched.
    if (common::Fired(cancel)) {
      if (pruned > 0) AddChunksPruned(pruned);
      if (stats != nullptr) stats->chunks_pruned += pruned;
      return cancel->status();
    }
    VP_ASSIGN_OR_RETURN(data::TablePtr chunk, Chunk(i));
    if (stats != nullptr) {
      ++stats->chunks_scanned;
      stats->rows_scanned += chunk->num_rows();
    }
    if (prune) chunk = FilterChunkRows(std::move(chunk), preds, dict_codes);
    survivors.push_back(std::move(chunk));
  }
  if (pruned > 0) AddChunksPruned(pruned);
  if (stats != nullptr) stats->chunks_pruned += pruned;
  return Concat(survivors);
}

/// Map a zone-map comparison onto a compare kernel op (same operator set).
static kernels::Cmp KernelCmpOf(CmpOp cmp) {
  switch (cmp) {
    case CmpOp::kEq: return kernels::Cmp::kEq;
    case CmpOp::kNeq: return kernels::Cmp::kNeq;
    case CmpOp::kLt: return kernels::Cmp::kLt;
    case CmpOp::kLte: return kernels::Cmp::kLte;
    case CmpOp::kGt: return kernels::Cmp::kGt;
    default: return kernels::Cmp::kGte;
  }
}

data::TablePtr Reader::FilterChunkRows(data::TablePtr chunk,
                                       const std::vector<Predicate>& preds,
                                       const std::vector<int32_t>& dict_codes) const {
  const size_t n = chunk->num_rows();
  if (n == 0) return chunk;

  // Exact row filter over the pushed-down conjunction: AND one compare
  // bitmap per evaluable predicate. Predicates a kernel cannot evaluate
  // exactly (string order compares, unknown columns) are skipped — sound
  // because the scan consumer re-runs the full WHERE over whatever this
  // returns, so over-approximating can only cost rows carried, never
  // correctness. Only active when zone-map pruning is on, preserving the
  // "pruning disabled => identical to ReadAll" contract.
  std::vector<uint8_t> bits(n, 1);
  std::vector<uint8_t> tmp(n);
  bool filtered = false;
  for (size_t p = 0; p < preds.size(); ++p) {
    const Predicate& pred = preds[p];
    if (pred.col < 0 ||
        static_cast<size_t>(pred.col) >= chunk->num_columns()) {
      continue;
    }
    const data::Column& col = chunk->column(static_cast<size_t>(pred.col));
    const uint8_t* valid =
        col.null_count() > 0 ? col.validity_data() : nullptr;
    const kernels::Cmp cmp = KernelCmpOf(pred.cmp);
    if (pred.is_str) {
      if (col.type() != data::DataType::kString ||
          (pred.cmp != CmpOp::kEq && pred.cmp != CmpOp::kNeq)) {
        continue;
      }
      const bool negate = pred.cmp == CmpOp::kNeq;
      if (col.dict_encoded()) {
        kernels::CompareCodeToBits(col.codes_data(), n, negate, dict_codes[p],
                                   tmp.data());
      } else {
        kernels::CompareStrToBits(col.strings_data(), valid, n, negate,
                                  pred.str_const, tmp.data());
      }
    } else {
      switch (col.type()) {
        case data::DataType::kFloat64:
          kernels::CompareNumToBits(col.doubles_data(), valid, n, cmp,
                                    pred.num_const, tmp.data());
          break;
        case data::DataType::kInt64:
        case data::DataType::kTimestamp:
        case data::DataType::kBool:
          kernels::CompareInt64ToBits(col.ints_data(), valid, n, cmp,
                                      pred.num_const, tmp.data());
          break;
        default:
          continue;
      }
    }
    kernels::AndBits(bits.data(), tmp.data(), n);
    filtered = true;
  }
  if (!filtered) return chunk;
  const size_t matches = kernels::CountBits(bits.data(), n);
  if (matches == n) return chunk;
  std::vector<int32_t> sel;
  kernels::BitsToIndices(bits.data(), n, 0, &sel);
  return chunk->Take(sel);
}

void Reader::EvictAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (resident_bytes_ > 0) {
    AddResidentBytes(-static_cast<int64_t>(resident_bytes_));
  }
  resident_.clear();
  lru_.clear();
  resident_bytes_ = 0;
}

Result<data::TablePtr> Reader::Concat(
    const std::vector<data::TablePtr>& chunks) const {
  const data::Schema& schema = file_->schema();
  if (chunks.empty()) return data::EmptyTable(schema);
  if (chunks.size() == 1) return chunks[0];

  size_t total = 0;
  for (const data::TablePtr& t : chunks) total += t->num_rows();

  std::vector<data::Column> columns;
  columns.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    const data::DataType type = schema.field(c).type;
    switch (type) {
      case data::DataType::kFloat64: {
        std::vector<double> values;
        std::vector<uint8_t> validity =
            ConcatCells(chunks, c, total, &data::Column::doubles_data, &values);
        columns.push_back(
            data::Column::FromDoubles(std::move(values), std::move(validity)));
        break;
      }
      case data::DataType::kString: {
        // All chunks of a dictionary column share the file page (DecodeChunk
        // remaps), so concatenation is a plain code gather.
        bool shared_dict = true;
        data::DictPtr dict = chunks[0]->column(c).dict_encoded()
                                 ? chunks[0]->column(c).dict_shared()
                                 : nullptr;
        if (dict == nullptr) {
          shared_dict = false;
        } else {
          for (const data::TablePtr& t : chunks) {
            const data::Column& col = t->column(c);
            if (!col.dict_encoded() || col.dict_shared() != dict) {
              shared_dict = false;
              break;
            }
          }
        }
        if (shared_dict) {
          std::vector<int32_t> codes;
          codes.reserve(total);
          for (const data::TablePtr& t : chunks) {
            const data::Column& col = t->column(c);
            const int32_t* cd = col.codes_data();
            codes.insert(codes.end(), cd, cd + col.length());
          }
          columns.push_back(data::Column::FromDictionary(dict, std::move(codes)));
        } else {
          std::vector<std::string> values;
          std::vector<uint8_t> validity;
          values.reserve(total);
          validity.reserve(total);
          for (const data::TablePtr& t : chunks) {
            const data::Column& col = t->column(c);
            for (size_t r = 0; r < col.length(); ++r) {
              validity.push_back(col.IsNull(r) ? 0 : 1);
              values.push_back(col.IsNull(r) ? std::string() : col.StringAt(r));
            }
          }
          columns.push_back(data::Column::FromStrings(std::move(values),
                                                      std::move(validity)));
        }
        break;
      }
      case data::DataType::kBool:
      case data::DataType::kInt64:
      case data::DataType::kTimestamp: {
        std::vector<int64_t> values;
        std::vector<uint8_t> validity =
            ConcatCells(chunks, c, total, &data::Column::ints_data, &values);
        columns.push_back(
            data::Column::FromInts(type, std::move(values), std::move(validity)));
        break;
      }
      case data::DataType::kNull: {
        data::Column col(data::DataType::kNull);
        col.Reserve(total);
        for (size_t r = 0; r < total; ++r) col.AppendNull();
        columns.push_back(std::move(col));
        break;
      }
    }
  }
  return data::TablePtr(
      std::make_shared<data::Table>(schema, std::move(columns)));
}

}  // namespace storage
}  // namespace vegaplus
