#include "storage/reader.h"

#include <utility>

#include "common/parallel.h"
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

Result<data::TablePtr> Reader::Scan(const std::vector<Predicate>& preds,
                                    const ChunkFilter& filter,
                                    const common::CancelToken* cancel,
                                    ScanStats* stats) const {
  // Zone-map pruning over the conjunction. A string constant resolves
  // against its column's dictionary page once (-2 when absent, as in the
  // expression engine); a conjunct on an unknown column cannot prune.
  std::vector<const Predicate*> prunable;
  std::vector<int32_t> dict_codes;
  if (ZoneMapPruningEnabled()) {
    for (const Predicate& pred : preds) {
      if (pred.col < 0 || static_cast<size_t>(pred.col) >= schema().num_fields()) {
        continue;
      }
      const data::DictPtr& dict = file_->dict(static_cast<size_t>(pred.col));
      const int32_t code =
          pred.is_str && dict != nullptr ? dict->Find(pred.str_const) : -2;
      prunable.push_back(&pred);
      dict_codes.push_back(code < 0 ? -2 : code);
    }
  }
  std::vector<size_t> survivors;
  survivors.reserve(num_chunks());
  for (size_t i = 0; i < num_chunks(); ++i) {
    bool may_match = true;
    for (size_t p = 0; p < prunable.size() && may_match; ++p) {
      const ColumnZone& zone = file_->zone(i, static_cast<size_t>(prunable[p]->col));
      may_match = zone.MayMatch(*prunable[p], dict_codes[p]);
    }
    if (may_match) survivors.push_back(i);
  }
  if (survivors.size() < num_chunks()) AddChunksPruned(num_chunks() - survivors.size());

  // Surviving chunks as morsels: page in, filter, keep. ParallelFor is the
  // cancellation checkpoint before each chunk.
  std::vector<data::TablePtr> paged(survivors.size());
  std::vector<data::TablePtr> kept(survivors.size());
  std::vector<Status> errors(survivors.size());
  parallel::ParallelFor(
      survivors.size(),
      [&](size_t k) {
        Result<data::TablePtr> chunk = Chunk(survivors[k]);
        if (!chunk.ok()) {
          errors[k] = std::move(chunk).status();
          return;
        }
        paged[k] = std::move(*chunk);
        if (!filter) {
          kept[k] = paged[k];
          return;
        }
        std::vector<int32_t> keep;
        filter(*paged[k], &keep);
        kept[k] = keep.size() == paged[k]->num_rows() ? paged[k] : paged[k]->Take(keep);
      },
      cancel);
  if (stats != nullptr) {
    for (const data::TablePtr& chunk : paged) {
      if (chunk != nullptr) stats->rows_scanned += chunk->num_rows();
    }
  }
  if (common::Fired(cancel)) return cancel->status();
  for (const Status& st : errors) VP_RETURN_IF_ERROR(st);
  return Concat(kept);
}

Result<data::TablePtr> Reader::ReadAll(const common::CancelToken* cancel,
                                       ScanStats* stats) const {
  return Scan({}, nullptr, cancel, stats);
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
