#include "sql/catalog.h"

namespace vegaplus {
namespace sql {

void Catalog::RegisterTable(const std::string& name, data::TablePtr table) {
  Entry entry;
  entry.stats = data::ComputeTableStats(*table);
  entry.table = std::move(table);
  tables_[name] = std::move(entry);
}

Status Catalog::RegisterShardTable(const std::string& name,
                                   std::shared_ptr<storage::Reader> shard) {
  Entry entry;
  VP_ASSIGN_OR_RETURN(data::TablePtr all, shard->ReadAll());
  entry.stats = data::ComputeTableStats(*all);
  shard->EvictAll();
  entry.shard = std::move(shard);
  tables_[name] = std::move(entry);
  return Status::OK();
}

void Catalog::DropTable(const std::string& name) { tables_.erase(name); }

Result<data::TablePtr> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::KeyError("catalog: unknown table '" + name + "'");
  }
  if (it->second.shard != nullptr) return it->second.shard->ReadAll();
  return it->second.table;
}

std::shared_ptr<const void> Catalog::Identity(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return nullptr;
  if (it->second.shard != nullptr) return it->second.shard;
  return it->second.table;
}

std::shared_ptr<storage::Reader> Catalog::GetShard(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.shard;
}

const data::TableStats* Catalog::GetStats(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second.stats;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  return names;
}

}  // namespace sql
}  // namespace vegaplus
