// Catalog: the named tables registered with the SQL engine, plus the
// statistics the EXPLAIN estimator and the workload simulator consume.
#ifndef VEGAPLUS_SQL_CATALOG_H_
#define VEGAPLUS_SQL_CATALOG_H_

#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "data/stats.h"
#include "data/table.h"
#include "storage/reader.h"

namespace vegaplus {
namespace sql {

/// \brief Table registry with per-table statistics.
///
/// Tables come in two flavors: in-memory (a TablePtr pinned by the entry)
/// and shard-backed (a storage::Reader over an on-disk columnar shard). The
/// executor scans a shard through its reader (GetShard), which prunes
/// chunks by zone map, pages the rest in and filters them chunk by chunk.
/// GetTable answers either flavor with a plain table, but materializes a
/// shard to do so. Identity names an entry's data without materializing
/// anything, for caches of derived data such as tile trees.
class Catalog {
 public:
  /// Register (or replace) a table; computes stats with one full scan.
  void RegisterTable(const std::string& name, data::TablePtr table);

  /// Register (or replace) a shard-backed table. Stats come from one full
  /// materializing scan, which is then evicted so registration does not pin
  /// the whole shard in memory.
  Status RegisterShardTable(const std::string& name,
                            std::shared_ptr<storage::Reader> shard);

  /// Drop a table; no-op if absent.
  void DropTable(const std::string& name);

  bool HasTable(const std::string& name) const { return tables_.count(name) > 0; }

  /// The whole table. A shard-backed entry pages in and concatenates every
  /// chunk into a new table on each call (only chunks are cached, under the
  /// reader's budget).
  Result<data::TablePtr> GetTable(const std::string& name) const;

  /// A stable identity for `name`'s data: the pinned table or the shard
  /// reader, or nullptr for unknown names. It changes only when the name is
  /// re-registered, and holding it keeps its address from being reused.
  std::shared_ptr<const void> Identity(const std::string& name) const;

  /// The shard reader behind `name`, or nullptr for in-memory tables and
  /// unknown names — the scan path branches on this to scan chunk by chunk.
  std::shared_ptr<storage::Reader> GetShard(const std::string& name) const;

  /// Stats for `name`; nullptr if unknown.
  const data::TableStats* GetStats(const std::string& name) const;

  std::vector<std::string> TableNames() const;

 private:
  struct Entry {
    data::TablePtr table;                     // in-memory entries
    std::shared_ptr<storage::Reader> shard;   // shard-backed entries
    data::TableStats stats;
  };
  std::map<std::string, Entry> tables_;
};

}  // namespace sql
}  // namespace vegaplus

#endif  // VEGAPLUS_SQL_CATALOG_H_
