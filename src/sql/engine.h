// Engine: the embedded DBMS facade (the PostgreSQL/DuckDB stand-in).
// Register tables, run SQL strings, ask for EXPLAIN estimates.
#ifndef VEGAPLUS_SQL_ENGINE_H_
#define VEGAPLUS_SQL_ENGINE_H_

#include <mutex>
#include <string>

#include "common/result.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/explain.h"
#include "sql/prepared.h"
#include "sql/sql_parser.h"

namespace vegaplus {
namespace sql {

/// \brief Result of one query: the table plus the work counters the latency
/// model converts to simulated server time.
struct QueryResult {
  data::TablePtr table;
  ExecStats stats;
};

/// \brief Embedded SQL engine over the columnar table substrate.
class Engine {
 public:
  /// Register (or replace) a base table.
  void RegisterTable(const std::string& name, data::TablePtr table) {
    catalog_.RegisterTable(name, std::move(table));
  }

  /// Register (or replace) a shard-backed base table (storage::Reader over
  /// an on-disk columnar shard); scans page chunks in on demand and prune
  /// them by zone map against the WHERE clause.
  Status RegisterShardTable(const std::string& name,
                            std::shared_ptr<storage::Reader> shard) {
    return catalog_.RegisterShardTable(name, std::move(shard));
  }

  const Catalog& catalog() const { return catalog_; }

  /// Parse and execute one SELECT. `ctx` (optional, here and below) carries
  /// the query's execution options (vectorized, zone-map pruning) and the
  /// cooperative cancellation token; a fired token aborts execution at
  /// the next morsel/chunk checkpoint with kCancelled/kDeadlineExceeded.
  /// Work counters for the stages that ran still accumulate into
  /// lifetime_stats(), so aborted scans report the rows they touched.
  Result<QueryResult> Query(const std::string& sql_text,
                            const common::QueryContext* ctx = nullptr) const;

  /// Execute an already-parsed statement.
  ///
  /// Thread-safe against concurrent Execute calls (the middleware runs DBMS
  /// work on a worker pool); RegisterTable must not race with execution.
  Result<QueryResult> Execute(const SelectStmt& stmt,
                              const common::QueryContext* ctx = nullptr) const;

  /// Parse a SQL template with ${...} parameter holes once; execute it many
  /// times with ExecuteBound. Statement identity (PreparedStatement::
  /// canonical_sql) is formatting-insensitive.
  Result<PreparedPtr> Prepare(const std::string& sql_template) const {
    return PrepareStatement(sql_template);
  }

  /// Bind `params` into `prepared` and execute — no SQL text is rendered or
  /// parsed on this path.
  Result<QueryResult> ExecuteBound(const PreparedStatement& prepared,
                                   const expr::SignalResolver& params,
                                   const common::QueryContext* ctx = nullptr) const;

  /// Parse and estimate one SELECT without executing (EXPLAIN).
  Result<EstimatedPlan> Explain(const std::string& sql_text) const;

  /// Cumulative work counters across every query this engine has run.
  ExecStats lifetime_stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return lifetime_stats_;
  }

 private:
  Catalog catalog_;
  mutable std::mutex stats_mu_;
  mutable ExecStats lifetime_stats_;
};

}  // namespace sql
}  // namespace vegaplus

#endif  // VEGAPLUS_SQL_ENGINE_H_
