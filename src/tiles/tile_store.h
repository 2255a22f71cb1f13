// Multi-resolution tile store: precomputed per-zoom-level aggregation
// trees answering the bin+aggregate query shapes the VDT pipeline emits
// without touching base rows.
//
// A *tree* covers one (table, bin column) pair. For a numeric column it
// holds one *level* per distinct nice binning of the column's extent
// (ComputeBinning for maxbins 1..max_maxbins, deduplicated on the exact
// (start, step) pair, which is the same enumeration the client-side bin
// transform performs — so a query's bound bin parameters match a level
// exactly or not at all). For a dictionary-encoded string column it holds a
// single level keyed by dictionary code (categorical bar charts).
//
// Each level stores, per bin slot (plus one trailing slot for rows whose
// bin column is null):
//   - rows        total rows landing in the slot (COUNT(*))
//   - first_row   smallest base-table row index in the slot, which is the
//                 group's first-seen position in any full-bin selection —
//                 emitting included slots in ascending first_row reproduces
//                 the executor's group output order exactly
//   - measures    per numeric/bool/timestamp column: non-null count, sum,
//                 min, max — enough for COUNT/SUM/AVG/MIN/MAX
//
// Bit-identity with base execution: slot accumulation runs over fixed
// MorselRows()-sized chunks merged in chunk order, the same partial-state
// discipline as the executor's AggChunkSize chunking, and min/max/merge
// replicate AggState semantics (strict compares, NaN never displaces, first
// valid initializes). COUNT/MIN/MAX are therefore bit-identical always;
// SUM/AVG are bit-identical whenever the executor's chunk size equals
// MorselRows() and the query selects whole bins over the full table — which
// covers every shape the rewriter emits at interactive cardinalities — and
// exact for any chunking when the addends are exactly representable
// (integer or quantized data). Brushes are answered only when every slot is
// entirely inside or entirely outside the brush (checked against the slot's
// stored value min/max); a straddling slot falls back to base execution.
//
// Concurrency: TryAnswer is thread-safe. A missing tree is built by the
// first requester (single-flight); concurrent requesters for the same tree
// fall back to base execution instead of blocking. Staleness is detected by
// catalog identity (sql::Catalog::Identity: the pinned table or the shard
// reader), which materializes nothing: a probe never reads the base table,
// only a build does (through Catalog::GetTable), and re-registering a table
// rebuilds its trees on the next probe.
#ifndef VEGAPLUS_TILES_TILE_STORE_H_
#define VEGAPLUS_TILES_TILE_STORE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/cancel.h"
#include "data/table.h"
#include "expr/batch_eval.h"
#include "sql/sql_ast.h"

namespace vegaplus {
namespace rewrite {
struct TileShape;
}  // namespace rewrite
namespace sql {
class Engine;
}  // namespace sql

namespace tiles {

/// Process-wide kill switch (default on). Middleware snapshots this via
/// runtime::EngineConfig at construction; flipping it afterwards affects
/// only middlewares constructed later.
bool TileServingEnabled();
void SetTileServingEnabled(bool enabled);

struct TileStoreOptions {
  /// Zoom levels are enumerated as ComputeBinning(extent, maxbins) for
  /// maxbins in [1, max_maxbins], deduplicated on (start, step).
  size_t max_maxbins = 512;
  /// Safety cap on slots per level; a finer binning than this is skipped
  /// (queries at that zoom fall back to base execution).
  size_t max_level_bins = 4096;
  /// When false, TryAnswer never builds trees — only pre-built trees hit.
  bool build_on_miss = true;
  /// Out-of-core tile pages: when non-empty, freshly built levels spill
  /// their slot arrays into chunked shard files (storage::TableShard, kind
  /// "TILE") under this directory. Tiles are immutable once built, so the
  /// spilled copy never goes stale while the tree is alive.
  std::string spill_dir;
  /// With spilling on: byte budget for level slot arrays kept resident per
  /// tree (0 = keep everything). Largest levels evict first; a non-resident
  /// level hydrates from its shard file per query and is not re-cached.
  size_t resident_level_bytes = 0;
};

struct TileStoreStats {
  size_t hits = 0;             ///< queries answered from tiles
  size_t shape_misses = 0;     ///< statement not a covered bin shape
  size_t coverage_misses = 0;  ///< shape covered, tiles could not answer
  size_t builds = 0;           ///< trees built (including unbuildable ones)
  size_t build_conflicts = 0;  ///< fallbacks while another thread was building
  size_t builds_aborted = 0;   ///< first-touch builds aborted by cancellation
  size_t degraded_hits = 0;    ///< queries answered coarser via TryAnswerCoarser
  size_t levels_spilled = 0;    ///< levels written to shard files
  size_t levels_evicted = 0;    ///< levels whose slot arrays were dropped
  size_t level_hydrations = 0;  ///< per-query loads of non-resident levels
};

struct TileAnswer {
  data::TablePtr table;
  /// Slots read to form the answer; the middleware's latency model charges
  /// this instead of a base-table scan.
  size_t bins_touched = 0;
};

class TileStore {
 public:
  /// `engine` supplies the catalog for table lookup; it must outlive the
  /// store. The store never executes queries through the engine, so tile
  /// hits leave the engine's lifetime stats untouched.
  explicit TileStore(const sql::Engine* engine, TileStoreOptions options = {});

  TileStore(const TileStore&) = delete;
  TileStore& operator=(const TileStore&) = delete;

  /// Answer a bound statement from tiles, or std::nullopt when the shape is
  /// not covered, the tiles cannot answer it exactly, or the tree is being
  /// built by another thread. `cancel` (optional) checkpoints a first-touch
  /// build: a fired token aborts the build mid-flight without poisoning the
  /// single-flight slot — nothing is cached, the next requester rebuilds.
  std::optional<TileAnswer> TryAnswer(const sql::SelectStmt& stmt,
                                      const common::CancelToken* cancel = nullptr);

  /// Degraded-mode probe: answer the statement's shape at a *coarser* zoom
  /// level than requested (smallest step >= the requested one among levels
  /// already built — never builds). The answer is exact for that coarser
  /// binning, just lower-resolution than asked; the middleware serves it
  /// marked `degraded` when fresh execution is impossible (open breaker,
  /// expired deadline). Numeric trees only; categorical has a single level.
  std::optional<TileAnswer> TryAnswerCoarser(const sql::SelectStmt& stmt);

  /// Drop every tree for `table_name` (e.g. after re-registering data).
  /// Stale trees are also dropped lazily on the next probe.
  void Invalidate(const std::string& table_name);

  TileStoreStats stats() const;
  const TileStoreOptions& options() const { return options_; }

 private:
  struct Level {
    double start = 0;
    double step = 0;
    /// Bin slots; vectors below are sized num_bins + 1 (trailing null slot).
    size_t num_bins = 0;
    std::vector<int64_t> rows;
    std::vector<int64_t> first_row;
    /// Measure slots by column name. The bin column is always present and
    /// doubles as the brush-coverage index (per-slot value min/max).
    std::vector<std::string> measure_names;
    std::vector<expr::BinAggSlots> measure_slots;

    // Out-of-core state. A spilled level keeps its scalars and
    // measure_names resident (tiny); eviction drops only the slot vectors
    // above. Queries against a non-resident level hydrate a transient copy
    // from spill_path.
    bool resident = true;
    size_t approx_bytes = 0;   ///< slot-array footprint estimate
    std::string spill_path;    ///< shard file; empty = never spilled

    const expr::BinAggSlots* FindMeasure(const std::string& name) const;
  };

  struct Tree {
    /// Catalog identity of the source at build time (staleness checks).
    std::shared_ptr<const void> source;
    data::Schema schema;  ///< the source table's schema
    bool categorical = false;
    bool unbuildable = false;  ///< cached negative: never answers
    std::vector<Level> levels;  ///< numeric: one per zoom; categorical: one
    data::DictPtr dict;         ///< categorical key dictionary
  };
  using TreePtr = std::shared_ptr<const Tree>;

  /// Emit the answer for `stmt`/`shape` from one concrete level, or nullopt
  /// when that level cannot answer exactly (missing measure, straddling
  /// brush slot). Pure — touches no stats or locks.
  std::optional<TileAnswer> AnswerFromLevel(const sql::SelectStmt& stmt,
                                            const rewrite::TileShape& shape,
                                            const Tree& tree,
                                            const Level& level) const;

  /// The tree for `key` built from the catalog entry whose identity is
  /// `source`, building it when missing or stale; nullptr when another
  /// thread is building it, or the build was aborted or could not read the
  /// table.
  TreePtr GetOrBuildTree(const std::string& key, const std::string& table_name,
                         const std::string& column, bool categorical,
                         std::shared_ptr<const void> source,
                         const common::CancelToken* cancel);
  /// Returns nullptr when `cancel` fired mid-build (abort — never cached, as
  /// opposed to a completed-but-unbuildable tree, which is a negative cache
  /// entry).
  std::shared_ptr<Tree> BuildTree(const data::TablePtr& table,
                                  const std::string& column, bool categorical,
                                  const common::CancelToken* cancel) const;
  /// Spill every level of a freshly built tree to shard files under
  /// options_.spill_dir, then evict slot arrays beyond
  /// options_.resident_level_bytes (largest first). Best-effort: a level
  /// whose spill fails stays resident. Returns (spilled, evicted) counts.
  std::pair<size_t, size_t> SpillTree(const std::string& key, Tree* tree) const;
  /// Rebuild a non-resident level's slot arrays from its shard file.
  Result<Level> HydrateLevel(const Level& level) const;
  bool BuildLevel(const data::Table& table, const expr::Vec& bin_values,
                  Level* level, const common::CancelToken* cancel) const;

  const sql::Engine* engine_;
  const TileStoreOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, TreePtr> trees_;
  std::unordered_set<std::string> building_;
  TileStoreStats stats_;
};

}  // namespace tiles
}  // namespace vegaplus

#endif  // VEGAPLUS_TILES_TILE_STORE_H_
