// One struct for every process-wide execution switch. Historically each layer
// grew its own free-function toggle (expr::SetVectorizedEnabled,
// data::SetDictionaryEncodingEnabled, the parallel:: morsel knobs,
// tiles::SetTileServingEnabled); callers that wanted a coherent
// configuration had to call five setters in the right order and had no way
// to read the state back atomically. EngineConfig is the consolidated
// front door:
//
//   * EngineConfig::Current() snapshots every switch.
//   * cfg.Apply() writes every switch (the per-layer setters stay as the
//     storage owners, so layering is unchanged: data/expr/common never see
//     runtime).
//   * Middleware snapshots one EngineConfig at construction
//     (MiddlewareOptions::engine_config overrides the ambient values) and
//     exposes it via Middleware::engine_config(); middleware-side features
//     such as tile serving are gated on the snapshot, not the live globals.
//
// The old per-layer free functions remain valid but are deprecated as a
// public configuration surface — new call sites should go through
// EngineConfig.
#ifndef VEGAPLUS_RUNTIME_ENGINE_CONFIG_H_
#define VEGAPLUS_RUNTIME_ENGINE_CONFIG_H_

#include <cstddef>

namespace vegaplus {
namespace runtime {

struct EngineConfig {
  /// Column-at-a-time compiled expression evaluation (expr::Compiler).
  bool vectorized = true;
  /// Dictionary encoding for string columns loaded from CSV/JSON.
  bool dictionary_encoding = true;
  /// Worker count for morsel execution across the shared worker pool.
  /// 0 = hardware concurrency; 1 = the sequential path.
  size_t morsel_threads = 0;
  /// Rows per morsel for table-shaped work.
  size_t morsel_rows = 16384;
  /// Middleware-side multi-resolution tile serving for bin+aggregate shapes.
  bool tile_serving = true;
  /// Zone-map pruning of chunks/morsels in the storage layer and the fused
  /// filter path. Disabling it is the differential baseline: every scan
  /// decodes and evaluates everything, results must stay bit-identical.
  bool zone_map_pruning = true;
  /// Byte budget for decoded chunks resident per storage::Reader (LRU
  /// evicted beyond it). 0 = unbounded.
  size_t storage_residency_bytes = 256 << 20;
  /// Cooperative cancellation: morsel/page-in/tile-build checkpoints honor
  /// fired CancelTokens (common/cancel.h), reclaiming workers mid-query when
  /// a deadline expires or a ticket is cancelled. Disabling restores
  /// run-to-completion behavior; results are bit-identical either way
  /// whenever no token fires.
  bool cooperative_cancel = true;

  /// Snapshot the live process-wide switches.
  static EngineConfig Current();

  /// Write every switch back to the owning layer.
  void Apply() const;
};

/// RAII guard: applies `cfg` on construction, restores the previous
/// process-wide state on destruction. Test-oriented.
class ScopedEngineConfig {
 public:
  explicit ScopedEngineConfig(const EngineConfig& cfg)
      : saved_(EngineConfig::Current()) {
    cfg.Apply();
  }
  ~ScopedEngineConfig() { saved_.Apply(); }
  ScopedEngineConfig(const ScopedEngineConfig&) = delete;
  ScopedEngineConfig& operator=(const ScopedEngineConfig&) = delete;

 private:
  EngineConfig saved_;
};

}  // namespace runtime
}  // namespace vegaplus

#endif  // VEGAPLUS_RUNTIME_ENGINE_CONFIG_H_
