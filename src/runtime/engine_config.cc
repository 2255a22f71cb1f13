#include "runtime/engine_config.h"

#include "common/cancel.h"
#include "common/parallel.h"
#include "data/column.h"
#include "expr/batch_eval.h"
#include "storage/stats.h"
#include "tiles/tile_store.h"

namespace vegaplus {
namespace runtime {

EngineConfig EngineConfig::Current() {
  EngineConfig cfg;
  cfg.vectorized = expr::VectorizedEnabled();
  cfg.dictionary_encoding = data::DictionaryEncodingEnabled();
  cfg.morsel_threads = parallel::MorselParallelism();
  cfg.morsel_rows = parallel::MorselRows();
  cfg.tile_serving = tiles::TileServingEnabled();
  cfg.zone_map_pruning = storage::ZoneMapPruningEnabled();
  cfg.storage_residency_bytes = storage::DefaultResidencyBudget();
  cfg.cooperative_cancel = common::CooperativeCancelEnabled();
  return cfg;
}

void EngineConfig::Apply() const {
  expr::SetVectorizedEnabled(vectorized);
  data::SetDictionaryEncodingEnabled(dictionary_encoding);
  parallel::SetMorselParallelism(morsel_threads);
  parallel::SetMorselRows(morsel_rows);
  tiles::SetTileServingEnabled(tile_serving);
  storage::SetZoneMapPruningEnabled(zone_map_pruning);
  storage::SetDefaultResidencyBudget(storage_residency_bytes);
  common::SetCooperativeCancelEnabled(cooperative_cancel);
}

}  // namespace runtime
}  // namespace vegaplus
