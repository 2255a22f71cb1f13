// Shared helpers for the engine differential suites: the process-wide morsel
// knobs pinned for one scope, the flat-string twin of a table, and the
// per-query contexts of the reference legs.
#ifndef VEGAPLUS_TESTS_EXEC_TEST_UTIL_H_
#define VEGAPLUS_TESTS_EXEC_TEST_UTIL_H_

#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/parallel.h"
#include "data/table.h"

namespace vegaplus {
namespace testutil {

/// Pin the morsel size and the morsel pool's thread count for one scope;
/// restore the morsel size and the hardware-default thread count after.
/// Small odd morsels plus forced parallelism make even small tables span
/// many morsels with short boundary chunks, on any machine.
class MorselConfigGuard {
 public:
  MorselConfigGuard(size_t morsel_rows, size_t threads)
      : saved_rows_(parallel::MorselRows()) {
    parallel::SetMorselRows(morsel_rows);
    parallel::SetMorselParallelism(threads);
  }
  ~MorselConfigGuard() {
    parallel::SetMorselParallelism(0);  // tests always run from the default
    parallel::SetMorselRows(saved_rows_);
  }
  MorselConfigGuard(const MorselConfigGuard&) = delete;
  MorselConfigGuard& operator=(const MorselConfigGuard&) = delete;

 private:
  size_t saved_rows_;
};

/// The same cells with every string column in the flat form
/// (Column::DecodeFlat); other columns are shared unchanged.
inline data::TablePtr FlatTwin(const data::Table& table) {
  std::vector<data::Column> columns;
  columns.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c).DecodeFlat());
  }
  return std::make_shared<data::Table>(table.schema(), std::move(columns));
}

/// Reference-leg contexts: every expression on the scalar interpreter, and
/// every chunk and morsel scanned without zone-map pruning.
inline const common::QueryContext kInterpreted{nullptr, /*vectorized=*/false};
inline const common::QueryContext kUnpruned{nullptr, /*vectorized=*/true,
                                            /*zone_map_pruning=*/false};

}  // namespace testutil
}  // namespace vegaplus

#endif  // VEGAPLUS_TESTS_EXEC_TEST_UTIL_H_
