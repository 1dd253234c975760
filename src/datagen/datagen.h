#ifndef SPER_DATAGEN_DATAGEN_H_
#define SPER_DATAGEN_DATAGEN_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "datagen/dataset.h"

/// \file datagen.h
/// Synthetic counterparts of the paper's 7 benchmark datasets (Table 2).
/// Each generator reproduces the statistics the paper's method ranking is
/// sensitive to — profile/match counts, attribute variety, cluster sizes,
/// token overlap, value length and noise type; see DESIGN.md §4 for the
/// per-dataset substitution rationale. The two web-scale datasets are
/// generated at a documented reduced scale.

namespace sper {

/// The largest DatagenOptions::scale. The largest generator, dbpedia,
/// makes 170,000 profiles at scale 1, so at this scale every generator's
/// profile count stays below 2^31, well inside ProfileId.
inline constexpr double kMaxDatagenScale = 1e4;

/// Generation options.
struct DatagenOptions {
  /// RNG seed; every dataset is a pure function of (name, seed, scale).
  std::uint64_t seed = 7;
  /// Multiplies profile counts; 1.0 reproduces the Table 2 scale (or the
  /// documented reduced scale for dbpedia/freebase). Must be finite, > 0
  /// and at most kMaxDatagenScale: GenerateDataset returns InvalidArgument
  /// otherwise.
  double scale = 1.0;
};

/// Generates one of: "census", "restaurant", "cora", "cddb" (Dirty ER);
/// "movies", "dbpedia", "freebase" (Clean-Clean ER).
Result<DatasetBundle> GenerateDataset(std::string_view name,
                                      const DatagenOptions& options = {});

/// The four structured (Dirty ER) dataset names, Table 2 order.
const std::vector<std::string>& StructuredDatasetNames();
/// The three large heterogeneous (Clean-Clean ER) dataset names.
const std::vector<std::string>& HeterogeneousDatasetNames();

// Individual generators (exposed for tests; prefer GenerateDataset).
DatasetBundle GenerateCensus(const DatagenOptions& options);
DatasetBundle GenerateRestaurant(const DatagenOptions& options);
DatasetBundle GenerateCora(const DatagenOptions& options);
DatasetBundle GenerateCddb(const DatagenOptions& options);
DatasetBundle GenerateMovies(const DatagenOptions& options);
DatasetBundle GenerateDbpedia(const DatagenOptions& options);
DatasetBundle GenerateFreebase(const DatagenOptions& options);

}  // namespace sper

#endif  // SPER_DATAGEN_DATAGEN_H_
