#include "datagen/datagen.h"

#include <cmath>
#include <string>

namespace sper {

const std::vector<std::string>& StructuredDatasetNames() {
  static const std::vector<std::string> names = {"census", "restaurant",
                                                 "cora", "cddb"};
  return names;
}

const std::vector<std::string>& HeterogeneousDatasetNames() {
  static const std::vector<std::string> names = {"movies", "dbpedia",
                                                 "freebase"};
  return names;
}

Result<DatasetBundle> GenerateDataset(std::string_view name,
                                      const DatagenOptions& options) {
  // A scale <= 0 or NaN would reach the generators' size_t casts of
  // llround(count * scale), and -1 asks for about 2^64 profiles.
  if (!std::isfinite(options.scale) || options.scale <= 0.0) {
    return Status::InvalidArgument("scale must be finite and > 0, got " +
                                   std::to_string(options.scale));
  }
  if (name == "census") return GenerateCensus(options);
  if (name == "restaurant") return GenerateRestaurant(options);
  if (name == "cora") return GenerateCora(options);
  if (name == "cddb") return GenerateCddb(options);
  if (name == "movies") return GenerateMovies(options);
  if (name == "dbpedia") return GenerateDbpedia(options);
  if (name == "freebase") return GenerateFreebase(options);
  return Status::NotFound("unknown dataset: " + std::string(name));
}

}  // namespace sper
