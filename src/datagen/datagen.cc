#include "datagen/datagen.h"

#include <cstdio>
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
  // llround(count * scale), and -1 asks for about 2^64 profiles. Past
  // kMaxDatagenScale a count may not fit ProfileId, and from about 1e14
  // on llround leaves the range of long long.
  if (!(options.scale > 0.0 && options.scale <= kMaxDatagenScale)) {
    char message[80];
    std::snprintf(message, sizeof(message),
                  "scale must be > 0 and at most %g, got %g",
                  kMaxDatagenScale, options.scale);
    return Status::InvalidArgument(message);
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
