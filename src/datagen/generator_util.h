#ifndef SPER_DATAGEN_GENERATOR_UTIL_H_
#define SPER_DATAGEN_GENERATOR_UTIL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/ground_truth.h"
#include "core/profile_store.h"
#include "datagen/rng.h"

/// \file generator_util.h
/// Assembly helpers shared by the dataset generators: cluster planning for
/// Dirty ER, shuffled store assembly (so profile ids carry no information
/// about cluster membership or creation order), and small formatting
/// utilities.

namespace sper {

/// A Dirty ER duplication plan: how many clusters of each size to emit.
struct ClusterPlan {
  /// size -> how many clusters of that size (sizes >= 2).
  std::vector<std::pair<std::size_t, std::size_t>> clusters_of_size;
  /// Duplicate-free profiles on top of the clusters.
  std::size_t singletons = 0;

  /// Total profiles the plan yields.
  std::size_t TotalProfiles() const;
  /// Total matching pairs (Σ count * C(size, 2)).
  std::uint64_t TotalPairs() const;
  /// Multiplies every count by `scale` (rounding, minimum 0). `scale` is
  /// in (0, kMaxDatagenScale], as GenerateDataset checks.
  ClusterPlan Scaled(double scale) const;
};

/// Assembled Dirty ER task.
struct DirtyAssembly {
  ProfileStore store;
  GroundTruth truth;
};

/// Shuffles clusters and singleton profiles into one randomized order,
/// assigns dense ids and expands the clusters into ground-truth pairs.
DirtyAssembly AssembleDirty(Rng& rng,
                            std::vector<std::vector<Profile>> clusters,
                            std::vector<Profile> singletons);

/// Assembled Clean-Clean ER task.
struct CleanCleanAssembly {
  ProfileStore store;
  GroundTruth truth;
};

/// Shuffles each source independently (matched pairs plus per-source
/// extras) and records the cross-source ground truth.
CleanCleanAssembly AssembleCleanClean(
    Rng& rng, std::vector<std::pair<Profile, Profile>> matched,
    std::vector<Profile> source1_only, std::vector<Profile> source2_only);

/// `value` zero-padded to `width` digits.
std::string ZeroPad(std::uint64_t value, std::size_t width);

/// Zipf-ish rank sample over [0, n): density ~ 1/(rank + offset). Real
/// vocabularies (title words, KB references, infobox properties) are
/// heavily skewed; the skew is what produces both the huge stop-word-like
/// blocks that Block Purging removes and the rare, match-rich blocks that
/// Block Scheduling processes first.
std::size_t ZipfRank(Rng& rng, std::size_t n, double offset = 8.0);

/// Applies `scale` to a base count (round, minimum `minimum`). `scale` is
/// in (0, kMaxDatagenScale], as GenerateDataset checks.
std::size_t ScaleCount(std::size_t base, double scale,
                       std::size_t minimum = 1);

}  // namespace sper

#endif  // SPER_DATAGEN_GENERATOR_UTIL_H_
