#ifndef SPER_METABLOCKING_EDGE_WEIGHTING_H_
#define SPER_METABLOCKING_EDGE_WEIGHTING_H_

#include <string_view>
#include <vector>

#include "blocking/block_collection.h"
#include "blocking/profile_index.h"
#include "core/profile_store.h"
#include "core/types.h"
#include "obs/telemetry.h"

/// \file edge_weighting.h
/// The schema-agnostic edge-weighting functions of Meta-blocking [12, 20].
/// Every scheme derives the weight of the blocking-graph edge (i, j)
/// exclusively from the blocks the two profiles have in common, assigning
/// high weights to strong co-occurrence patterns.
///
/// All schemes decompose into a per-common-block accumulation plus a
/// finalization step, which is exactly the shape PPS's neighborhood pass
/// needs (Algorithm 5, line 10: `weights[j] += wScheme(pj, pi, bk)`).

namespace sper {

/// The edge-weighting schemes of the meta-blocking literature.
enum class WeightingScheme {
  /// ARCS: Σ_{b ∈ B_i ∩ B_j} 1/||b|| — smaller shared blocks count more.
  /// The paper's workflow step 4 and the scheme behind Figs. 3c, 7, 8.
  kArcs,
  /// CBS: |B_i ∩ B_j| — plain number of common blocks.
  kCbs,
  /// JS: |B_i ∩ B_j| / (|B_i| + |B_j| - |B_i ∩ B_j|) — Jaccard of the
  /// block lists.
  kJs,
  /// ECBS: CBS * log(|B|/|B_i|) * log(|B|/|B_j|) — CBS discounted for
  /// profiles that appear in many blocks.
  kEcbs,
  /// EJS: JS * log(|E|/deg(i)) * log(|E|/deg(j)) — JS discounted by node
  /// degree; requires a full graph pass to compute degrees.
  kEjs,
};

/// Parses "arcs" / "cbs" / "js" / "ecbs" / "ejs".
WeightingScheme ParseWeightingScheme(std::string_view name);
/// Scheme name in lowercase.
const char* ToString(WeightingScheme scheme);

/// Computes blocking-graph edge weights from a Profile Index.
///
/// Thread-compatible: const methods are safe to call concurrently.
class EdgeWeighter {
 public:
  /// `blocks` and `index` must outlive the weighter. For kEjs the
  /// constructor performs one full graph pass to collect node degrees;
  /// `num_threads` parallelizes that pass over profile chunks with
  /// per-thread neighborhood accumulators (identical degrees at every
  /// thread count). `telemetry` records construction as phase
  /// "edge_weighting".
  EdgeWeighter(const BlockCollection& blocks, const ProfileIndex& index,
               const ProfileStore& store, WeightingScheme scheme,
               std::size_t num_threads = 1,
               obs::TelemetryScope telemetry = {});

  /// Weight of the edge (i, j), walking their common blocks.
  /// Returns 0 when the profiles share no block.
  double Weight(ProfileId i, ProfileId j) const;

  /// The contribution one shared block adds to the running accumulator
  /// (ARCS: 1/||b||; every other scheme: 1). Never negative: PPS's refill
  /// gather marks checked profiles with -infinity and relies on a share
  /// leaving that mark unchanged. Defined here so the PPS and
  /// meta-blocking gather loops inline it once per block.
  double BlockContribution(BlockId b) const {
    if (scheme_ == WeightingScheme::kArcs) {
      const double card = static_cast<double>(blocks_.Cardinality(b));
      return card > 0 ? 1.0 / card : 0.0;
    }
    return 1.0;
  }

  /// Turns an accumulated contribution into the final edge weight
  /// (identity for ARCS/CBS, inlined per neighbor; normalization factors
  /// for JS/ECBS/EJS).
  double Finalize(ProfileId i, ProfileId j, double accumulated) const {
    if (accumulated <= 0.0) return 0.0;
    if (scheme_ == WeightingScheme::kArcs ||
        scheme_ == WeightingScheme::kCbs) {
      return accumulated;
    }
    return FinalizeNormalized(i, j, accumulated);
  }

  /// The scheme in use.
  WeightingScheme scheme() const { return scheme_; }

 private:
  void ComputeDegrees(const ProfileStore& store, std::size_t num_threads);
  /// Finalize for JS, ECBS and EJS (`accumulated` > 0).
  double FinalizeNormalized(ProfileId i, ProfileId j,
                            double accumulated) const;

  const BlockCollection& blocks_;
  const ProfileIndex& index_;
  WeightingScheme scheme_;
  double log_num_blocks_ = 0.0;
  // kEjs only: node degrees and log of total edge count.
  std::vector<std::uint32_t> degrees_;
  double log_num_edges_ = 0.0;
};

}  // namespace sper

#endif  // SPER_METABLOCKING_EDGE_WEIGHTING_H_
