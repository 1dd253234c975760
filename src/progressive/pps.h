#ifndef SPER_PROGRESSIVE_PPS_H_
#define SPER_PROGRESSIVE_PPS_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "blocking/block_collection.h"
#include "blocking/profile_index.h"
#include "core/profile_store.h"
#include "metablocking/edge_weighting.h"
#include "obs/telemetry.h"
#include "progressive/comparison_list.h"
#include "progressive/emitter.h"

/// \file pps.h
/// Progressive Profile Scheduling (PPS, paper Sec. 5.2.2, Algorithms 5-6).
///
/// Entity-centric: every profile gets a *duplication likelihood* — the
/// average weight of its incident blocking-graph edges — and profiles are
/// resolved in decreasing order of it (the Sorted Profile List). The
/// initialization phase additionally collects the single best comparison
/// of every node, so the globally best edges are emitted first; during
/// emission each profile contributes its Kmax best comparisons, skipping
/// neighbors that were already processed (checkedEntities).

namespace sper {

/// Options of PPS.
struct PpsOptions {
  /// Blocking-graph edge-weighting scheme.
  WeightingScheme scheme = WeightingScheme::kArcs;
  /// Top-weighted comparisons kept per profile during emission. Must
  /// exceed the largest plausible equivalence-cluster size, or recall is
  /// capped (a cluster of k duplicates needs up to k-1 emissions from one
  /// profile). Use SIZE_MAX to retain whole neighborhoods (then every
  /// graph edge is eventually emitted — the Same Eventual Quality
  /// configuration).
  std::size_t kmax = 100;
  /// Threads for the initialization phase (per-profile duplication
  /// likelihoods + top comparisons, over profile ranges of equal gather
  /// work, each with its own 8 B·|P| accumulator). Emission may run on
  /// other threads
  /// through the BatchSource interface. The emitted sequence is identical
  /// at every thread count.
  std::size_t num_threads = 1;
  /// Telemetry sink for the initialization phase timers
  /// ("edge_weighting", "profile_scheduling").
  obs::TelemetryScope telemetry;
};

/// The PPS emitter.
class PpsEmitter : public ProgressiveEmitter, public BatchSource {
 public:
  /// Initialization phase (Algorithm 5): builds the Profile Index over
  /// `blocks`, computes per-profile duplication likelihoods, the Sorted
  /// Profile List and the top-weighted comparison of every node. Takes the
  /// collection by value (move it in to avoid the copy).
  PpsEmitter(const ProfileStore& store, BlockCollection blocks,
             const PpsOptions& options = {});

  /// Emission phase (Algorithm 6): pops from the Comparison List; when it
  /// empties, processes the next profile of the Sorted Profile List,
  /// gathering its Kmax best comparisons among not-yet-checked neighbors.
  std::optional<Comparison> Next() override;

  /// The serial refill walk behind Next(): fills `out` with the next
  /// non-empty batch (the initial top-comparison list, then one per Sorted
  /// Profile List entry). Advances the same cursor as Next().
  bool ProduceBatch(ComparisonList& out) { return refills_.Next(*this, out); }

  std::string_view name() const override { return "PPS"; }

  /// Batch 0 is the initial top-comparison list; batch r + 1 processes
  /// the profile at Sorted Profile List rank r.
  std::size_t num_refills() const override {
    return sorted_profiles_.size() + 1;
  }
  std::size_t RefillBound(std::size_t index) const override;
  std::unique_ptr<Scratch> NewScratch() const override;
  void AppendRefill(std::size_t index, Scratch& scratch,
                    ComparisonList& out) const override;

  /// The Sorted Profile List as (profile, duplication likelihood) pairs in
  /// processing order (diagnostics / tests).
  const std::vector<std::pair<ProfileId, double>>& sorted_profiles() const {
    return sorted_profiles_;
  }

 private:
  struct RefillScratch;

  const ProfileStore& store_;
  BlockCollection blocks_;
  ProfileIndex index_;
  EdgeWeighter weighter_;
  PpsOptions options_;

  std::vector<std::pair<ProfileId, double>> sorted_profiles_;
  // Refill scratch sizes: the most neighbors and the most blocks of any
  // profile in sorted_profiles_.
  std::size_t max_neighbors_ = 0;
  std::size_t max_blocks_ = 0;
  ComparisonList initial_;  // batch 0: every node's top comparison
  RefillCursor refills_;  // Next()'s walk
  ComparisonList comparisons_;  // Next()'s current batch
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_PPS_H_
