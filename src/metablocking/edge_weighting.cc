#include "metablocking/edge_weighting.h"

#include <cmath>
#include <string>

#include "core/macros.h"
#include "metablocking/neighborhood.h"
#include "parallel/parallel_for.h"

namespace sper {

WeightingScheme ParseWeightingScheme(std::string_view name) {
  if (name == "arcs") return WeightingScheme::kArcs;
  if (name == "cbs") return WeightingScheme::kCbs;
  if (name == "js") return WeightingScheme::kJs;
  if (name == "ecbs") return WeightingScheme::kEcbs;
  if (name == "ejs") return WeightingScheme::kEjs;
  SPER_CHECK(false && "unknown weighting scheme");
  return WeightingScheme::kArcs;
}

const char* ToString(WeightingScheme scheme) {
  switch (scheme) {
    case WeightingScheme::kArcs:
      return "arcs";
    case WeightingScheme::kCbs:
      return "cbs";
    case WeightingScheme::kJs:
      return "js";
    case WeightingScheme::kEcbs:
      return "ecbs";
    case WeightingScheme::kEjs:
      return "ejs";
  }
  return "unknown";
}

EdgeWeighter::EdgeWeighter(const BlockCollection& blocks,
                           const ProfileIndex& index,
                           const ProfileStore& store, WeightingScheme scheme,
                           std::size_t num_threads,
                           obs::TelemetryScope telemetry)
    : blocks_(blocks), index_(index), scheme_(scheme) {
  obs::ScopedPhase timer(telemetry, "edge_weighting");
  log_num_blocks_ =
      blocks_.size() > 0 ? std::log10(static_cast<double>(blocks_.size()))
                         : 0.0;
  if (scheme_ == WeightingScheme::kEjs) ComputeDegrees(store, num_threads);
}

void EdgeWeighter::ComputeDegrees(const ProfileStore& store,
                                  std::size_t num_threads) {
  degrees_.assign(store.size(), 0);
  // Each chunk owns a contiguous range of profiles: degrees_[i] is only
  // written by i's chunk, and the per-chunk edge counts are summed in
  // chunk order, so the result is thread-count invariant. Each chunk's
  // accumulator is allocated here, so the workers allocate nothing.
  const std::vector<IndexRange> chunks =
      StaticChunks(store.size(), num_threads);
  std::vector<std::uint64_t> chunk_twice_edges(chunks.size(), 0);
  std::vector<NeighborhoodAccumulator> accumulators;
  accumulators.reserve(chunks.size());
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    accumulators.emplace_back(store.size());
  }
  ParallelForRanges(chunks, [&](std::size_t chunk, IndexRange range) {
    NeighborhoodAccumulator& acc = accumulators[chunk];
    std::uint64_t twice_edges = 0;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      acc.Gather(static_cast<ProfileId>(i), blocks_, index_,
                 [](BlockId) { return 1.0; },
                 [&](ProfileId, double) {
                   ++degrees_[i];
                   ++twice_edges;
                 });
    }
    chunk_twice_edges[chunk] = twice_edges;
  });
  std::uint64_t twice_edges = 0;
  for (std::uint64_t count : chunk_twice_edges) twice_edges += count;
  const double num_edges = static_cast<double>(twice_edges) / 2.0;
  log_num_edges_ = num_edges > 0 ? std::log10(num_edges) : 0.0;
}

double EdgeWeighter::FinalizeNormalized(ProfileId i, ProfileId j,
                                        double accumulated) const {
  const double bi = static_cast<double>(index_.NumBlocksOf(i));
  const double bj = static_cast<double>(index_.NumBlocksOf(j));
  switch (scheme_) {
    case WeightingScheme::kArcs:
    case WeightingScheme::kCbs:
      return accumulated;
    case WeightingScheme::kJs: {
      const double denom = bi + bj - accumulated;
      return denom > 0 ? accumulated / denom : 0.0;
    }
    case WeightingScheme::kEcbs: {
      if (bi == 0 || bj == 0) return 0.0;
      return accumulated * (log_num_blocks_ - std::log10(bi)) *
             (log_num_blocks_ - std::log10(bj));
    }
    case WeightingScheme::kEjs: {
      const double denom = bi + bj - accumulated;
      const double js = denom > 0 ? accumulated / denom : 0.0;
      const double di = static_cast<double>(degrees_[i]);
      const double dj = static_cast<double>(degrees_[j]);
      if (di == 0 || dj == 0) return 0.0;
      return js * (log_num_edges_ - std::log10(di)) *
             (log_num_edges_ - std::log10(dj));
    }
  }
  return 0.0;
}

double EdgeWeighter::Weight(ProfileId i, ProfileId j) const {
  double accumulated = 0.0;
  index_.ForEachCommonBlock(
      i, j, [&](BlockId b) { accumulated += BlockContribution(b); });
  if (accumulated == 0.0) return 0.0;
  return Finalize(i, j, accumulated);
}

}  // namespace sper
