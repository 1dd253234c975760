#include "progressive/pps.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/macros.h"
#include "metablocking/neighborhood.h"
#include "parallel/parallel_for.h"
#include "progressive/top_k.h"

namespace sper {

namespace {

/// Algorithm 5's per-node facts, computed independently per profile.
struct NodeInit {
  double likelihood = 0.0;
  Comparison top;
  std::size_t neighbors = 0;
};

/// A checked profile's accumulator entry: adding a block share (>= 0)
/// leaves it unchanged, and it never reads as a first touch (== 0.0).
constexpr double kChecked = -std::numeric_limits<double>::infinity();

/// One block's share of a refill's gather: the neighbors it reaches and
/// the contribution each of them receives.
struct MemberRange {
  std::span<const ProfileId> members;
  double share = 0.0;
};

}  // namespace

/// One worker's Algorithm 6 state: the sparse neighborhood accumulator
/// (weights[] and its touched list), which also holds checkedEntities for
/// the Sorted Profile List prefix up to `ranked`, the refill's member
/// ranges, and the reusable SortedStack. Sized in full here, on the
/// constructing thread, so a refill never allocates.
struct PpsEmitter::RefillScratch final : BatchSource::Scratch {
  RefillScratch(std::size_t num_profiles, std::size_t max_blocks,
                std::size_t max_neighbors)
      : weights(num_profiles, 0.0),
        // Not zero-filled: a refill writes only the pages it reaches.
        touched(std::make_unique_for_overwrite<ProfileId[]>(num_profiles)),
        ranges(std::make_unique<MemberRange[]>(max_blocks)) {
    // A refill's candidates are some of its profile's neighbors.
    topk.Reserve(max_neighbors);
  }

  /// kChecked for a profile ranked before `ranked`; otherwise its running
  /// weight in the refill under way, 0 until touched.
  std::vector<double> weights;
  /// The refill's unchecked neighbours in first-touch order. |P| entries:
  /// a refill has at most |P| - 1 unchecked neighbours.
  std::unique_ptr<ProfileId[]> touched;
  /// One entry per block of the refill's profile: max |B_i| entries.
  std::unique_ptr<MemberRange[]> ranges;
  TopKBuffer topk;
  std::size_t ranked = 0;
};

PpsEmitter::PpsEmitter(const ProfileStore& store, BlockCollection blocks,
                       const PpsOptions& options)
    : store_(store),
      blocks_(std::move(blocks)),
      index_(blocks_, store.size()),
      weighter_(blocks_, index_, store, options.scheme,
                options.num_threads, options.telemetry),
      options_(options) {
  obs::ScopedPhase phase(options_.telemetry, "profile_scheduling");
  // Algorithm 5: one pass over every node's neighborhood computes the
  // duplication likelihood (mean incident-edge weight) and the node's
  // top-weighted comparison. Nodes are independent, so the pass runs over
  // contiguous profile ranges of equal gather work: a node's work is the
  // member range it scans in each of its blocks, which on Clean-Clean data
  // differs by source. Results land in a per-node slot and are reduced
  // below in id order, making the outcome identical at every thread count.
  const bool clean_clean = blocks_.er_type() == ErType::kCleanClean;
  std::vector<std::uint64_t> work(store_.size());
  ParallelFor(store_.size(), options_.num_threads, [&](std::size_t idx) {
    const ProfileId i = static_cast<ProfileId>(idx);
    std::uint64_t scanned = 0;
    for (BlockId b : index_.BlocksOf(i)) {
      scanned += clean_clean ? blocks_.OppositeSource(b, i).size()
                             : blocks_.block_size(b);
    }
    work[i] = scanned;
  });
  const std::vector<IndexRange> ranges =
      BalancedChunks(work, options_.num_threads);
  work = std::vector<std::uint64_t>();
  // One dense accumulator per range (8 B * |P| each; size num_threads
  // accordingly on huge stores), allocated here so the workers allocate
  // nothing.
  std::vector<NeighborhoodAccumulator> accumulators;
  accumulators.reserve(ranges.size());
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    accumulators.emplace_back(store_.size());
  }
  std::vector<NodeInit> nodes(store_.size());
  ParallelForRanges(ranges, [&](std::size_t r, IndexRange range) {
    for (std::size_t idx = range.begin; idx < range.end; ++idx) {
      const ProfileId i = static_cast<ProfileId>(idx);
      double likelihood_sum = 0.0;
      std::size_t neighbors = 0;
      Comparison top;
      accumulators[r].Gather(
          i, blocks_, index_,
          [&](BlockId b) { return weighter_.BlockContribution(b); },
          [&](ProfileId j, double accumulated) {
            const double w = weighter_.Finalize(i, j, accumulated);
            likelihood_sum += w;
            const Comparison candidate(i, j, w);
            if (neighbors++ == 0 || ByWeightDesc()(candidate, top)) {
              top = candidate;
            }
          });
      if (neighbors == 0) continue;
      nodes[i].likelihood = likelihood_sum / static_cast<double>(neighbors);
      nodes[i].top = top;
      nodes[i].neighbors = neighbors;
    }
  });

  std::vector<Comparison> top_comparisons;
  for (ProfileId i = 0; i < store_.size(); ++i) {
    if (nodes[i].neighbors == 0) continue;
    max_neighbors_ = std::max(max_neighbors_, nodes[i].neighbors);
    max_blocks_ = std::max(max_blocks_, index_.NumBlocksOf(i));
    sorted_profiles_.emplace_back(i, nodes[i].likelihood);
    top_comparisons.push_back(nodes[i].top);
  }
  // topComparisonsSet: a set, so the same pair contributed from both
  // endpoints is stored once. Dedup by the canonical pair key with a
  // stable sort + unique (first-encountered survives, as with a hash
  // set's first insert) — deliberately not an unordered container, whose
  // iteration order would otherwise feed the initial list
  // (tools/lint_determinism.py rule unordered-iteration).
  std::stable_sort(top_comparisons.begin(), top_comparisons.end(),
                   [](const Comparison& a, const Comparison& b) {
                     return PairKey(a.i, a.j) < PairKey(b.i, b.j);
                   });
  top_comparisons.erase(
      std::unique(top_comparisons.begin(), top_comparisons.end(),
                  [](const Comparison& a, const Comparison& b) {
                    return PairKey(a.i, a.j) == PairKey(b.i, b.j);
                  }),
      top_comparisons.end());

  // Sort profiles by decreasing duplication likelihood (deterministic tie
  // on id) and the initial Comparison List by decreasing weight.
  std::sort(sorted_profiles_.begin(), sorted_profiles_.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  initial_.Reserve(top_comparisons.size());
  for (const Comparison& comparison : top_comparisons) {
    initial_.Add(comparison);
  }
  initial_.SortDescending();
}

std::size_t PpsEmitter::RefillBound(std::size_t index) const {
  return index == 0 ? initial_.size()
                    : std::min(options_.kmax, store_.size());
}

std::unique_ptr<BatchSource::Scratch> PpsEmitter::NewScratch() const {
  return std::make_unique<RefillScratch>(store_.size(), max_blocks_,
                                        max_neighbors_);
}

void PpsEmitter::AppendRefill(std::size_t index, Scratch& scratch,
                              ComparisonList& out) const {
  if (index == 0) {
    out.AppendFrom(initial_);
    return;
  }
  RefillScratch& s = static_cast<RefillScratch&>(scratch);
  const std::size_t rank = index - 1;
  const ProfileId i = sorted_profiles_[rank].first;
  // checkedEntities (Algorithm 6) at this rank: exactly the profiles
  // ranked at or before it — the ones a serial run has processed by now —
  // marked kChecked in the accumulator. A worker walks the list forward,
  // so marking the prefix is amortized O(1) per refill; a step back
  // clears the accumulator and re-marks from the start.
  if (s.ranked > rank + 1) {
    std::fill(s.weights.begin(), s.weights.end(), 0.0);
    s.ranked = 0;
  }
  while (s.ranked <= rank) {
    s.weights[sorted_profiles_[s.ranked++].first] = kChecked;
  }

  // Gather unchecked comparable neighbors (Algorithm 6 lines 9-14): a
  // neighbor that was processed earlier had higher duplication likelihood,
  // and its Kmax best comparisons already covered this pair with more
  // reliable evidence. Partition-aware like the init pass. Two steps:
  // first each block's member range and share, so the block-metadata
  // loads of the whole refill are in flight together and the first line
  // of each range is prefetched; then the accumulation, block by block in
  // ascending id order. A checked neighbor's kChecked entry absorbs the
  // share and is never a first touch, so that loop has no checked branch;
  // each first touch is appended unconditionally and kept by advancing
  // `touched_count`. i itself is checked, so the Dirty scan needs no
  // separate j != i test.
  const std::span<const BlockId> blocks_of_i = index_.BlocksOf(i);
  MemberRange* const ranges = s.ranges.get();
  const bool clean_clean = blocks_.er_type() == ErType::kCleanClean;
  for (std::size_t x = 0; x < blocks_of_i.size(); ++x) {
    const BlockId b = blocks_of_i[x];
    const std::span<const ProfileId> members =
        clean_clean ? blocks_.OppositeSource(b, i) : blocks_.members(b);
    __builtin_prefetch(members.data());
    ranges[x] = {members, weighter_.BlockContribution(b)};
  }
  double* const weights = s.weights.data();
  ProfileId* const touched = s.touched.get();
  std::size_t touched_count = 0;
  for (std::size_t x = 0; x < blocks_of_i.size(); ++x) {
    const MemberRange range = ranges[x];
    SPER_DCHECK(range.share >= 0.0);
    for (ProfileId j : range.members) {
      SPER_DCHECK(touched_count < store_.size());
      const double w = weights[j];
      touched[touched_count] = j;
      touched_count += w == 0.0;
      weights[j] = w + range.share;
    }
  }

  // SortedStack (lines 15-18): the reusable top-k selector keeps the Kmax
  // top-weighted comparisons without a per-refill allocation. It stores
  // every candidate, selects once, on their weight words and then on the
  // ties' ids, and appends the kept keys best first (ByWeightDesc is
  // total, so the result is bit-identical to the min-heap reference).
  // Each candidate's accumulator entry is reset as it is read, ready for
  // the next refill.
  s.topk.Assign(options_.kmax, touched_count, [&](std::size_t t) {
    const ProfileId j = touched[t];
    const Comparison candidate(i, j, weighter_.Finalize(i, j, weights[j]));
    weights[j] = 0.0;
    return candidate;
  });
  s.topk.AppendDescending(out);
}

std::optional<Comparison> PpsEmitter::Next() {
  if (comparisons_.Empty() && !ProduceBatch(comparisons_)) {
    return std::nullopt;
  }
  return comparisons_.PopFirst();
}

}  // namespace sper
