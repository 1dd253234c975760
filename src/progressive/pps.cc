#include "progressive/pps.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <memory_resource>
#include <span>
#include <utility>
#include <vector>

#include "core/macros.h"
#include "core/page_resource.h"
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

}  // namespace

/// One worker's Algorithm 6 state: the sparse neighborhood accumulator
/// (weights[] and its touched list), which also holds checkedEntities for
/// the Sorted Profile List prefix up to `ranked`, the refill's member
/// ranges, and the reusable SortedStack. Sized in full here, on the
/// constructing thread, so a refill never allocates.
struct PpsEmitter::RefillScratch final : BatchSource::Scratch {
  RefillScratch(std::size_t num_profiles, std::size_t max_blocks,
                std::size_t max_neighbors)
      // Neither is written here: a refill writes only the pages it
      // reaches, and the accumulator's zero pages read as 0.0.
      : weights(num_profiles),
        touched(std::make_unique_for_overwrite<ProfileId[]>(num_profiles)),
        ranges(std::make_unique<MemberRange[]>(max_blocks)) {
    // A refill's candidates are some of its profile's neighbors.
    topk.Reserve(max_neighbors);
  }

  /// kChecked for a profile ranked before `ranked`; otherwise its running
  /// weight in the refill under way, 0 until touched.
  ZeroedPages<double> weights;
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
      index_(blocks_, store.size(), options.num_threads),
      weighter_(blocks_, index_, store, options.scheme,
                options.num_threads, options.telemetry),
      options_(options) {
  obs::ScopedPhase phase(options_.telemetry, "profile_scheduling");
  // Algorithm 5: one pass over every node's neighborhood computes the
  // duplication likelihood (mean incident-edge weight) and the node's
  // top-weighted comparison. It gathers with Gather(), as a refill does.
  // Nodes are independent, so the pass runs over contiguous profile
  // ranges of equal gather work: a node's work is the member range it
  // scans in each of its blocks, which on Clean-Clean data differs by
  // source. Results land in a per-node slot and are reduced below in id
  // order, making the outcome identical at every thread count.
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
  // Each range's gather buffers: the accumulator and the touched list of
  // one node's neighbors, 12 B * |P| in all (size num_threads accordingly
  // on huge stores), plus its block ranges. They are sized here so the
  // workers allocate nothing, and are page mappings of their own
  // (core/page_resource.h), returned whole when the pass ends. The
  // accumulator starts as zero pages, so the gathers write only the
  // entries they reach.
  for (ProfileId i = 0; i < store_.size(); ++i) {
    max_blocks_ = std::max(max_blocks_, index_.NumBlocksOf(i));
  }
  struct RangeScratch {
    ZeroedPages<double> weights;
    ZeroedPages<ProfileId> touched;
    std::pmr::vector<MemberRange> ranges{Pages()};
  };
  std::vector<RangeScratch> scratch(ranges.size());
  for (RangeScratch& s : scratch) {
    s.weights = ZeroedPages<double>(store_.size());
    s.touched = ZeroedPages<ProfileId>(store_.size());
    s.ranges.resize(max_blocks_);
  }
  std::vector<NodeInit> nodes(store_.size());
  // The pass is kept out of line: inlined into the constructor, the
  // one-range pass ran about 18% slower (GCC 12).
  ParallelForRanges(ranges, [&](std::size_t r, IndexRange range)
                                __attribute__((noinline)) {
    RangeScratch& s = scratch[r];
    double* const weights = s.weights.data();
    ProfileId* const touched = s.touched.data();
    for (std::size_t idx = range.begin; idx < range.end; ++idx) {
      const ProfileId i = static_cast<ProfileId>(idx);
      // i marks itself checked for its own gather: that leaves it out of
      // a Dirty ER block's members without a j != i test.
      weights[i] = kChecked;
      const std::size_t neighbors =
          Gather(i, s.ranges.data(), weights, touched);
      weights[i] = 0.0;
      if (neighbors == 0) continue;
      // The likelihood sums the weights in first-touch order, the order
      // of the seed's gather, so every likelihood is bit-identical to it.
      // The same loop keeps the top comparison under ByWeightDesc: the
      // largest weight (whose IEEE words order as the weights do, see
      // ComparisonKey), then the smallest pair, which for a fixed i is the
      // smallest j. It is a select, not a branch, and runs beside the
      // sum's dependency chain.
      double likelihood_sum = 0.0;
      std::uint64_t top_word = 0;
      ProfileId top_j = kInvalidProfile;
      for (std::size_t t = 0; t < neighbors; ++t) {
        const ProfileId j = touched[t];
        const double w = weighter_.Finalize(i, j, weights[j]);
        weights[j] = 0.0;
        likelihood_sum += w;
        const std::uint64_t word = std::bit_cast<std::uint64_t>(w);
        const bool better =
            (word > top_word) | ((word == top_word) & (j < top_j));
        top_word = better ? word : top_word;
        top_j = better ? j : top_j;
      }
      nodes[i].likelihood = likelihood_sum / static_cast<double>(neighbors);
      nodes[i].top = Comparison(i, top_j, std::bit_cast<double>(top_word));
      nodes[i].neighbors = neighbors;
    }
  });

  // topComparisonsSet: a set, so a pair that is the top comparison of
  // both its endpoints is stored once, from the smaller id, as the first
  // insert into a set would keep it (the two copies' ECBS and EJS weights
  // can differ in the last bit). Node i skips its top (i, j) when j < i
  // already holds it; no container decides an order.
  std::vector<Comparison> top_comparisons;
  for (ProfileId i = 0; i < store_.size(); ++i) {
    if (nodes[i].neighbors == 0) continue;
    max_neighbors_ = std::max(max_neighbors_, nodes[i].neighbors);
    sorted_profiles_.emplace_back(i, nodes[i].likelihood);
    const Comparison& top = nodes[i].top;
    const ProfileId j = top.i == i ? top.j : top.i;
    if (j < i && nodes[j].top.SamePair(top)) continue;
    top_comparisons.push_back(top);
  }

  // Sort profiles by decreasing duplication likelihood (deterministic tie
  // on id) and the initial Comparison List by decreasing weight. Both
  // orders are total, so the threads do not change them.
  ParallelSort(std::span(sorted_profiles_), options_.num_threads,
               [](const auto& a, const auto& b) {
                 if (a.second != b.second) return a.second > b.second;
                 return a.first < b.first;
               });
  ParallelSort(std::span(top_comparisons), options_.num_threads,
               ByWeightDesc());
  initial_.Reserve(top_comparisons.size());
  for (const Comparison& comparison : top_comparisons) {
    initial_.Add(comparison);
  }
}

std::size_t PpsEmitter::Gather(ProfileId i, MemberRange* ranges,
                               double* weights, ProfileId* touched) const {
  // Partition-aware: Clean-Clean ER scans only the opposite source of each
  // block. Two steps: first each block's member range and share, so the
  // block-metadata loads of the whole gather are in flight together and
  // the first line of each range is prefetched; then the accumulation,
  // block by block in ascending id order. A checked neighbor's kChecked
  // entry absorbs the share and is never a first touch, so that loop has
  // no checked branch; each first touch is appended unconditionally and
  // kept by advancing `touched_count`.
  const std::span<const BlockId> blocks_of_i = index_.BlocksOf(i);
  const bool clean_clean = blocks_.er_type() == ErType::kCleanClean;
  for (std::size_t x = 0; x < blocks_of_i.size(); ++x) {
    const BlockId b = blocks_of_i[x];
    const std::span<const ProfileId> members =
        clean_clean ? blocks_.OppositeSource(b, i) : blocks_.members(b);
    __builtin_prefetch(members.data());
    ranges[x] = {members, weighter_.BlockContribution(b)};
  }
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
  return touched_count;
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
    std::fill_n(s.weights.data(), s.weights.size(), 0.0);
    s.ranked = 0;
  }
  while (s.ranked <= rank) {
    s.weights[sorted_profiles_[s.ranked++].first] = kChecked;
  }

  // Gather unchecked comparable neighbors (Algorithm 6 lines 9-14): a
  // neighbor that was processed earlier had higher duplication likelihood,
  // and its Kmax best comparisons already covered this pair with more
  // reliable evidence. i itself is checked.
  double* const weights = s.weights.data();
  ProfileId* const touched = s.touched.get();
  const std::size_t touched_count =
      Gather(i, s.ranges.get(), weights, touched);

  // SortedStack (lines 15-18): the reusable top-k selector keeps the Kmax
  // top-weighted comparisons without a per-refill allocation. It stores
  // every candidate, selects once, on their weight words and then on the
  // ties' ids, and appends the kept keys best first (ByWeightDesc is
  // total, so the result is bit-identical to the min-heap reference). To
  // order them it merges the descending runs they arrive in: the gather
  // lists each block's first touches by ascending id, and most of them
  // carry that block's share. Each candidate's accumulator entry is reset
  // as it is read, ready for the next refill.
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
