#include "progressive/pbs.h"

#include "blocking/block_scheduling.h"

namespace sper {

PbsEmitter::PbsEmitter(const ProfileStore& store,
                       const BlockCollection& blocks,
                       const PbsOptions& options)
    : store_(store),
      scheduled_(BlockScheduling(blocks, options.telemetry)),
      index_(scheduled_, store.size(), options.num_threads),
      weighter_(scheduled_, index_, store, options.scheme,
                options.num_threads, options.telemetry) {}

std::size_t PbsEmitter::RefillBound(std::size_t index) const {
  return static_cast<std::size_t>(
      scheduled_.Cardinality(static_cast<BlockId>(index)));
}

std::unique_ptr<BatchSource::Scratch> PbsEmitter::NewScratch() const {
  return std::make_unique<Scratch>();
}

void PbsEmitter::AppendRefill(std::size_t index, Scratch& /*scratch*/,
                              ComparisonList& out) const {
  const BlockId id = static_cast<BlockId>(index);
  const std::size_t begin = out.size();
  scheduled_.ForEachComparison(id, [&](ProfileId i, ProfileId j) {
    // One pass over the two block lists serves both operations of the
    // Profile Index: the LeCoBI repetition test (is `id` the least common
    // block of i and j?) and Edge Weighting (accumulate contributions).
    BlockId least = kInvalidBlock;
    double accumulated = 0.0;
    index_.ForEachCommonBlock(i, j, [&](BlockId b) {
      if (least == kInvalidBlock) least = b;
      accumulated += weighter_.BlockContribution(b);
    });
    // least < id would mean the pair already appeared in an earlier block
    // (repeated comparison); least > id is impossible because `id`
    // contains both profiles.
    if (least != id) return;
    out.Add(Comparison(i, j, weighter_.Finalize(i, j, accumulated)));
  });
  out.SortDescending(begin);
}

std::optional<Comparison> PbsEmitter::Next() {
  if (comparisons_.Empty() && !ProduceBatch(comparisons_)) {
    return std::nullopt;
  }
  return comparisons_.PopFirst();
}

}  // namespace sper
