#ifndef SPER_PROGRESSIVE_EMITTER_H_
#define SPER_PROGRESSIVE_EMITTER_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string_view>

#include "core/comparison.h"
#include "progressive/comparison_list.h"

/// \file emitter.h
/// The streaming interface every progressive method implements.
///
/// The paper splits a progressive method into an *initialization phase*
/// (build data structures, produce the overall best comparison) and an
/// *emission phase* (return the next best comparison on demand). Here the
/// constructor is the initialization phase and Next() the emission phase —
/// the RocksDB-iterator idiom for the paper's pay-as-you-go contract: the
/// caller can stop after any number of Next() calls.

namespace sper {

/// Pull-based stream of comparisons in non-increasing estimated matching
/// likelihood (within each internal refill batch).
///
/// Lifetime: emitters keep a reference to the ProfileStore they were
/// constructed with (like a RocksDB Iterator references its DB). The
/// store must outlive the emitter; do not pass a temporary.
class ProgressiveEmitter {
 public:
  virtual ~ProgressiveEmitter() = default;

  /// Emission phase: the next best comparison, or std::nullopt once the
  /// method is exhausted. Naïve methods (SA-PSN, SA-PSAB) may emit the
  /// same pair more than once, exactly as in the paper; callers that need
  /// distinct pairs deduplicate via PairKey.
  virtual std::optional<Comparison> Next() = 0;

  /// Short method acronym, e.g. "PPS".
  virtual std::string_view name() const = 0;
};

/// Optional capability of the Comparison-List methods (PBS, PPS): the
/// emission phase as a fixed sequence of refill batches, each a pure
/// function of the built state and its index. Concatenating every batch in
/// index order is exactly the serial Next() sequence, so any number of
/// workers can produce batches concurrently and out of order (the emission
/// pipeline, parallel/emission_pipeline.h) while a consumer still reads
/// them in order.
class BatchSource {
 public:
  /// One worker's mutable refill state (accumulators, buffers): each
  /// concurrent caller of AppendRefill brings its own.
  class Scratch {
   public:
    virtual ~Scratch() = default;
  };

  virtual ~BatchSource() = default;

  /// Refill batches in the stream; some may be empty.
  virtual std::size_t num_refills() const = 0;

  /// Upper bound on the comparisons batch `index` holds, fixed by the
  /// built state — lets a pipeline size its slots before producing
  /// anything.
  virtual std::size_t RefillBound(std::size_t index) const = 0;

  /// Fresh scratch for one worker.
  virtual std::unique_ptr<Scratch> NewScratch() const = 0;

  /// Appends batch `index` (< num_refills()) to `out`, in non-increasing
  /// likelihood order, leaving `out`'s earlier content alone. Thread-safe
  /// across distinct scratches; the result does not depend on which
  /// batches a scratch saw before.
  virtual void AppendRefill(std::size_t index, Scratch& scratch,
                            ComparisonList& out) const = 0;
};

/// The serial walk over a BatchSource — the Next() path of PBS and PPS.
class RefillCursor {
 public:
  /// Fills `out` (previous content discarded) with the next non-empty
  /// batch. False once every batch was produced.
  bool Next(const BatchSource& source, ComparisonList& out) {
    if (scratch_ == nullptr) scratch_ = source.NewScratch();
    while (next_ < source.num_refills()) {
      out.Clear();
      source.AppendRefill(next_++, *scratch_, out);
      if (!out.Empty()) return true;
    }
    return false;
  }

 private:
  std::size_t next_ = 0;
  std::unique_ptr<BatchSource::Scratch> scratch_;
};

}  // namespace sper

#endif  // SPER_PROGRESSIVE_EMITTER_H_
