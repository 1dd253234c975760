#include "engine/progressive_engine.h"

#include <algorithm>
#include <cctype>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "core/macros.h"
#include "obs/fault_injection.h"
#include "obs/telemetry.h"
#include "progressive/gs_psn.h"
#include "progressive/ls_psn.h"
#include "progressive/pbs.h"
#include "progressive/pps.h"
#include "progressive/psn.h"
#include "progressive/sa_psab.h"
#include "progressive/sa_psn.h"
#include "progressive/workflow.h"

namespace sper {

namespace {

/// Emission pipeline geometry. A slot holds one group: up to
/// kRefillsPerSlot consecutive refills whose RefillBounds sum to at most
/// kSlotItems comparisons (a larger refill gets a slot of its own), and a
/// plain engine runs kSlotsPerWorker slots per refill worker.
constexpr std::size_t kRefillsPerSlot = 64;
constexpr std::size_t kSlotItems = 8192;
constexpr std::size_t kSlotsPerWorker = 4;

/// The pipeline's groups: where each starts (plus the end), and the
/// largest group's comparison bound.
struct Groups {
  std::vector<std::size_t> starts;
  std::size_t largest = 0;
};

/// Cuts the refills into the pipeline's groups. The cut depends only on
/// the built state, never on produced content or timing.
Groups CutGroups(const BatchSource& source) {
  Groups groups;
  std::size_t items = 0;
  for (std::size_t k = 0; k < source.num_refills(); ++k) {
    const std::size_t bound = source.RefillBound(k);
    if (groups.starts.empty() ||
        k - groups.starts.back() == kRefillsPerSlot || items > kSlotItems ||
        bound > kSlotItems - items) {
      groups.starts.push_back(k);
      items = 0;
    }
    items += bound;
    groups.largest = std::max(groups.largest, items);
  }
  groups.starts.push_back(source.num_refills());
  return groups;
}

}  // namespace

std::string_view ToString(MethodId id) {
  switch (id) {
    case MethodId::kPsn:
      return "PSN";
    case MethodId::kSaPsn:
      return "SA-PSN";
    case MethodId::kSaPsab:
      return "SA-PSAB";
    case MethodId::kLsPsn:
      return "LS-PSN";
    case MethodId::kGsPsn:
      return "GS-PSN";
    case MethodId::kPbs:
      return "PBS";
    case MethodId::kPps:
      return "PPS";
  }
  return "?";
}

bool MethodHasBatchRefills(MethodId id) {
  return id == MethodId::kPbs || id == MethodId::kPps;
}

std::optional<MethodId> ParseMethodId(std::string_view name) {
  // Case-insensitive, and '_' is accepted for '-' so shell-friendly
  // spellings like "pps" or "sa_psn" parse.
  const auto canonical = [](std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '_') c = '-';
      out.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    return out;
  };
  const std::string wanted = canonical(name);
  for (MethodId id :
       {MethodId::kPsn, MethodId::kSaPsn, MethodId::kSaPsab,
        MethodId::kLsPsn, MethodId::kGsPsn, MethodId::kPbs, MethodId::kPps}) {
    if (wanted == ToString(id)) return id;
  }
  return std::nullopt;
}

ProgressiveEngine::ProgressiveEngine(const ProfileStore& store,
                                     const ResolverOptions& options,
                                     std::string label)
    : label_(std::move(label)) {
  const obs::Stopwatch init_watch;
  budget_ = options.budget;
  const obs::TelemetryScope& scope = options.telemetry;

  // The blocking workflow of the equality-based methods, timed per step.
  // Its phases land in stats_.phases before "method_build" (the emitter
  // construction that follows it); finer method sub-phases
  // ("block_scheduling", "edge_weighting", "profile_scheduling") are
  // recorded registry-side by the callees themselves.
  const auto run_workflow = [&](const ProfileStore& s) {
    TokenWorkflowOptions workflow = options.workflow;
    workflow.num_threads = options.num_threads;
    workflow.telemetry = scope;
    TokenWorkflowTiming timing;
    BlockCollection blocks = BuildTokenWorkflowBlocks(s, workflow, &timing);
    stats_.phases.push_back(
        {"token_blocking", 0, timing.token_blocking_seconds});
    if (workflow.enable_purging) {
      stats_.phases.push_back({"block_purging", 0, timing.purging_seconds});
    }
    if (workflow.enable_filtering) {
      stats_.phases.push_back(
          {"block_filtering", 0, timing.filtering_seconds});
    }
    stats_.num_blocks = blocks.size();
    stats_.aggregate_cardinality = blocks.AggregateCardinality();
    return blocks;
  };

  std::optional<BlockCollection> workflow_blocks;
  if (MethodHasBatchRefills(options.method)) {
    workflow_blocks.emplace(run_workflow(store));
  }

  double method_seconds = 0.0;
  {
    obs::ScopedPhase method_phase(scope, "method_build", &method_seconds);
    switch (options.method) {
    case MethodId::kPsn:
      SPER_CHECK(options.schema_key != nullptr &&
                 "kPsn requires ResolverOptions::schema_key");
      inner_ = std::make_unique<PsnEmitter>(store, options.schema_key,
                                            options.list);
      break;
    case MethodId::kSaPsn:
      inner_ = std::make_unique<SaPsnEmitter>(store, options.list);
      break;
    case MethodId::kSaPsab:
      inner_ = std::make_unique<SaPsabEmitter>(store, options.suffix);
      break;
    case MethodId::kLsPsn:
      inner_ = std::make_unique<LsPsnEmitter>(store, options.list);
      break;
    case MethodId::kGsPsn: {
      GsPsnOptions gs;
      gs.wmax = options.gs_wmax;
      gs.list = options.list;
      inner_ = std::make_unique<GsPsnEmitter>(store, gs);
      break;
    }
    case MethodId::kPbs: {
      PbsOptions pbs;
      pbs.scheme = options.scheme;
      pbs.num_threads = options.num_threads;
      pbs.telemetry = scope;
      inner_ = std::make_unique<PbsEmitter>(store, *workflow_blocks, pbs);
      break;
    }
    case MethodId::kPps: {
      PpsOptions pps;
      pps.scheme = options.scheme;
      pps.kmax = options.pps_kmax;
      pps.num_threads = options.num_threads;
      pps.telemetry = scope;
      inner_ = std::make_unique<PpsEmitter>(store,
                                            std::move(*workflow_blocks), pps);
      break;
    }
    }
  }
  stats_.phases.push_back({"method_build", 0, method_seconds});
  SPER_CHECK(inner_ != nullptr && "unknown method");

  // Refill workers. A plain engine runs num_threads of them over
  // kSlotsPerWorker slots each; a shard of a ShardedEngine runs one over
  // `lookahead` slots. Scratch and slots are allocated here, once; the
  // workers start with the first pull, so set-up is not shared with them.
  batch_source_ = dynamic_cast<BatchSource*>(inner_.get());
  fault_site_ = label_.empty() ? "refill" : "refill." + label_;
  if (batch_source_ != nullptr) {
    std::size_t workers = 1;
    std::size_t slots = 0;
    if (options.num_shards == 1 && options.num_threads > 1) {
      workers = options.num_threads;
      slots = kSlotsPerWorker * workers;
    } else if (options.num_shards > 1) {
      slots = options.lookahead;
    }
    for (std::size_t w = 0; w < workers; ++w) {
      scratch_.push_back(batch_source_->NewScratch());
    }
    if (slots > 0) {
      if (scope.enabled()) {
        pipeline_metrics_.batches = scope.counter("pipeline.batches");
        pipeline_metrics_.producer_stalls =
            scope.counter("pipeline.producer_stalls");
        pipeline_metrics_.consumer_waits =
            scope.counter("pipeline.consumer_waits");
        pipeline_metrics_.refill_ns = scope.histogram("pipeline.refill_ns");
        pipeline_metrics_.ring_occupancy =
            scope.histogram("pipeline.ring_occupancy");
      }
      // Refill workers never allocate: a thread's first malloc ties it to
      // a malloc arena of its own, which measurably raised peak RSS. So
      // every slot holds the largest group up front, up to one comparison
      // per profile (only a larger PBS block then grows its slot).
      Groups groups = CutGroups(*batch_source_);
      const std::size_t slot_reserve =
          std::max(kSlotItems, std::min(groups.largest, store.size()));
      pipeline_ = std::make_unique<EmissionPipeline<ComparisonList>>(
          std::move(groups.starts), workers, slots, slot_reserve,
          [this](std::size_t worker, std::size_t index, ComparisonList& out) {
            Refill(worker, index, out);
          },
          scope.enabled() ? &pipeline_metrics_ : nullptr);
    }
  }

  stats_.init_seconds = init_watch.ElapsedSeconds();
  scope.RecordSpan("init", init_watch.start(), obs::Stopwatch::Now());
  if (obs::Gauge* total = scope.gauge("phase.init_seconds");
      total != nullptr) {
    total->Add(stats_.init_seconds);
  }
}

PullStatus ProgressiveEngine::Poison(std::size_t batch_index,
                                     std::exception_ptr error) {
  std::string what = "unknown error";
  try {
    std::rethrow_exception(std::move(error));
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  status_ = Status::Internal(
      "refill producer failed (" + (label_.empty() ? "engine" : label_) +
      ", batch " + std::to_string(batch_index) + "): " + what);
  return PullStatus::kError;
}

void ProgressiveEngine::Refill(std::size_t worker, std::size_t index,
                               ComparisonList& out) {
  SPER_FAULT_HIT_AT(fault_site_, index);
  batch_source_->AppendRefill(index, *scratch_[worker], out);
}

PullStatus ProgressiveEngine::PipelinedBatch(const CancelToken& token) {
  // front_ caches the slot being drained so the ring (and its mutex) is
  // only touched once per group, not once per comparison.
  while (front_ == nullptr || front_->Empty()) {
    if (front_ != nullptr) {
      pipeline_->PopFront();  // group drained: hand the slot on
      front_ = nullptr;
    }
    try {
      pipeline_->Start();  // no-op after the first pull
    } catch (...) {
      return Poison(0, std::current_exception());
    }
    bool expired = false;
    front_ = pipeline_->FrontUntil(token, &expired);
    if (front_ == nullptr) {
      if (expired) return PullStatus::kCancelled;
      // End of stream — clean exhaustion or a contained refill failure.
      EmissionPipelineError error = pipeline_->error();
      if (error.exception != nullptr) {
        return Poison(error.batch_index, std::move(error.exception));
      }
      return PullStatus::kExhausted;
    }
  }
  return PullStatus::kOk;
}

PullStatus ProgressiveEngine::SerialBatch(const CancelToken& token) {
  // A refill is the unit of work a token can skip without corrupting the
  // stream, so the token is checked once per refill.
  while (serial_batch_.Empty()) {
    if (token.valid() && token.cancelled()) return PullStatus::kCancelled;
    if (next_refill_ == batch_source_->num_refills()) {
      return PullStatus::kExhausted;
    }
    serial_batch_.Clear();
    try {
      Refill(0, next_refill_, serial_batch_);
    } catch (...) {
      return Poison(next_refill_, std::current_exception());
    }
    ++next_refill_;
  }
  return PullStatus::kOk;
}

PullStatus ProgressiveEngine::NextBatch(const CancelToken& token,
                                        ComparisonList*& batch) {
  if (pipeline_ == nullptr) {
    batch = &serial_batch_;
    return SerialBatch(token);
  }
  const PullStatus reached = PipelinedBatch(token);
  batch = front_;
  return reached;
}

PullStatus ProgressiveEngine::SortedPull(Comparison& out,
                                         const CancelToken& token) {
  if (token.valid() && token.cancelled()) return PullStatus::kCancelled;
  try {
    std::optional<Comparison> next = inner_->Next();
    if (!next.has_value()) return PullStatus::kExhausted;
    out = *next;
    return PullStatus::kOk;
  } catch (...) {
    return Poison(next_refill_, std::current_exception());
  }
}

PullStatus ProgressiveEngine::PullUnbudgeted(Comparison& out,
                                             const CancelToken& token) {
  if (batch_source_ == nullptr) return SortedPull(out, token);
  ComparisonList* batch = nullptr;
  const PullStatus reached = NextBatch(token, batch);
  if (reached == PullStatus::kOk) out = batch->PopFirst();
  return reached;
}

PullStatus ProgressiveEngine::PullManyUnbudgeted(std::vector<Comparison>& out,
                                                 std::size_t max,
                                                 const CancelToken& token) {
  if (batch_source_ == nullptr) {
    return BudgetedEngine::PullManyUnbudgeted(out, max, token);
  }
  ComparisonList* batch = nullptr;
  const PullStatus reached = NextBatch(token, batch);
  if (reached == PullStatus::kOk) batch->PopInto(out, max);
  return reached;
}

void ProgressiveEngine::Drain() {
  drained_ = true;
  if (pipeline_ != nullptr) pipeline_->Shutdown();
}

}  // namespace sper
