#include "engine/progressive_engine.h"

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
                                     ThreadPool* emission_pool,
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

  // Emission pipeline (lookahead > 0): run the method's refills on a
  // worker of the caller's pool, bounded `lookahead` batches ahead of
  // Next(). Only the batch-refilling methods expose the refill boundary;
  // the rest keep the serial path regardless of the option.
  batch_source_ = dynamic_cast<BatchSource*>(inner_.get());
  fault_site_ = label_.empty() ? "refill" : "refill." + label_;
  if (options.lookahead > 0 && batch_source_ != nullptr) {
    SPER_CHECK(emission_pool != nullptr &&
               "a pipelined engine needs the caller's emission pool");
    // Refill batches can be tiny (a PPS profile contributes at most kmax
    // and usually far fewer comparisons), so the producer coalesces
    // consecutive refills into one ring slot until it holds at least
    // kMinBatchItems. Consecutive batches are consumed back to back
    // anyway, so concatenation keeps the serial order while amortizing
    // the per-slot handoff to once per ~kMinBatchItems emissions.
    constexpr std::size_t kMinBatchItems = 256;
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
    pipeline_ = std::make_unique<EmissionPipeline<ComparisonList>>(
        options.lookahead,
        [source = batch_source_,
         scratch = ComparisonList()](ComparisonList& out) mutable {
          out.Clear();
          do {
            if (!source->ProduceBatch(scratch)) break;
            out.AppendFrom(scratch);
          } while (out.remaining() < kMinBatchItems);
          return !out.Empty();
        },
        scope.enabled() ? &pipeline_metrics_ : nullptr, fault_site_);
    pipeline_->Start(*emission_pool);
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

PullStatus ProgressiveEngine::PipelinedPull(Comparison& out,
                                            const CancelToken& token) {
  // front_ caches the slot being drained so the ring (and its mutex) is
  // only touched once per batch, not once per comparison.
  while (front_ == nullptr || front_->Empty()) {
    if (front_ != nullptr) {
      pipeline_->PopFront();  // batch drained: recycle the slot
      front_ = nullptr;
    }
    bool expired = false;
    front_ = pipeline_->FrontUntil(token, &expired);
    if (front_ == nullptr) {
      if (expired) return PullStatus::kCancelled;
      // End of stream — clean exhaustion or a contained producer death.
      EmissionPipelineError error = pipeline_->error();
      if (error.exception != nullptr) {
        return Poison(error.batch_index, std::move(error.exception));
      }
      return PullStatus::kExhausted;
    }
  }
  out = front_->PopFirst();
  return PullStatus::kOk;
}

PullStatus ProgressiveEngine::SerialPull(Comparison& out,
                                         const CancelToken& token) {
  if (batch_source_ != nullptr) {
    // Inline-refill reference path of the batch methods: identical
    // sequence to inner_->Next() per the BatchSource contract, but with
    // the cancellation check and failure containment at the refill
    // boundary (a refill is the unit of work a token can skip without
    // corrupting method state).
    while (serial_batch_.Empty()) {
      if (token.valid() && token.cancelled()) return PullStatus::kCancelled;
      try {
        SPER_FAULT_HIT(fault_site_);
        if (!batch_source_->ProduceBatch(serial_batch_)) {
          return PullStatus::kExhausted;
        }
        ++serial_batch_index_;
      } catch (...) {
        return Poison(serial_batch_index_, std::current_exception());
      }
    }
    out = serial_batch_.PopFirst();
    return PullStatus::kOk;
  }
  // Sort-based methods: every Next() is one bounded unit of work.
  if (token.valid() && token.cancelled()) return PullStatus::kCancelled;
  try {
    std::optional<Comparison> next = inner_->Next();
    if (!next.has_value()) return PullStatus::kExhausted;
    out = *next;
    return PullStatus::kOk;
  } catch (...) {
    return Poison(serial_batch_index_, std::current_exception());
  }
}

PullStatus ProgressiveEngine::PullUnbudgeted(Comparison& out,
                                             const CancelToken& token) {
  return pipeline_ != nullptr ? PipelinedPull(out, token)
                              : SerialPull(out, token);
}

void ProgressiveEngine::Drain() {
  drained_ = true;
  if (pipeline_ != nullptr) pipeline_->Shutdown();
}

}  // namespace sper
