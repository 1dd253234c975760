#include "engine/sharded_engine.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#include "obs/fault_injection.h"
#include "obs/telemetry.h"
#include "parallel/thread_pool.h"

namespace sper {

namespace {

/// A shard can yield comparisons only with two distinct profiles (Dirty)
/// or at least one profile on each side (Clean-Clean). Engines are not
/// constructed for barren shards.
bool ShardHasCandidates(const ProfileStore& store) {
  if (store.er_type() == ErType::kCleanClean) {
    return store.source1_size() > 0 && store.source2_size() > 0;
  }
  return store.size() >= 2;
}

}  // namespace

ShardedEngine::ShardedEngine(const ProfileStore& store,
                             const ResolverOptions& options)
    : method_(options.method) {
  const obs::Stopwatch init_watch;
  budget_ = options.budget;
  const obs::TelemetryScope& scope = options.telemetry;

  {
    double partition_seconds = 0.0;
    obs::ScopedPhase phase(scope, "partition", &partition_seconds);
    shards_ = PartitionStore(store, options.num_shards);
    phase.Stop();
    stats_.phases.push_back({"partition", 0, partition_seconds});
  }
  engines_.resize(shards_.size());
  stats_.shard_sizes.reserve(shards_.size());
  for (const StoreShard& shard : shards_) {
    stats_.shard_sizes.push_back(shard.store.size());
  }

  // Per-shard engine options: inner engines run unbudgeted (the global
  // budget caps the merged stream) and split the total thread budget
  // across the shard constructions running concurrently.
  const std::size_t concurrency =
      std::min(shards_.size(), options.num_threads);
  ResolverOptions inner = options;
  inner.budget = 0;
  inner.num_threads = options.num_threads / concurrency;

  // Parallel shard refills (lookahead > 0): every shard engine runs one
  // refill worker thread. Past kMaxPipelinedShards non-barren shards the
  // engine falls back to serial refills (always correct, same output)
  // instead of spawning an OS thread per shard.
  constexpr std::size_t kMaxPipelinedShards = 64;
  std::size_t active_shards = 0;
  for (const StoreShard& shard : shards_) {
    if (ShardHasCandidates(shard.store)) ++active_shards;
  }
  if (active_shards > kMaxPipelinedShards) inner.lookahead = 0;

  // Each shard gets a "shard<S>."-prefixed sub-scope, so concurrent
  // shard constructions write disjoint metric names (registry creation is
  // mutex-protected either way). The matching label makes a shard's
  // contained failures and fault seams attributable ("refill.shard<S>").
  const auto build_shard = [&](std::size_t s) {
    const std::string label = "shard" + std::to_string(s);
    ResolverOptions shard_options = inner;
    shard_options.telemetry = scope.Sub(label);
    engines_[s] =
        std::make_unique<ProgressiveEngine>(shards_[s].store, shard_options,
                                            label);
  };
  if (concurrency <= 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (ShardHasCandidates(shards_[s].store)) build_shard(s);
    }
  } else {
    ThreadPool pool(concurrency);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (!ShardHasCandidates(shards_[s].store)) continue;
      pool.Submit([s, &build_shard] { build_shard(s); });
    }
    pool.Wait();
  }

  // Register the per-shard streams in shard order: the merge breaks exact
  // ties by stream index, so shard order is part of the deterministic
  // contract. Each stream translates shard-local ids to original ids;
  // local order preserves global order within each source, so the
  // canonical (i < j) form survives translation.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (engines_[s] == nullptr) continue;
    stats_.num_blocks += engines_[s]->init_stats().num_blocks;
    stats_.aggregate_cardinality +=
        engines_[s]->init_stats().aggregate_cardinality;
    for (const InitPhase& phase : engines_[s]->init_stats().phases) {
      stats_.phases.push_back({phase.name, s, phase.seconds});
    }
    ProgressiveEngine* engine = engines_[s].get();
    const std::vector<ProfileId>* to_global = &shards_[s].to_global;
    // A shard pull that gives up must come back as kBlocked — kExhausted
    // would drop the shard from the merge permanently. Errors also map to
    // kBlocked (state intact) after adopting the shard's sticky status;
    // PullUnbudgeted disambiguates the two via status_.
    merge_.AddStream(KWayMerge<Comparison, ByWeightDesc>::Stream(
        [this, engine, to_global](Comparison& out) {
          Comparison local;
          switch (engine->Pull(local, request_token_)) {
            case PullStatus::kOk:
              out = Comparison((*to_global)[local.i], (*to_global)[local.j],
                               local.weight);
              return MergeStatus::kItem;
            case PullStatus::kExhausted:
              return MergeStatus::kExhausted;
            case PullStatus::kCancelled:
              return MergeStatus::kBlocked;
            case PullStatus::kError:
              if (status_.ok()) status_ = engine->status();
              return MergeStatus::kBlocked;
          }
          return MergeStatus::kExhausted;
        }));
    if (scope.enabled()) {
      draw_counters_.push_back(
          scope.counter("merge.shard" + std::to_string(s) + ".draws"));
    }
  }

  stats_.init_seconds = init_watch.ElapsedSeconds();
  scope.RecordSpan("init", init_watch.start(), obs::Stopwatch::Now());
  if (obs::Gauge* total = scope.gauge("phase.init_seconds");
      total != nullptr) {
    total->Add(stats_.init_seconds);
  }
}

PullStatus ShardedEngine::PullUnbudgeted(Comparison& out,
                                         const CancelToken& token) {
  request_token_ = token;
  try {
    SPER_FAULT_HIT("merge.draw");
    switch (merge_.Next(out)) {
      case MergeStatus::kItem:
        if (!draw_counters_.empty()) {
          draw_counters_[merge_.last_stream()]->Add();
        }
        return PullStatus::kOk;
      case MergeStatus::kExhausted:
        return PullStatus::kExhausted;
      case MergeStatus::kBlocked:
        // Either the token fired mid-pull (merge state intact, the next
        // request resumes losslessly) or a shard poisoned itself and its
        // status was adopted above.
        return status_.ok() ? PullStatus::kCancelled : PullStatus::kError;
    }
  } catch (const std::exception& e) {
    if (status_.ok()) {
      status_ = Status::Internal(std::string("merge draw failed: ") +
                                 e.what());
    }
    return PullStatus::kError;
  } catch (...) {
    if (status_.ok()) {
      status_ = Status::Internal("merge draw failed: unknown error");
    }
    return PullStatus::kError;
  }
  return PullStatus::kExhausted;
}

void ShardedEngine::Drain() {
  drained_ = true;
  // Each shard's Drain joins its refill worker: joining here, instead of
  // at destruction, is what "graceful drain" promises.
  for (std::unique_ptr<ProgressiveEngine>& engine : engines_) {
    if (engine != nullptr) engine->Drain();
  }
}

std::string_view ShardedEngine::name() const { return ToString(method_); }

}  // namespace sper
