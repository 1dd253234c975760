// The QoS admission controller (src/serving/qos.h) and its deterministic
// building blocks. The contract under test:
//
// - TokenBucket: starts full, refills continuously at the configured
//   rate, never over-fills past burst, and RetryAfterMs names when the
//   next token lands — all as pure functions of caller-supplied time;
// - SmoothWeightedRoundRobin: the nginx smooth cycle (weights 8/2/1 give
//   the interleaved 0 0 1 0 0 2 0 0 1 0 0 pattern, not 8 zeros
//   back-to-back), ties break to the lowest index, empty lanes are
//   skipped without earning catch-up credit;
// - obs::ManualClock / MonotonicClock: the injectable time seam the
//   controller reads every decision through;
// - QosAdmissionController: over-rate clients are shed with
//   ResourceExhausted and an exponentially growing retry_after_ms; a
//   full queue sheds instead of queueing; staged lane mixes dispatch in
//   the exact smooth-WRR order (resolver tickets prove it); requests
//   whose deadline passed while queued — or whose estimated service
//   start lies past their deadline on arrival — are evicted without
//   consuming a resolver ticket, while one that barely makes its
//   deadline is served; shed/evicted requests never perturb the stream
//   (bit-identical continuation); per-class stats and metric sinks
//   mirror each other; invalid requests are rejected before they touch a
//   client entry or a lane; and client entries that carry no state are
//   forgotten, so distinct client ids cannot grow the table without
//   bound.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "serving/qos.h"
#include "serving/token_bucket.h"
#include "serving/wrr.h"

namespace sper {
namespace {

using serving::ClassStats;
using serving::QosAdmissionController;
using serving::QosOptions;
using serving::SmoothWeightedRoundRobin;
using serving::TokenBucket;

constexpr std::uint64_t kMs = 1000000ull;  // ns per millisecond

ProfileStore DirtyStore() {
  Result<DatasetBundle> ds = GenerateDataset("restaurant", {});
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

std::unique_ptr<Resolver> MustCreate(const ProfileStore& store,
                                     const ResolverOptions& options) {
  Result<std::unique_ptr<Resolver>> resolver =
      Resolver::Create(store, options);
  EXPECT_TRUE(resolver.ok()) << resolver.status().ToString();
  return std::move(resolver).value();
}

/// Spins until the controller has `depth` queued requests (the enqueueing
/// threads are real, only the clock is manual).
void AwaitQueueDepth(const QosAdmissionController& controller,
                     std::size_t depth) {
  while (controller.queue_depth() < depth) std::this_thread::yield();
}

// ---------------------------------------------------------- token bucket

TEST(TokenBucketTest, StartsFullAndRefillsAtRate) {
  TokenBucket bucket(/*rate_per_sec=*/10.0, /*burst=*/2.0, /*now_ns=*/0);
  EXPECT_TRUE(bucket.TryAcquire(1.0, 0));
  EXPECT_TRUE(bucket.TryAcquire(1.0, 0));
  EXPECT_FALSE(bucket.TryAcquire(1.0, 0)) << "burst spent";
  // 10 tokens/s -> one token every 100 ms.
  EXPECT_FALSE(bucket.TryAcquire(1.0, 50 * kMs));
  EXPECT_TRUE(bucket.TryAcquire(1.0, 100 * kMs));
  EXPECT_FALSE(bucket.TryAcquire(1.0, 100 * kMs));
}

TEST(TokenBucketTest, NeverFillsPastBurst) {
  TokenBucket bucket(10.0, 2.0, 0);
  // An hour idle still holds exactly `burst` tokens.
  EXPECT_DOUBLE_EQ(bucket.Available(3600ull * 1000 * kMs), 2.0);
}

TEST(TokenBucketTest, RetryAfterNamesTheNextToken) {
  TokenBucket bucket(10.0, 1.0, 0);
  EXPECT_EQ(bucket.RetryAfterMs(1.0, 0), 0u) << "token available now";
  EXPECT_TRUE(bucket.TryAcquire(1.0, 0));
  // Empty at rate 10/s: the next whole token is 100 ms out (the hint
  // rounds up, so it is never an under-estimate).
  const std::uint64_t wait = bucket.RetryAfterMs(1.0, 0);
  EXPECT_GE(wait, 100u);
  EXPECT_LE(wait, 101u);
  EXPECT_TRUE(bucket.TryAcquire(1.0, wait * kMs));
}

TEST(TokenBucketTest, ZeroRateDisablesLimiting) {
  TokenBucket bucket(0.0, 1.0, 0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.TryAcquire(1.0, 0));
  EXPECT_EQ(bucket.RetryAfterMs(1.0, 0), 0u);
}

TEST(TokenBucketTest, FailedAcquireDoesNotSpend) {
  TokenBucket bucket(1.0, 1.0, 0);
  EXPECT_TRUE(bucket.TryAcquire(1.0, 0));
  const double before = bucket.Available(0);
  EXPECT_FALSE(bucket.TryAcquire(1.0, 0));
  EXPECT_DOUBLE_EQ(bucket.Available(0), before);
}

TEST(TokenBucketTest, FullAtComputesTheRefillWithoutApplyingIt) {
  TokenBucket bucket(10.0, 2.0, 0);
  EXPECT_TRUE(bucket.FullAt(0)) << "starts full";
  EXPECT_TRUE(bucket.TryAcquire(1.0, 0));
  EXPECT_TRUE(bucket.TryAcquire(1.0, 0));
  EXPECT_FALSE(bucket.FullAt(0));
  EXPECT_FALSE(bucket.FullAt(150 * kMs)) << "1.5 of 2 tokens back";
  EXPECT_TRUE(bucket.FullAt(250 * kMs));
  // FullAt is a query: the bucket itself was not refilled.
  EXPECT_FALSE(bucket.TryAcquire(1.0, 0));
  EXPECT_TRUE(TokenBucket(0.0, 1.0, 0).FullAt(0)) << "disabled bucket";
}

// ------------------------------------------------------------ smooth WRR

TEST(SmoothWrrTest, ProducesTheSmoothCycle) {
  // The defining property versus naive WRR: weights {8,2,1} interleave
  // the low-weight lanes across the cycle instead of queueing them
  // behind 8 consecutive picks of lane 0.
  SmoothWeightedRoundRobin<3> wrr({8, 2, 1});
  const std::array<bool, 3> all = {true, true, true};
  std::vector<std::size_t> picks;
  for (int i = 0; i < 11; ++i) picks.push_back(wrr.Pick(all));
  const std::vector<std::size_t> expected = {0, 0, 1, 0, 0, 2, 0, 0, 1, 0, 0};
  EXPECT_EQ(picks, expected);
  // One full cycle returns every balance to zero: the pattern repeats.
  for (std::size_t lane = 0; lane < 3; ++lane) {
    EXPECT_EQ(wrr.current(lane), 0) << "lane " << lane;
  }
}

TEST(SmoothWrrTest, TiesBreakToLowestIndex) {
  SmoothWeightedRoundRobin<2> wrr({1, 1});
  const std::array<bool, 2> all = {true, true};
  EXPECT_EQ(wrr.Pick(all), 0u);
  EXPECT_EQ(wrr.Pick(all), 1u);
  EXPECT_EQ(wrr.Pick(all), 0u);
  EXPECT_EQ(wrr.Pick(all), 1u);
}

TEST(SmoothWrrTest, IneligibleLanesAreSkippedWithoutCredit) {
  SmoothWeightedRoundRobin<3> wrr({8, 2, 1});
  // Only lane 2 has work: it is picked, and its balance stays settled
  // (gain == total eligible weight == its own), so no catch-up burst
  // reorders the later full-eligibility pattern.
  const std::array<bool, 3> only_last = {false, false, true};
  EXPECT_EQ(wrr.Pick(only_last), 2u);
  EXPECT_EQ(wrr.current(2), 0);
  EXPECT_EQ(wrr.Pick({false, false, false}), 3u) << "no eligible lane";
}

// ---------------------------------------------------------- clock source

TEST(ClockSourceTest, ManualClockMovesOnlyWhenAdvanced) {
  obs::ManualClock clock(5);
  EXPECT_EQ(clock.NowNanos(), 5u);
  EXPECT_EQ(clock.NowNanos(), 5u);
  clock.AdvanceNanos(10);
  EXPECT_EQ(clock.NowNanos(), 15u);
  clock.AdvanceMillis(2);
  EXPECT_EQ(clock.NowNanos(), 15u + 2 * kMs);
}

TEST(ClockSourceTest, MonotonicClockNeverGoesBackwards) {
  const obs::ClockSource* clock = obs::MonotonicClock::Default();
  std::uint64_t last = clock->NowNanos();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = clock->NowNanos();
    ASSERT_GE(now, last);
    last = now;
  }
}

// -------------------------------------------------------------- options

TEST(QosOptionsTest, ValidateNamesTheOffendingField) {
  QosOptions ok;
  EXPECT_TRUE(ok.Validate().ok());

  QosOptions zero_weights;
  zero_weights.weights = {0, 0, 0};
  EXPECT_FALSE(zero_weights.Validate().ok());

  QosOptions negative_rate;
  negative_rate.client_rate = -1.0;
  EXPECT_FALSE(negative_rate.Validate().ok());

  QosOptions tiny_burst;
  tiny_burst.client_rate = 1.0;
  tiny_burst.client_burst = 0.5;
  EXPECT_FALSE(tiny_burst.Validate().ok());

  QosOptions zero_base;
  zero_base.retry_after_base_ms = 0;
  EXPECT_FALSE(zero_base.Validate().ok());

  QosOptions inverted_cap;
  inverted_cap.retry_after_base_ms = 100;
  inverted_cap.retry_after_cap_ms = 10;
  EXPECT_FALSE(inverted_cap.Validate().ok());
}

// ------------------------------------------------ controller: rate limit

TEST(QosControllerTest, OverRateClientIsShedWithRetryHint) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;

  QosOptions options;
  options.clock = &clock;
  options.client_rate = 10.0;  // one token per 100 ms
  options.client_burst = 1.0;
  QosAdmissionController controller(*resolver, options);

  ResolveRequest request;
  request.budget = 4;
  request.client_id = 7;

  ResolveResult served = controller.Resolve(request);
  EXPECT_EQ(served.outcome, ResolveOutcome::kServed);
  EXPECT_EQ(served.comparisons.size(), 4u);

  ResolveResult shed = controller.Resolve(request);
  EXPECT_EQ(shed.outcome, ResolveOutcome::kShed);
  EXPECT_FALSE(shed.admitted());
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(shed.retry_after_ms, 100u) << "hint covers the bucket refill";
  EXPECT_TRUE(shed.comparisons.empty());

  // Waiting out the hint makes the client admissible again.
  clock.AdvanceMillis(shed.retry_after_ms);
  ResolveResult retried = controller.Resolve(request);
  EXPECT_EQ(retried.outcome, ResolveOutcome::kServed);

  // Distinct clients have distinct buckets: client 8 was never throttled.
  ResolveRequest other = request;
  other.client_id = 8;
  EXPECT_EQ(controller.Resolve(other).outcome, ResolveOutcome::kServed);

  EXPECT_EQ(controller.stats(Priority::kInteractive).sheds, 1u);
  EXPECT_EQ(controller.stats(Priority::kInteractive).admitted, 3u);
}

TEST(QosControllerTest, ConsecutiveShedsGrowTheBackoffExponentially) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;

  QosOptions options;
  options.clock = &clock;
  options.max_queue_depth = 1;
  options.retry_after_base_ms = 8;
  options.retry_after_cap_ms = 100;
  QosAdmissionController controller(*resolver, options);

  // Stage a full queue: one waiter parked behind a paused dispatcher.
  controller.SetDispatchPaused(true);
  std::thread parked([&] {
    ResolveRequest queued;
    queued.budget = 1;
    queued.client_id = 1;
    controller.Resolve(queued);
  });
  AwaitQueueDepth(controller, 1);

  // Every further request from client 2 sheds on depth; the hint doubles
  // from the base until the cap.
  ResolveRequest request;
  request.budget = 1;
  request.client_id = 2;
  const std::vector<std::uint64_t> expected = {8, 16, 32, 64, 100, 100};
  for (std::uint64_t hint : expected) {
    ResolveResult shed = controller.Resolve(request);
    ASSERT_EQ(shed.outcome, ResolveOutcome::kShed);
    EXPECT_EQ(shed.retry_after_ms, hint);
  }
  EXPECT_EQ(controller.stats(Priority::kInteractive).sheds, expected.size());

  // A successful enqueue resets the client's backoff streak.
  controller.SetDispatchPaused(false);
  parked.join();
  ResolveResult served = controller.Resolve(request);
  EXPECT_EQ(served.outcome, ResolveOutcome::kServed);
  controller.SetDispatchPaused(true);
  std::thread parked2([&] {
    ResolveRequest queued;
    queued.budget = 1;
    queued.client_id = 1;
    controller.Resolve(queued);
  });
  AwaitQueueDepth(controller, 1);
  ResolveResult shed = controller.Resolve(request);
  EXPECT_EQ(shed.retry_after_ms, 8u) << "streak reset by the admit";
  controller.SetDispatchPaused(false);
  parked2.join();
}

// -------------------------------------------- controller: queue shedding

TEST(QosControllerTest, EstimatedQueueWaitBoundSheds) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;

  QosOptions options;
  options.clock = &clock;
  options.max_queue_depth = 0;     // depth unbounded: isolate the wait bound
  options.max_queue_wait_ms = 25;
  QosAdmissionController controller(*resolver, options);
  controller.PrimeServiceEstimate(10 * kMs);  // 10 ms per request

  controller.SetDispatchPaused(true);
  std::vector<std::thread> queued;
  // Estimated wait at arrival is ahead*10ms: 0, 10, 20 pass the 25 ms
  // bound; the fourth (est. 30 ms) sheds.
  for (int i = 0; i < 3; ++i) {
    queued.emplace_back([&] {
      ResolveRequest request;
      request.budget = 1;
      controller.Resolve(request);
    });
    AwaitQueueDepth(controller, static_cast<std::size_t>(i) + 1);
  }
  ResolveRequest request;
  request.budget = 1;
  ResolveResult shed = controller.Resolve(request);
  EXPECT_EQ(shed.outcome, ResolveOutcome::kShed);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);

  controller.SetDispatchPaused(false);
  for (std::thread& t : queued) t.join();
}

// ----------------------------------------- controller: priority dispatch

TEST(QosControllerTest, StagedMixDispatchesInSmoothWrrOrder) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;

  QosOptions options;
  options.clock = &clock;  // weights stay the default {8, 2, 1}
  QosAdmissionController controller(*resolver, options);

  // Stage 4 interactive + 4 batch + 2 best-effort behind a paused
  // dispatcher, then release. Dispatch is serialized, so resolver
  // tickets record the exact dispatch order.
  controller.SetDispatchPaused(true);
  std::mutex mu;
  std::vector<std::pair<std::uint64_t, Priority>> order;  // (ticket, class)
  std::vector<std::thread> workers;
  auto spawn = [&](Priority priority, int count) {
    for (int i = 0; i < count; ++i) {
      workers.emplace_back([&, priority] {
        ResolveRequest request;
        request.budget = 1;
        request.priority = priority;
        ResolveResult result = controller.Resolve(request);
        ASSERT_EQ(result.outcome, ResolveOutcome::kServed);
        std::lock_guard<std::mutex> hold(mu);
        order.emplace_back(result.ticket, priority);
      });
    }
  };
  spawn(Priority::kInteractive, 4);
  spawn(Priority::kBatch, 4);
  spawn(Priority::kBestEffort, 2);
  AwaitQueueDepth(controller, 10);
  controller.SetDispatchPaused(false);
  for (std::thread& t : workers) t.join();

  ASSERT_EQ(order.size(), 10u);
  std::sort(order.begin(), order.end());
  std::vector<Priority> classes;
  for (const auto& [ticket, priority] : order) classes.push_back(priority);
  // Smooth WRR over {8,2,1} with lanes I=4/B=4/E=2: interactive leads
  // without monopolizing, and once it drains, best-effort's accumulated
  // balance earns its picks before batch finishes.
  const std::vector<Priority> expected = {
      Priority::kInteractive, Priority::kInteractive, Priority::kBatch,
      Priority::kInteractive, Priority::kInteractive, Priority::kBestEffort,
      Priority::kBestEffort,  Priority::kBatch,       Priority::kBatch,
      Priority::kBatch};
  EXPECT_EQ(classes, expected);
  EXPECT_EQ(controller.stats(Priority::kInteractive).admitted, 4u);
  EXPECT_EQ(controller.stats(Priority::kBatch).admitted, 4u);
  EXPECT_EQ(controller.stats(Priority::kBestEffort).admitted, 2u);
}

// ------------------------------------------------- controller: eviction

TEST(QosControllerTest, DeadlinePassedWhileQueuedEvictsWithoutATicket) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;

  QosOptions options;
  options.clock = &clock;
  QosAdmissionController controller(*resolver, options);

  controller.SetDispatchPaused(true);
  ResolveResult doomed_result;
  std::thread doomed([&] {
    ResolveRequest request;
    request.budget = 4;
    request.deadline_ms = 50;
    doomed_result = controller.Resolve(request);
  });
  AwaitQueueDepth(controller, 1);
  ResolveResult barely_result;
  std::thread barely([&] {
    ResolveRequest request;
    request.budget = 4;
    request.deadline_ms = 500;
    barely_result = controller.Resolve(request);
  });
  AwaitQueueDepth(controller, 2);

  // 100 ms pass in the queue: past the first deadline, within the second.
  clock.AdvanceMillis(100);
  controller.SetDispatchPaused(false);
  doomed.join();
  barely.join();

  EXPECT_EQ(doomed_result.outcome, ResolveOutcome::kEvicted);
  EXPECT_TRUE(doomed_result.deadline_exceeded());
  EXPECT_FALSE(doomed_result.admitted());
  EXPECT_TRUE(doomed_result.status.ok()) << "a cut is not an error";
  EXPECT_TRUE(doomed_result.comparisons.empty());

  EXPECT_EQ(barely_result.outcome, ResolveOutcome::kServed);
  EXPECT_EQ(barely_result.comparisons.size(), 4u);
  EXPECT_EQ(barely_result.ticket, 0u)
      << "the evicted request never took a resolver ticket";
  EXPECT_EQ(controller.stats(Priority::kInteractive).evictions, 1u);
}

TEST(QosControllerTest, DoomedOnArrivalIsEvictedImmediately) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;

  QosOptions options;
  options.clock = &clock;
  QosAdmissionController controller(*resolver, options);
  controller.PrimeServiceEstimate(10 * kMs);

  controller.SetDispatchPaused(true);
  std::thread parked([&] {
    ResolveRequest request;
    request.budget = 1;
    controller.Resolve(request);
  });
  AwaitQueueDepth(controller, 1);

  // Estimated service start is 10 ms out (one queued request at a 10 ms
  // estimate): a 5 ms deadline cannot be met — evicted synchronously,
  // without blocking. A 50 ms deadline queues normally.
  ResolveRequest hopeless;
  hopeless.budget = 1;
  hopeless.deadline_ms = 5;
  ResolveResult evicted = controller.Resolve(hopeless);
  EXPECT_EQ(evicted.outcome, ResolveOutcome::kEvicted);
  EXPECT_TRUE(evicted.deadline_exceeded());
  EXPECT_EQ(controller.queue_depth(), 1u) << "never queued";

  controller.SetDispatchPaused(false);
  parked.join();
  ResolveRequest feasible;
  feasible.budget = 1;
  feasible.deadline_ms = 50;
  EXPECT_EQ(controller.Resolve(feasible).outcome, ResolveOutcome::kServed);
}

TEST(QosControllerTest, EvictionDisabledServesTheLateRequestAsACut) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;

  QosOptions options;
  options.clock = &clock;
  options.evict_doomed = false;
  QosAdmissionController controller(*resolver, options);

  controller.SetDispatchPaused(true);
  ResolveResult late_result;
  std::thread late([&] {
    ResolveRequest request;
    request.budget = 4;
    request.deadline_ms = 50;
    late_result = controller.Resolve(request);
  });
  AwaitQueueDepth(controller, 1);
  clock.AdvanceMillis(100);
  controller.SetDispatchPaused(false);
  late.join();

  // Without eviction the request is dispatched with the 1 ms floor and
  // the *resolver* cuts it: admitted, empty, stream intact.
  EXPECT_EQ(late_result.outcome, ResolveOutcome::kDeadlineExpired);
  EXPECT_TRUE(late_result.admitted());
  EXPECT_EQ(controller.stats(Priority::kInteractive).evictions, 0u);
}

// ------------------------------------------- stream identity and metrics

TEST(QosControllerTest, ShedsAndEvictionsNeverPerturbTheStream) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> reference = MustCreate(store, {});
  std::vector<Comparison> expected;
  for (int i = 0; i < 64; ++i) {
    std::optional<Comparison> c = reference->Next();
    if (!c.has_value()) break;
    expected.push_back(*c);
  }

  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;
  QosOptions options;
  options.clock = &clock;
  options.client_rate = 10.0;
  options.client_burst = 1.0;
  QosAdmissionController controller(*resolver, options);

  // Interleave served slices with rate-limit sheds and queued-too-long
  // evictions; the admitted slices must still concatenate to the exact
  // reference prefix.
  std::vector<Comparison> streamed;
  ResolveRequest request;
  request.budget = 8;
  request.client_id = 3;
  while (streamed.size() < expected.size()) {
    ResolveResult slice = controller.Resolve(request);
    if (slice.outcome == ResolveOutcome::kShed) {
      // While backed off, park an anonymous request (not rate-limited)
      // with a deadline, let it expire in the lane, and check the
      // eviction consumed nothing.
      controller.SetDispatchPaused(true);
      ResolveResult hopeless_result;
      std::thread hopeless([&] {
        ResolveRequest doomed;
        doomed.budget = 8;
        doomed.deadline_ms = 1;
        hopeless_result = controller.Resolve(doomed);
      });
      AwaitQueueDepth(controller, 1);
      clock.AdvanceMillis(2);
      controller.SetDispatchPaused(false);
      hopeless.join();
      ASSERT_EQ(hopeless_result.outcome, ResolveOutcome::kEvicted);
      clock.AdvanceMillis(slice.retry_after_ms);
      continue;
    }
    ASSERT_EQ(slice.outcome, ResolveOutcome::kServed);
    for (const Comparison& c : slice.comparisons) streamed.push_back(c);
  }

  ASSERT_EQ(streamed.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(streamed[k].i, expected[k].i) << "position " << k;
    EXPECT_EQ(streamed[k].j, expected[k].j) << "position " << k;
    EXPECT_EQ(streamed[k].weight, expected[k].weight) << "position " << k;
  }
}

TEST(QosControllerTest, MetricSinksMirrorTheStats) {
  ProfileStore store = DirtyStore();
  obs::Registry registry;

  ResolverOptions resolver_options;
  std::unique_ptr<Resolver> resolver = MustCreate(store, resolver_options);
  obs::ManualClock clock;

  QosOptions options;
  options.clock = &clock;
  options.client_rate = 10.0;
  options.client_burst = 1.0;
  options.telemetry = obs::TelemetryScope(&registry);
  QosAdmissionController controller(*resolver, options);

  ResolveRequest request;
  request.budget = 2;
  request.client_id = 1;
  EXPECT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
  EXPECT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kShed);

#ifndef SPER_NO_TELEMETRY
  EXPECT_EQ(registry.counter("qos.interactive.admitted")->value(), 1u);
  EXPECT_EQ(registry.counter("qos.interactive.sheds")->value(), 1u);
  EXPECT_EQ(registry.counter("qos.rate_limited")->value(), 1u);
  EXPECT_EQ(registry.counter("qos.interactive.evictions")->value(), 0u);
  const std::string snapshot = registry.SnapshotJson();
  EXPECT_NE(snapshot.find("qos.interactive.sheds"), std::string::npos);
  EXPECT_NE(snapshot.find("qos.queue_depth"), std::string::npos);
#endif
  EXPECT_EQ(controller.stats(Priority::kInteractive).admitted, 1u);
  EXPECT_EQ(controller.stats(Priority::kInteractive).sheds, 1u);
}

// --------------------------------- controller: validation, client table

// Every entry point validates first: out-of-range deadlines (which would
// wrap deadline_ms * 1e6), an oversize max_batch and an unknown priority
// byte (which would index past the lanes) come back rejected before they
// create a client entry, queue, or take a resolver ticket.
TEST(QosControllerTest, InvalidRequestsAreRejectedBeforeAClientEntry) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> reference = MustCreate(store, {});
  const std::optional<Comparison> head = reference->Next();
  ASSERT_TRUE(head.has_value());

  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;
  QosOptions options;
  options.clock = &clock;
  QosAdmissionController controller(*resolver, options);

  std::vector<ResolveRequest> invalid(4);
  invalid[0].deadline_ms = ResolveRequest::kMaxDeadlineMs + 1;
  invalid[1].deadline_ms = std::numeric_limits<std::uint64_t>::max();
  invalid[2].max_batch = ResolveRequest::kMaxBatch + 1;
  invalid[3].priority = static_cast<Priority>(3);
  for (std::size_t k = 0; k < invalid.size(); ++k) {
    SCOPED_TRACE("invalid request " + std::to_string(k));
    invalid[k].budget = 10;
    invalid[k].client_id = 100 + k;
    const ResolveResult result = controller.Resolve(invalid[k]);
    EXPECT_EQ(result.outcome, ResolveOutcome::kRejected);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(result.comparisons.empty());
  }
  EXPECT_EQ(controller.tracked_clients(), 0u);
  EXPECT_EQ(controller.queue_depth(), 0u);
  EXPECT_EQ(controller.stats(Priority::kInteractive).admitted, 0u);
  EXPECT_EQ(resolver->emitted(), 0u);

  // The next valid request takes the resolver's first ticket and reads
  // the head of the stream.
  ResolveRequest valid;
  valid.budget = 1;
  const ResolveResult next = controller.Resolve(valid);
  EXPECT_EQ(next.outcome, ResolveOutcome::kServed);
  EXPECT_EQ(next.ticket, 0u);
  ASSERT_EQ(next.comparisons.size(), 1u);
  EXPECT_EQ(next.comparisons[0].i, head->i);
  EXPECT_EQ(next.comparisons[0].j, head->j);
  EXPECT_EQ(next.comparisons[0].weight, head->weight);
}

// Without rate limiting an entry never carries state past its request, so
// a stream of distinct client ids (every wire connection brings a fresh
// anonymous one) keeps the table at the sweep threshold, not at the
// number of ids seen.
TEST(QosControllerTest, DistinctClientIdsKeepTheClientTableBounded) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  QosAdmissionController controller(*resolver, QosOptions());
  ResolveRequest request;  // budget 0: admitted, consumes nothing
  for (ClientId id = 1; id <= 100000; ++id) {
    request.client_id = id;
    ASSERT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
  }
  EXPECT_LE(controller.tracked_clients(), 128u);
  EXPECT_EQ(controller.stats(Priority::kInteractive).admitted, 100000u);
}

// Rate-limited entries hold a partly spent bucket, so they stay until
// the clock refills it (burst / rate) — then they carry nothing and go.
TEST(QosControllerTest, RateLimitedClientsLeaveOnceTheirBucketRefills) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;
  QosOptions options;
  options.clock = &clock;
  options.client_rate = 10.0;  // burst / rate = 200 ms
  options.client_burst = 2.0;
  QosAdmissionController controller(*resolver, options);

  ResolveRequest request;
  for (ClientId id = 1; id <= 100; ++id) {
    request.client_id = id;
    ASSERT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
    ASSERT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
  }
  // A sweep ran at 64 entries, but every bucket was empty: all stay.
  EXPECT_EQ(controller.tracked_clients(), 100u);

  clock.AdvanceMillis(250);  // past burst / rate: every bucket is full
  for (ClientId id = 1001; id <= 1064; ++id) {
    request.client_id = id;
    ASSERT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
  }
  EXPECT_LE(controller.tracked_clients(), 64u);
  // A forgotten client starts over with a full bucket, exactly as its
  // refilled entry would have.
  request.client_id = 1;
  EXPECT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
  EXPECT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
  EXPECT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kShed);
}

// An entry with a shed streak is state the backoff policy needs: a sweep
// keeps it, and the client's hint keeps doubling.
TEST(QosControllerTest, ShedClientKeepsItsGrowingHintAcrossASweep) {
  ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;
  QosOptions options;
  options.clock = &clock;
  options.client_rate = 1.0;  // burst / rate = 1 s
  options.client_burst = 1.0;
  options.retry_after_base_ms = 2000;  // above the ~1 s bucket hint
  options.retry_after_cap_ms = 1000000;
  QosAdmissionController controller(*resolver, options);

  ResolveRequest request;
  for (ClientId id = 1000; id < 1100; ++id) {
    request.client_id = id;
    ASSERT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
  }
  clock.AdvanceMillis(2000);  // clients 1000..1099 are refilled now

  request.client_id = 7;
  ASSERT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
  ResolveResult shed = controller.Resolve(request);
  ASSERT_EQ(shed.outcome, ResolveOutcome::kShed);
  EXPECT_EQ(shed.retry_after_ms, 2000u);
  shed = controller.Resolve(request);
  ASSERT_EQ(shed.outcome, ResolveOutcome::kShed);
  EXPECT_EQ(shed.retry_after_ms, 4000u);

  // New ids push the table past its threshold: the sweep forgets the
  // refilled clients, but not client 7's streak.
  for (ClientId id = 2000; id < 2064; ++id) {
    request.client_id = id;
    ASSERT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
  }
  EXPECT_LT(controller.tracked_clients(), 100u);

  request.client_id = 7;
  shed = controller.Resolve(request);
  ASSERT_EQ(shed.outcome, ResolveOutcome::kShed);
  EXPECT_EQ(shed.retry_after_ms, 8000u);
}

// -------------------------------------------------- outcome plumbing

TEST(ResolveOutcomeTest, NamesAreStable) {
  EXPECT_EQ(ToString(ResolveOutcome::kServed), "served");
  EXPECT_EQ(ToString(ResolveOutcome::kDeadlineExpired), "deadline_expired");
  EXPECT_EQ(ToString(ResolveOutcome::kCancelled), "cancelled");
  EXPECT_EQ(ToString(ResolveOutcome::kShed), "shed");
  EXPECT_EQ(ToString(ResolveOutcome::kEvicted), "evicted");
  EXPECT_EQ(ToString(ResolveOutcome::kRejected), "rejected");
  EXPECT_EQ(ToString(ResolveOutcome::kFailed), "failed");
}

TEST(ResolveOutcomeTest, AccessorsDeriveFromTheOutcome) {
  ResolveResult result;
  EXPECT_TRUE(result.admitted());
  EXPECT_FALSE(result.deadline_exceeded());
  EXPECT_FALSE(result.cancelled());

  result.outcome = ResolveOutcome::kEvicted;
  EXPECT_TRUE(result.deadline_exceeded()) << "an evicted deadline is missed";
  EXPECT_FALSE(result.admitted());

  result.outcome = ResolveOutcome::kShed;
  EXPECT_FALSE(result.admitted());
  EXPECT_FALSE(result.deadline_exceeded());

  result.outcome = ResolveOutcome::kCancelled;
  EXPECT_TRUE(result.cancelled());
  EXPECT_TRUE(result.admitted()) << "a cancelled request held a ticket";
}

TEST(ResolveOutcomeTest, PriorityNamesRoundTrip) {
  for (Priority p : {Priority::kInteractive, Priority::kBatch,
                     Priority::kBestEffort}) {
    const std::optional<Priority> parsed = ParsePriority(ToString(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(ParsePriority("BATCH"), Priority::kBatch);
  EXPECT_EQ(ParsePriority("best-effort"), Priority::kBestEffort);
  EXPECT_FALSE(ParsePriority("urgent").has_value());
}

}  // namespace
}  // namespace sper
