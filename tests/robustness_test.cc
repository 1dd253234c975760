// Robustness of the serving stack (src/engine/resolver.h,
// src/parallel/cancel.h, src/obs/fault_injection.h). The contract under
// test:
//
// - CancelToken: null tokens never fire, sources fire every derived
//   token, deadlines latch on first observation, WithDeadline chains to
//   the parent (either firing cancels the child);
// - cancellation and deadlines are *advisory*: a cut request returns its
//   partial slice with the flag set and nothing torn down — the next
//   ticket continues the stream bit-identically, at every (method,
//   shards, lookahead, threads) combination;
// - Drain() stops admitting, lets in-flight tickets finish, and is safe
//   to race with concurrent Serve(): every request is either fully
//   served or cleanly rejected with FailedPrecondition, and the served
//   slices in ticket order form an exact prefix of the un-batched drain;
// - the QoS admission controller (src/serving/qos.h) composes with all
//   of the above: shed-then-retry clients still reassemble the exact
//   stream at every (method, shards, lookahead, threads) combination,
//   batch requests wait a bounded number of dispatches under sustained
//   interactive load (smooth WRR), doomed requests are evicted without
//   consuming stream capacity while barely-feasible ones are served, and
//   Drain() racing a full shed queue rejects every parked request
//   cleanly instead of deadlocking;
// - ThreadPool surfaces the first task exception from Wait() and counts
//   the rest in dropped_exceptions() instead of discarding them;
// - with SPER_FAULT_INJECT compiled in (skipped otherwise): an injected
//   refill failure poisons the engine with shard and batch context, later
//   requests get FailedPrecondition, and the same plan fails the same
//   batch after the same served prefix at 1 and 4 refill workers; an
//   injected stall plus a deadline cuts slices short, and disarming then
//   draining the rest still reassembles the exact reference stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "obs/clock.h"
#include "obs/fault_injection.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "parallel/cancel.h"
#include "parallel/thread_pool.h"
#include "serving/qos.h"

namespace sper {
namespace {

ProfileStore DirtyStore() {
  Result<DatasetBundle> ds = GenerateDataset("restaurant", {});
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

std::vector<Comparison> Drain(ProgressiveEmitter* emitter,
                              std::size_t limit) {
  std::vector<Comparison> out;
  while (out.size() < limit) {
    std::optional<Comparison> c = emitter->Next();
    if (!c.has_value()) break;
    out.push_back(*c);
  }
  return out;
}

void ExpectSameSequence(const std::vector<Comparison>& a,
                        const std::vector<Comparison>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].i, b[k].i) << "position " << k;
    EXPECT_EQ(a[k].j, b[k].j) << "position " << k;
    EXPECT_EQ(a[k].weight, b[k].weight) << "position " << k;
  }
}

std::unique_ptr<Resolver> MustCreate(const ProfileStore& store,
                                     const ResolverOptions& options) {
  Result<std::unique_ptr<Resolver>> resolver =
      Resolver::Create(store, options);
  EXPECT_TRUE(resolver.ok()) << resolver.status().ToString();
  return std::move(resolver).value();
}

/// The (method, shards, lookahead, threads) matrix every continuation
/// guarantee is checked against — the same coverage the determinism suite
/// uses. Each method runs serially and pipelined on one shard (four
/// refill workers) and on four shards (lookahead 4).
struct ServingConfig {
  MethodId method;
  std::size_t num_shards;
  std::size_t lookahead;
  std::size_t num_threads;
};

std::vector<ServingConfig> ServingMatrix() {
  std::vector<ServingConfig> matrix;
  for (MethodId method : {MethodId::kPps, MethodId::kPbs}) {
    matrix.push_back({method, 1, 0, 1});
    matrix.push_back({method, 1, 0, 4});
    matrix.push_back({method, 4, 0, 1});
    matrix.push_back({method, 4, 4, 1});
  }
  return matrix;
}

std::string TraceOf(const ServingConfig& config) {
  return std::string(ToString(config.method)) +
         " shards=" + std::to_string(config.num_shards) +
         " lookahead=" + std::to_string(config.lookahead) +
         " threads=" + std::to_string(config.num_threads);
}

// ---------------------------------------------------------- cancel tokens

TEST(CancelTokenTest, NullTokenNeverFires) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
}

TEST(CancelTokenTest, SourceFiresEveryToken) {
  CancelSource source;
  const CancelToken token = source.token();
  EXPECT_TRUE(token.valid());
  EXPECT_FALSE(token.cancelled());
  source.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
  // Idempotent: the first reason sticks.
  source.Cancel();
  EXPECT_EQ(token.reason(), CancelReason::kCancelled);
}

TEST(CancelTokenTest, DeadlineLatchesOnFirstObservation) {
  const CancelToken expired =
      CancelToken().WithDeadline(std::chrono::nanoseconds(0));
  EXPECT_TRUE(expired.valid());
  EXPECT_TRUE(expired.has_deadline());
  EXPECT_TRUE(expired.cancelled());
  EXPECT_EQ(expired.reason(), CancelReason::kDeadline);

  const CancelToken live =
      CancelToken().WithDeadline(std::chrono::hours(24));
  EXPECT_FALSE(live.cancelled());
  EXPECT_EQ(live.reason(), CancelReason::kNone);
}

TEST(CancelTokenTest, WithDeadlineChainsToParent) {
  CancelSource source;
  const CancelToken child =
      source.token().WithDeadline(std::chrono::hours(24));
  EXPECT_FALSE(child.cancelled());
  // The parent firing cancels the child with the parent's reason.
  source.Cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.reason(), CancelReason::kCancelled);
  // The parent itself has no deadline; only the child does.
  EXPECT_FALSE(source.token().has_deadline());
  EXPECT_TRUE(child.has_deadline());
}

TEST(CancelTokenTest, DeadlineIsTheEarliestAlongTheChain) {
  const CancelToken outer =
      CancelToken().WithDeadline(std::chrono::hours(24));
  const CancelToken inner = outer.WithDeadline(std::chrono::hours(48));
  // The child's own (later) deadline never extends the parent's.
  EXPECT_EQ(inner.deadline(), outer.deadline());
}

// --------------------------------------- lossless continuation after cuts

TEST(ResolverCancelTest, CutRequestsContinueBitIdentically) {
  const ProfileStore store = DirtyStore();
  constexpr std::uint64_t kBudget = 1200;

  for (const ServingConfig& config : ServingMatrix()) {
    SCOPED_TRACE(TraceOf(config));
    ResolverOptions options;
    options.method = config.method;
    options.num_shards = config.num_shards;
    options.lookahead = config.lookahead;
    options.num_threads = config.num_threads;
    options.budget = kBudget;

    const std::vector<Comparison> reference =
        Drain(MustCreate(store, options).get(), 1000000);
    ASSERT_FALSE(reference.empty());

    std::unique_ptr<Resolver> resolver = MustCreate(store, options);
    std::vector<Comparison> concatenated;
    const auto append = [&](const ResolveResult& slice) {
      concatenated.insert(concatenated.end(), slice.comparisons.begin(),
                          slice.comparisons.end());
    };

    // A normal slice first, so the cuts land mid-stream.
    ResolveResult normal = resolver->Serve({100, 0});
    EXPECT_EQ(normal.comparisons.size(), 100u);
    EXPECT_TRUE(normal.status.ok());
    append(normal);

    // An explicitly pre-cancelled request: admitted, cut before drawing,
    // stream untouched.
    CancelSource source;
    source.Cancel();
    ResolveRequest cancelled_request;
    cancelled_request.budget = 1000;
    cancelled_request.cancel = source.token();
    ResolveResult cancelled = resolver->Serve(cancelled_request);
    EXPECT_TRUE(cancelled.cancelled());
    EXPECT_FALSE(cancelled.deadline_exceeded());
    EXPECT_TRUE(cancelled.status.ok()) << "a cut is not an error";
    EXPECT_TRUE(cancelled.comparisons.empty());
    append(cancelled);

    // A request whose deadline already passed at arrival: same guarantee,
    // reported as deadline_exceeded.
    ResolveRequest expired_request;
    expired_request.budget = 1000;
    expired_request.cancel =
        CancelToken().WithDeadline(std::chrono::nanoseconds(0));
    ResolveResult expired = resolver->Serve(expired_request);
    EXPECT_TRUE(expired.deadline_exceeded());
    EXPECT_FALSE(expired.cancelled());
    EXPECT_TRUE(expired.status.ok());
    EXPECT_TRUE(expired.comparisons.empty());
    append(expired);

    // A generous deadline does not perturb a normal slice.
    ResolveRequest generous;
    generous.budget = 100;
    generous.deadline_ms = 600000;
    ResolveResult relaxed = resolver->Serve(generous);
    EXPECT_EQ(relaxed.comparisons.size(), 100u);
    EXPECT_FALSE(relaxed.deadline_exceeded());
    append(relaxed);

    // Drain the remainder: the concatenation across normal, cut and
    // post-cut slices must be the exact reference stream.
    for (;;) {
      ResolveResult slice = resolver->Serve({500, 0});
      append(slice);
      if (slice.comparisons.empty() || slice.budget_exhausted ||
          slice.stream_exhausted) {
        break;
      }
    }
    ExpectSameSequence(concatenated, reference);
  }
}

// ----------------------------------------------- drain vs in-flight serve

TEST(ResolverDrainTest, DrainRejectsAfterwardsAndIsIdempotent) {
  const ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});

  ResolveResult before = resolver->Serve({10, 0});
  EXPECT_EQ(before.comparisons.size(), 10u);
  EXPECT_FALSE(resolver->draining());

  resolver->Drain();
  EXPECT_TRUE(resolver->draining());

  ResolveResult after = resolver->Serve({10, 0});
  EXPECT_TRUE(after.comparisons.empty());
  EXPECT_EQ(after.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(after.status.message().find("draining"), std::string::npos);
  EXPECT_FALSE(resolver->Next().has_value());

  resolver->Drain();  // second drain: no-op, no deadlock
  EXPECT_TRUE(resolver->draining());
}

TEST(ResolverDrainTest, ConcurrentDrainVsServeNeverCorruptsTheStream) {
  const ProfileStore store = DirtyStore();
  constexpr std::uint64_t kBudget = 2000;
  constexpr std::size_t kClients = 4;

  for (const ServingConfig& config : ServingMatrix()) {
    SCOPED_TRACE(TraceOf(config));
    ResolverOptions options;
    options.method = config.method;
    options.num_shards = config.num_shards;
    options.lookahead = config.lookahead;
    options.num_threads = config.num_threads;
    options.budget = kBudget;

    const std::vector<Comparison> reference =
        Drain(MustCreate(store, options).get(), 1000000);
    ASSERT_FALSE(reference.empty());

    std::unique_ptr<Resolver> resolver = MustCreate(store, options);
    struct Slice {
      std::uint64_t ticket;
      ResolveResult result;
    };
    std::vector<std::vector<Slice>> per_client(kClients);
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::size_t> finished{0};
    {
      std::vector<std::thread> clients;
      for (std::size_t t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          for (;;) {
            ResolveResult result = resolver->Serve({64, 0});
            const bool rejected = !result.status.ok();
            const bool dry = result.status.ok() &&
                             (result.stream_exhausted ||
                              result.budget_exhausted);
            served.fetch_add(result.comparisons.size(),
                             std::memory_order_relaxed);
            per_client[t].push_back({result.ticket, std::move(result)});
            if (rejected || dry) break;
          }
          finished.fetch_add(1, std::memory_order_relaxed);
        });
      }
      // Let the clients make some progress, then drain out from under
      // them mid-request. (Progress is observed through the test's own
      // atomics — the resolver's accounting getters are not meant for
      // concurrent polling.)
      while (served.load(std::memory_order_relaxed) < kBudget / 4 &&
             finished.load(std::memory_order_relaxed) < kClients) {
        std::this_thread::yield();
      }
      resolver->Drain();
      // Drain returned: the stream is down; every straggler request must
      // come back rejected without blocking.
      for (std::thread& client : clients) client.join();
    }

    // Every request either served normally or was rejected cleanly; the
    // served slices in ticket order are an exact prefix of the reference
    // stream — drain never tears a slice mid-draw.
    std::vector<Slice> ok;
    for (std::vector<Slice>& slices : per_client) {
      for (Slice& slice : slices) {
        if (slice.result.status.ok()) {
          ok.push_back(std::move(slice));
        } else {
          EXPECT_EQ(slice.result.status.code(),
                    StatusCode::kFailedPrecondition);
          EXPECT_TRUE(slice.result.comparisons.empty());
        }
      }
    }
    std::sort(ok.begin(), ok.end(), [](const Slice& a, const Slice& b) {
      return a.ticket < b.ticket;
    });
    std::vector<Comparison> concatenated;
    for (const Slice& slice : ok) {
      concatenated.insert(concatenated.end(),
                          slice.result.comparisons.begin(),
                          slice.result.comparisons.end());
    }
    ASSERT_LE(concatenated.size(), reference.size());
    ExpectSameSequence(
        concatenated,
        std::vector<Comparison>(reference.begin(),
                                reference.begin() + concatenated.size()));

    // And the resolver stays well-defined after the racy drain.
    EXPECT_TRUE(resolver->draining());
    EXPECT_FALSE(resolver->Next().has_value());
  }
}

TEST(ResolverDrainTest, ConcurrentDoubleDrainBothReturn) {
  const ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  std::thread first([&] { resolver->Drain(); });
  std::thread second([&] { resolver->Drain(); });
  first.join();
  second.join();
  EXPECT_TRUE(resolver->draining());
}

// PR 8 lock-discipline regression test, written to be TSan-visible: every
// mutex-guarded structure annotated in this PR (resolver admission state,
// registry metric maps and span log, pipeline done-flag, thread-pool
// queue) is exercised from multiple threads at once — concurrent Serve()
// clients, a concurrent Drain(), and a reader snapshotting the live
// Registry mid-serve. Under -fsanitize=thread any guarded field touched
// outside its mutex (what the annotations reject at compile time on
// Clang) surfaces as a data race here.
TEST(ResolverDrainTest, ConcurrentServeDrainAndSnapshotAreRaceFree) {
  const ProfileStore store = DirtyStore();
  obs::Registry registry;
  ResolverOptions options;
  options.method = MethodId::kPps;
  options.num_shards = 2;
  options.lookahead = 2;
  options.budget = 1500;
  options.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver = MustCreate(store, options);

  std::atomic<std::uint64_t> served{0};
  std::atomic<bool> stop_snapshots{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        ResolveResult slice = resolver->Serve({64, 0});
        served.fetch_add(slice.comparisons.size(),
                         std::memory_order_relaxed);
        if (!slice.status.ok() || slice.stream_exhausted ||
            slice.budget_exhausted) {
          break;
        }
      }
    });
  }
  std::thread snapshotter([&] {
    // Reads the registry's guarded maps while Serve() threads create
    // metrics and record spans into them.
    while (!stop_snapshots.load(std::memory_order_relaxed)) {
      EXPECT_FALSE(registry.SnapshotJson().empty());
      std::this_thread::yield();
    }
  });
  while (served.load(std::memory_order_relaxed) < 200) {
    std::this_thread::yield();
  }
  resolver->Drain();  // races against in-flight Serve() by design
  for (std::thread& worker : workers) worker.join();
  stop_snapshots.store(true, std::memory_order_relaxed);
  snapshotter.join();

  EXPECT_TRUE(resolver->draining());
  EXPECT_GT(registry.num_spans(), 0u);
  EXPECT_FALSE(registry.SnapshotJson().empty());
}

// ------------------------------------------------ QoS layer composition

/// Spins until `depth` requests are parked in the controller's lanes.
void AwaitQueueDepth(const serving::QosAdmissionController& controller,
                     std::size_t depth) {
  while (controller.queue_depth() < depth) std::this_thread::yield();
}

// A rate-limited client that backs off by exactly the controller's
// retry_after_ms hint and retries still reassembles the bit-identical
// stream at every (method, shards, lookahead, threads) combination —
// sheds never consume stream capacity and never reorder it.
TEST(QosRobustnessTest, ShedThenRetryKeepsStreamBitIdentical) {
  const ProfileStore store = DirtyStore();
  for (const ServingConfig& config : ServingMatrix()) {
    SCOPED_TRACE(TraceOf(config));
    ResolverOptions options;
    options.method = config.method;
    options.num_shards = config.num_shards;
    options.lookahead = config.lookahead;
    options.num_threads = config.num_threads;
    options.budget = 600;
    const std::vector<Comparison> reference =
        Drain(MustCreate(store, options).get(), 1000000);
    ASSERT_FALSE(reference.empty());

    std::unique_ptr<Resolver> resolver = MustCreate(store, options);
    obs::ManualClock clock;
    serving::QosOptions qos;
    qos.clock = &clock;
    qos.client_rate = 5.0;  // one token per 200 ms
    qos.client_burst = 2.0;
    serving::QosAdmissionController controller(*resolver, qos);

    std::vector<Comparison> concatenated;
    std::uint64_t sheds = 0;
    bool done = false;
    while (!done) {
      ResolveRequest request;
      request.budget = 64;
      request.client_id = 42;
      ResolveResult slice = controller.Resolve(request);
      if (slice.outcome == ResolveOutcome::kShed) {
        ++sheds;
        ASSERT_GT(slice.retry_after_ms, 0u);
        clock.AdvanceMillis(slice.retry_after_ms);
        continue;
      }
      ASSERT_EQ(slice.outcome, ResolveOutcome::kServed);
      concatenated.insert(concatenated.end(), slice.comparisons.begin(),
                          slice.comparisons.end());
      done = slice.stream_exhausted || slice.budget_exhausted;
    }
    EXPECT_GT(sheds, 0u) << "the rate limit never bit";
    ExpectSameSequence(concatenated, reference);
    resolver->Drain();
  }
}

// The starvation bound: 16 interactive requests queued ahead do not
// starve 2 batch requests. Smooth WRR over weights {8,2} dispatches
// I I B I I | I I B ... — the batch lane is served at dispatches 2 and 7
// (resolver tickets prove it), not after all 16 interactive.
TEST(QosRobustnessTest, BatchWaitIsBoundedUnderSustainedInteractiveLoad) {
  const ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;
  serving::QosOptions qos;
  qos.clock = &clock;  // default weights {8, 2, 1}
  serving::QosAdmissionController controller(*resolver, qos);

  controller.SetDispatchPaused(true);
  std::mutex mu;
  std::vector<std::uint64_t> batch_tickets;
  std::vector<std::thread> workers;
  for (int i = 0; i < 16; ++i) {
    workers.emplace_back([&] {
      ResolveRequest request;
      request.budget = 1;
      request.priority = Priority::kInteractive;
      ASSERT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
    });
  }
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([&] {
      ResolveRequest request;
      request.budget = 1;
      request.priority = Priority::kBatch;
      ResolveResult result = controller.Resolve(request);
      ASSERT_EQ(result.outcome, ResolveOutcome::kServed);
      std::lock_guard<std::mutex> hold(mu);
      batch_tickets.push_back(result.ticket);
    });
  }
  AwaitQueueDepth(controller, 18);
  controller.SetDispatchPaused(false);
  for (std::thread& worker : workers) worker.join();

  ASSERT_EQ(batch_tickets.size(), 2u);
  std::sort(batch_tickets.begin(), batch_tickets.end());
  EXPECT_EQ(batch_tickets[0], 2u);
  EXPECT_EQ(batch_tickets[1], 7u);
}

// Doomed eviction composes with a sharded, pipelined engine: the evicted
// request spends no stream capacity, so the barely-feasible one that
// follows it still reads the exact head of the stream.
TEST(QosRobustnessTest, DoomedEvictionVsBarelyMakesDeadline) {
  const ProfileStore store = DirtyStore();
  ResolverOptions options;
  options.num_shards = 2;
  options.lookahead = 2;
  const std::vector<Comparison> reference =
      Drain(MustCreate(store, options).get(), 32);
  ASSERT_EQ(reference.size(), 32u);

  std::unique_ptr<Resolver> resolver = MustCreate(store, options);
  obs::ManualClock clock;
  serving::QosOptions qos;
  qos.clock = &clock;
  serving::QosAdmissionController controller(*resolver, qos);

  controller.SetDispatchPaused(true);
  ResolveResult doomed_result;
  std::thread doomed([&] {
    ResolveRequest request;
    request.budget = 32;
    request.deadline_ms = 50;  // cannot survive the 100 ms queue wait
    doomed_result = controller.Resolve(request);
  });
  AwaitQueueDepth(controller, 1);
  ResolveResult barely_result;
  std::thread barely([&] {
    ResolveRequest request;
    request.budget = 32;
    request.deadline_ms = 5000;  // survives it comfortably
    barely_result = controller.Resolve(request);
  });
  AwaitQueueDepth(controller, 2);
  clock.AdvanceMillis(100);
  controller.SetDispatchPaused(false);
  doomed.join();
  barely.join();

  EXPECT_EQ(doomed_result.outcome, ResolveOutcome::kEvicted);
  EXPECT_TRUE(doomed_result.deadline_exceeded());
  EXPECT_TRUE(doomed_result.comparisons.empty());
  ASSERT_EQ(barely_result.outcome, ResolveOutcome::kServed);
  EXPECT_EQ(barely_result.ticket, 0u)
      << "the eviction must not have taken a ticket";
  ExpectSameSequence(barely_result.comparisons, reference);
  resolver->Drain();
}

// Drain() while the controller holds a full queue of parked requests:
// the parked requests hold no resolver tickets, so the drain completes
// immediately; releasing the queue afterwards rejects every parked
// request cleanly (no deadlock, no half-served slice).
TEST(QosRobustnessTest, DrainRacingAFullShedQueueRejectsCleanly) {
  const ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;
  serving::QosOptions qos;
  qos.clock = &clock;
  qos.max_queue_depth = 4;
  serving::QosAdmissionController controller(*resolver, qos);

  controller.SetDispatchPaused(true);
  std::mutex mu;
  std::vector<ResolveResult> parked_results;
  std::vector<std::thread> parked;
  for (int i = 0; i < 4; ++i) {
    parked.emplace_back([&] {
      ResolveRequest request;
      request.budget = 8;
      ResolveResult result = controller.Resolve(request);
      std::lock_guard<std::mutex> hold(mu);
      parked_results.push_back(result);
    });
  }
  AwaitQueueDepth(controller, 4);

  // The queue is at its bound: the next request sheds, not queues.
  ResolveRequest overflow;
  overflow.budget = 8;
  ResolveResult shed = controller.Resolve(overflow);
  EXPECT_EQ(shed.outcome, ResolveOutcome::kShed);
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);

  // Drain completes while all four requests are still parked: none of
  // them holds a ticket, so there is nothing to wait for.
  resolver->Drain();
  EXPECT_TRUE(resolver->draining());

  controller.SetDispatchPaused(false);
  for (std::thread& t : parked) t.join();

  ASSERT_EQ(parked_results.size(), 4u);
  for (const ResolveResult& result : parked_results) {
    EXPECT_EQ(result.outcome, ResolveOutcome::kRejected);
    EXPECT_EQ(result.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(result.comparisons.empty());
  }

  // Post-drain requests flow through the controller and reject too.
  ResolveRequest late;
  late.budget = 8;
  EXPECT_EQ(controller.Resolve(late).outcome, ResolveOutcome::kRejected);
}

// ------------------------------------------- thread-pool exception health

TEST(ThreadPoolTest, DroppedTaskExceptionsAreCountedNotSwallowed) {
  ThreadPool pool(1);
  for (int k = 0; k < 3; ++k) {
    pool.Submit([] { throw std::runtime_error("task failure"); });
  }
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // One exception rode the rethrow slot; the other two are accounted for
  // instead of vanishing.
  EXPECT_EQ(pool.dropped_exceptions(), 2u);
}

// ------------------------------------------------- fault-injected seams
//
// These run only in SPER_FAULT_INJECT builds (ctest in build-fault, the
// CI fault job); in normal builds the seams compile out and the tests
// skip themselves.

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!obs::kFaultInjectionEnabled) {
      GTEST_SKIP() << "built without SPER_FAULT_INJECT";
    }
    obs::FaultRegistry::Global().Reset();
  }
  void TearDown() override { obs::FaultRegistry::Global().Reset(); }
};

TEST_F(FaultInjectionTest, RefillThrowPoisonsTheEngineWithContext) {
  const ProfileStore store = DirtyStore();
  for (std::size_t lookahead : {std::size_t{0}, std::size_t{4}}) {
    SCOPED_TRACE("lookahead=" + std::to_string(lookahead));
    obs::FaultRegistry::Global().Reset();

    // Shard 0's second refill throws; the other shards stay healthy.
    obs::FaultPlan plan;
    plan.action = obs::FaultPlan::Action::kThrow;
    plan.message = "injected refill failure";
    plan.start_after = 1;
    obs::FaultRegistry::Global().Arm("refill.shard0", plan);

    ResolverOptions options;
    options.num_shards = 4;
    options.lookahead = lookahead;
    std::unique_ptr<Resolver> resolver = MustCreate(store, options);

    // The failure is contained: some requests may still serve from
    // batches produced before the throw, then exactly one request
    // reports the Internal status with shard and batch context.
    ResolveResult failed;
    for (int k = 0; k < 64; ++k) {
      failed = resolver->Serve({256, 0});
      if (!failed.status.ok() || failed.stream_exhausted) break;
    }
    ASSERT_FALSE(failed.status.ok()) << "fault never surfaced";
    EXPECT_EQ(failed.status.code(), StatusCode::kInternal);
    EXPECT_NE(failed.status.message().find("shard0"), std::string::npos)
        << failed.status.ToString();
    EXPECT_NE(failed.status.message().find("batch"), std::string::npos)
        << failed.status.ToString();
    EXPECT_NE(failed.status.message().find("injected refill failure"),
              std::string::npos)
        << failed.status.ToString();

    // Poisoning is sticky: later requests get the stable
    // FailedPrecondition answer, not UB and not a re-report.
    ResolveResult after = resolver->Serve({256, 0});
    EXPECT_EQ(after.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(after.status.message().find("poisoned"), std::string::npos);
    EXPECT_TRUE(after.comparisons.empty());
    EXPECT_FALSE(resolver->Next().has_value());

    // A poisoned resolver still drains cleanly (producers join).
    resolver->Drain();
  }
}

TEST_F(FaultInjectionTest, RefillThrowReplaysAtEveryThreadCount) {
  // The refill seam is keyed to the batch index, so one plan fails the
  // same batch whichever of four workers reaches it first: the status,
  // the batch it names and the prefix served before it all match the
  // serial path.
  const ProfileStore store = DirtyStore();
  struct Outcome {
    std::vector<Comparison> served;
    ResolveOutcome outcome = ResolveOutcome::kServed;
    Status status;
  };
  const auto run = [&](std::size_t num_threads) {
    obs::FaultRegistry::Global().Reset();
    obs::FaultPlan plan;
    plan.action = obs::FaultPlan::Action::kThrow;
    plan.message = "injected refill failure";
    plan.start_after = 150;
    obs::FaultRegistry::Global().Arm("refill", plan);
    ResolverOptions options;
    options.num_threads = num_threads;
    std::unique_ptr<Resolver> resolver = MustCreate(store, options);
    Outcome outcome;
    for (;;) {
      ResolveResult slice = resolver->Serve({256, 0});
      outcome.served.insert(outcome.served.end(), slice.comparisons.begin(),
                            slice.comparisons.end());
      if (slice.outcome != ResolveOutcome::kServed ||
          slice.stream_exhausted) {
        outcome.outcome = slice.outcome;
        outcome.status = slice.status;
        break;
      }
    }
    resolver->Drain();  // joins the workers stopped at the failure
    return outcome;
  };

  const Outcome serial = run(1);
  ASSERT_EQ(serial.outcome, ResolveOutcome::kFailed)
      << serial.status.ToString();
  EXPECT_NE(serial.status.message().find("batch 150"), std::string::npos)
      << serial.status.ToString();
  obs::FaultRegistry::Global().Reset();
  ExpectSameSequence(
      serial.served,
      Drain(MustCreate(store, {}).get(), serial.served.size()));

  const Outcome parallel = run(4);
  EXPECT_EQ(parallel.outcome, ResolveOutcome::kFailed);
  EXPECT_EQ(parallel.status.ToString(), serial.status.ToString());
  ExpectSameSequence(parallel.served, serial.served);
}

TEST_F(FaultInjectionTest, IndexedSeamFiresOnItsIndicesInAnyCallOrder) {
  // start_after 10, every 5, limit 2: indices 10 and 15 fire, whatever
  // order the callers reach them in (here: backwards).
  obs::FaultPlan plan;
  plan.action = obs::FaultPlan::Action::kThrow;
  plan.start_after = 10;
  plan.every = 5;
  plan.limit = 2;
  obs::FaultRegistry::Global().Arm("indexed", plan);
  std::vector<std::uint64_t> fired;
  for (std::uint64_t index = 30; index-- > 0;) {
    try {
      SPER_FAULT_HIT_AT("indexed", index);
    } catch (const obs::FaultInjectedError&) {
      fired.push_back(index);
    }
  }
  EXPECT_EQ(fired, (std::vector<std::uint64_t>{15, 10}));
  EXPECT_EQ(obs::FaultRegistry::Global().hits("indexed"), 30u);
  EXPECT_EQ(obs::FaultRegistry::Global().fires("indexed"), 2u);
}

TEST_F(FaultInjectionTest, StalledRefillsPlusDeadlinesStillReassemble) {
  const ProfileStore store = DirtyStore();
  constexpr std::uint64_t kBudget = 400;
  // The serial engine's refill seam, the same seam under four refill
  // workers, and the pipelined variant across two shards with one seam
  // per shard.
  struct Variant {
    std::size_t num_shards;
    std::size_t lookahead;
    std::size_t num_threads;
    std::vector<std::string> seams;
  };
  const std::vector<Variant> variants = {
      {1, 0, 1, {"refill"}},
      {1, 0, 4, {"refill"}},
      {2, 4, 1, {"refill.shard0", "refill.shard1"}}};
  for (const Variant& variant : variants) {
    SCOPED_TRACE("shards=" + std::to_string(variant.num_shards) +
                 " lookahead=" + std::to_string(variant.lookahead) +
                 " threads=" + std::to_string(variant.num_threads));
    obs::FaultRegistry::Global().Reset();

    ResolverOptions options;
    options.budget = kBudget;
    options.num_shards = variant.num_shards;
    options.lookahead = variant.lookahead;
    options.num_threads = variant.num_threads;
    const std::vector<Comparison> reference =
        Drain(MustCreate(store, options).get(), 1000000);
    ASSERT_FALSE(reference.empty());

    // Every refill stalls well past the request deadline: requests keep
    // being cut short, each continuing losslessly.
    obs::FaultPlan stall;
    stall.action = obs::FaultPlan::Action::kStall;
    stall.stall_ms = 25;
    for (const std::string& seam : variant.seams) {
      obs::FaultRegistry::Global().Arm(seam, stall);
    }

    std::unique_ptr<Resolver> resolver = MustCreate(store, options);
    std::vector<Comparison> concatenated;
    std::uint64_t cuts = 0;
    bool done = false;
    for (int k = 0; k < 256 && !done; ++k) {
      ResolveRequest request;
      request.budget = kBudget;
      request.deadline_ms = 8;
      ResolveResult slice = resolver->Serve(request);
      ASSERT_TRUE(slice.status.ok()) << slice.status.ToString();
      concatenated.insert(concatenated.end(), slice.comparisons.begin(),
                          slice.comparisons.end());
      cuts += slice.deadline_exceeded() ? 1 : 0;
      done = slice.stream_exhausted || slice.budget_exhausted;
      if (cuts >= 3 && !done) break;  // enough deadline pressure observed
    }
    EXPECT_GE(cuts, 1u) << "the stall never pushed a request past its "
                           "deadline";
    std::uint64_t fires = 0;
    for (const std::string& seam : variant.seams) {
      fires += obs::FaultRegistry::Global().fires(seam);
    }
    EXPECT_GT(fires, 0u);

    // Disarm and drain the rest without deadlines: the full
    // concatenation must be bit-identical to the fault-free reference.
    for (const std::string& seam : variant.seams) {
      obs::FaultRegistry::Global().Disarm(seam);
    }
    while (!done) {
      ResolveResult slice = resolver->Serve({kBudget, 0});
      ASSERT_TRUE(slice.status.ok()) << slice.status.ToString();
      concatenated.insert(concatenated.end(), slice.comparisons.begin(),
                          slice.comparisons.end());
      done = slice.stream_exhausted || slice.budget_exhausted ||
             slice.comparisons.empty();
    }
    ExpectSameSequence(concatenated, reference);
  }
}

TEST_F(FaultInjectionTest, AllInstrumentedSeamsAreReachable) {
  const ProfileStore store = DirtyStore();
  // Zero-ms stalls: fire the seams without slowing the test down.
  obs::FaultPlan probe;
  probe.action = obs::FaultPlan::Action::kStall;
  probe.stall_ms = 0;
  for (const char* site :
       {"ring.acquire_slot", "refill.shard0", "merge.draw",
        "session.admit"}) {
    obs::FaultRegistry::Global().Arm(site, probe);
  }

  ResolverOptions options;
  options.num_shards = 2;
  options.lookahead = 2;
  options.budget = 600;
  std::unique_ptr<Resolver> resolver = MustCreate(store, options);
  for (;;) {
    ResolveResult slice = resolver->Serve({128, 0});
    if (slice.comparisons.empty() || slice.stream_exhausted ||
        slice.budget_exhausted) {
      break;
    }
  }
  resolver->Drain();

  obs::FaultRegistry& registry = obs::FaultRegistry::Global();
  EXPECT_GT(registry.hits("ring.acquire_slot"), 0u);
  EXPECT_GT(registry.hits("refill.shard0"), 0u);
  EXPECT_GT(registry.hits("merge.draw"), 0u);
  EXPECT_GT(registry.hits("session.admit"), 0u);
}

TEST_F(FaultInjectionTest, QosSeamsAreReachable) {
  const ProfileStore store = DirtyStore();
  obs::FaultPlan probe;
  probe.action = obs::FaultPlan::Action::kStall;
  probe.stall_ms = 0;
  for (const char* site : {"qos.admit", "qos.shed", "qos.evict"}) {
    obs::FaultRegistry::Global().Arm(site, probe);
  }

  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  obs::ManualClock clock;
  serving::QosOptions qos;
  qos.clock = &clock;
  qos.client_rate = 10.0;
  qos.client_burst = 1.0;
  serving::QosAdmissionController controller(*resolver, qos);

  // One served request (qos.admit), one rate-limit shed (qos.shed), one
  // expired-in-the-lane eviction (qos.evict).
  ResolveRequest request;
  request.budget = 4;
  request.client_id = 1;
  ASSERT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kServed);
  ASSERT_EQ(controller.Resolve(request).outcome, ResolveOutcome::kShed);

  controller.SetDispatchPaused(true);
  std::thread doomed([&] {
    ResolveRequest late;
    late.budget = 4;
    late.deadline_ms = 10;
    ASSERT_EQ(controller.Resolve(late).outcome, ResolveOutcome::kEvicted);
  });
  AwaitQueueDepth(controller, 1);
  clock.AdvanceMillis(20);
  controller.SetDispatchPaused(false);
  doomed.join();

  obs::FaultRegistry& registry = obs::FaultRegistry::Global();
  EXPECT_GT(registry.hits("qos.admit"), 0u);
  EXPECT_GT(registry.hits("qos.shed"), 0u);
  EXPECT_GT(registry.hits("qos.evict"), 0u);
}

}  // namespace
}  // namespace sper
