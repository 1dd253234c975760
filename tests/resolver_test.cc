// Unified Resolver serving API (src/engine/resolver.h). The contract
// under test:
//
// - Resolver::Create validates ResolverOptions with a clear error Status
//   (no silent fallbacks, no pipelined single shard) and picks plain vs
//   sharded serving;
// - ProgressiveEngine and ShardedEngine are interchangeable behind the
//   abstract Engine interface (budget, stats, stream);
// - Resolver::Serve slices concatenate bit-identically to one un-batched
//   drain at every (method, ER type, shards, lookahead, refill workers,
//   batch size) combination, including under concurrent ticketed FIFO
//   admission;
// - per-request pay-as-you-go: zero-budget requests buy nothing, the
//   global budget exhausts mid-slice with the flag set, and an invalid
//   request is rejected before it takes a ticket.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "engine/progressive_engine.h"
#include "engine/resolver.h"
#include "engine/sharded_engine.h"

namespace sper {
namespace {

ProfileStore DirtyStore() {
  Result<DatasetBundle> ds = GenerateDataset("restaurant", {});
  EXPECT_TRUE(ds.ok());
  return std::move(ds.value().store);
}

ProfileStore CleanCleanStore() {
  DatagenOptions gen;
  gen.scale = 0.1;
  Result<DatasetBundle> ds = GenerateDataset("movies", gen);
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

// ------------------------------------------------------ options validation

TEST(ResolverOptionsTest, CreateRejectsInvalidOptionsWithClearStatus) {
  const ProfileStore store = DirtyStore();

  ResolverOptions zero_threads;
  zero_threads.num_threads = 0;
  Result<std::unique_ptr<Resolver>> r1 = Resolver::Create(store, zero_threads);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r1.status().message().find("num_threads"), std::string::npos);

  ResolverOptions zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_EQ(Resolver::Create(store, zero_shards).status().code(),
            StatusCode::kInvalidArgument);

  ResolverOptions too_many_shards;
  too_many_shards.num_shards = ResolverOptions::kMaxShards + 1;
  EXPECT_EQ(Resolver::Create(store, too_many_shards).status().code(),
            StatusCode::kInvalidArgument);

  ResolverOptions huge_lookahead;
  huge_lookahead.lookahead = ResolverOptions::kMaxLookahead + 1;
  EXPECT_EQ(Resolver::Create(store, huge_lookahead).status().code(),
            StatusCode::kInvalidArgument);

  // Pipelined emission runs only across shards: lookahead 4 is rejected
  // on one shard and accepted on two.
  ResolverOptions pipelined_single;
  pipelined_single.lookahead = 4;
  Result<std::unique_ptr<Resolver>> r5 =
      Resolver::Create(store, pipelined_single);
  ASSERT_FALSE(r5.ok());
  EXPECT_EQ(r5.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r5.status().message().find("lookahead"), std::string::npos);

  ResolverOptions pipelined_sharded = pipelined_single;
  pipelined_sharded.num_shards = 2;
  EXPECT_TRUE(Resolver::Create(store, pipelined_sharded).ok());

  // PSN without a schema key used to abort inside the engine; the factory
  // reports it as a client error instead.
  ResolverOptions psn;
  psn.method = MethodId::kPsn;
  Result<std::unique_ptr<Resolver>> r2 = Resolver::Create(store, psn);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r2.status().message().find("schema"), std::string::npos);

  ResolverOptions bad_kmax;
  bad_kmax.method = MethodId::kPps;
  bad_kmax.pps_kmax = 0;
  EXPECT_EQ(Resolver::Create(store, bad_kmax).status().code(),
            StatusCode::kInvalidArgument);

  // Workflow ratios: NaN, infinite and negative values are client errors
  // that name the field.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), -0.5}) {
    ResolverOptions filtering;
    filtering.workflow.filtering.ratio = bad;
    Result<std::unique_ptr<Resolver>> r3 = Resolver::Create(store, filtering);
    ASSERT_FALSE(r3.ok()) << bad;
    EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r3.status().message().find("workflow.filtering.ratio"),
              std::string::npos);

    ResolverOptions purging;
    purging.workflow.purging.max_size_ratio = bad;
    Result<std::unique_ptr<Resolver>> r4 = Resolver::Create(store, purging);
    ASSERT_FALSE(r4.ok()) << bad;
    EXPECT_EQ(r4.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r4.status().message().find("workflow.purging.max_size_ratio"),
              std::string::npos);
  }

  // The boundary values stay valid: ratio 0 filters every profile out of
  // every block, ratio >= 1 keeps them all.
  for (double edge : {0.0, 1.0, 2.5}) {
    ResolverOptions options;
    options.workflow.filtering.ratio = edge;
    options.workflow.purging.max_size_ratio = edge;
    EXPECT_TRUE(Resolver::Create(store, options).ok()) << edge;
  }
}

TEST(ResolverOptionsTest, CreatePicksPlainAndShardedEngines) {
  const ProfileStore store = DirtyStore();
  ResolverOptions options;
  std::unique_ptr<Resolver> plain = MustCreate(store, options);
  EXPECT_EQ(plain->num_shards(), 1u);
  EXPECT_EQ(plain->name(), "PPS");

  options.num_shards = 4;
  std::unique_ptr<Resolver> sharded = MustCreate(store, options);
  EXPECT_EQ(sharded->num_shards(), 4u);
  EXPECT_EQ(sharded->init_stats().shard_sizes.size(), 4u);
}

// ------------------------------------------- Engine interface polymorphism

TEST(EngineInterfaceTest, PlainAndShardedBehaveIdenticallyThroughBase) {
  const ProfileStore store = DirtyStore();

  ResolverOptions config;
  config.method = MethodId::kPps;
  config.budget = 40;
  ResolverOptions sharded = config;
  sharded.num_shards = 4;

  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(std::make_unique<ProgressiveEngine>(store, config));
  engines.push_back(std::make_unique<ShardedEngine>(store, sharded));

  for (std::size_t e = 0; e < engines.size(); ++e) {
    std::unique_ptr<Engine>& engine = engines[e];
    SCOPED_TRACE(e == 0 ? "plain" : "sharded");
    EXPECT_EQ(engine->name(), "PPS");
    EXPECT_EQ(engine->emitted(), 0u);
    EXPECT_FALSE(engine->BudgetExhausted());
    EXPECT_GT(engine->init_stats().num_blocks, 0u);
    EXPECT_GT(engine->init_stats().aggregate_cardinality, 0u);
    // The budget contract lives in the Engine base class.
    const std::vector<Comparison> emitted = Drain(engine.get(), 1000000);
    EXPECT_EQ(emitted.size(), 40u);
    EXPECT_EQ(engine->emitted(), 40u);
    EXPECT_TRUE(engine->BudgetExhausted());
    EXPECT_FALSE(engine->Next().has_value());
  }
}

// --------------------------------------------- session batching determinism

struct ResolverCase {
  MethodId method;
  bool clean_clean;
};

class SessionDeterminismTest : public ::testing::TestWithParam<ResolverCase> {
};

TEST_P(SessionDeterminismTest, SlicesConcatenateToUnbatchedDrain) {
  const ProfileStore store =
      GetParam().clean_clean ? CleanCleanStore() : DirtyStore();
  constexpr std::uint64_t kBudget = 1500;

  for (std::size_t num_shards : {std::size_t{1}, std::size_t{4}}) {
    ResolverOptions options;
    options.method = GetParam().method;
    options.num_shards = num_shards;
    options.budget = kBudget;

    // The reference: one un-batched drain of the whole budgeted stream.
    const std::vector<Comparison> reference =
        Drain(MustCreate(store, options).get(), 1000000);
    ASSERT_FALSE(reference.empty());

    for (std::size_t lookahead : {std::size_t{0}, std::size_t{4}}) {
      if (lookahead > 0 && num_shards == 1) continue;  // rejected by Create
      for (std::size_t num_threads : {std::size_t{1}, std::size_t{8}}) {
        // Eight threads on one shard serve through eight refill workers.
        if (num_threads > 1 && num_shards > 1) continue;
        for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{256}}) {
          ResolverOptions batched = options;
          batched.lookahead = lookahead;
          batched.num_threads = num_threads;
          std::unique_ptr<Resolver> resolver = MustCreate(store, batched);
          std::vector<Comparison> concatenated;
          for (;;) {
            ResolveResult slice = resolver->Serve({batch, batch});
            EXPECT_LE(slice.comparisons.size(), batch);
            concatenated.insert(concatenated.end(),
                                slice.comparisons.begin(),
                                slice.comparisons.end());
            if (slice.comparisons.empty() || slice.budget_exhausted ||
                slice.stream_exhausted) {
              break;
            }
          }
          SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                       " lookahead=" + std::to_string(lookahead) +
                       " threads=" + std::to_string(num_threads) +
                       " batch=" + std::to_string(batch));
          ExpectSameSequence(concatenated, reference);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PpsAndPbs, SessionDeterminismTest,
    ::testing::Values(ResolverCase{MethodId::kPps, false},
                      ResolverCase{MethodId::kPps, true},
                      ResolverCase{MethodId::kPbs, false},
                      ResolverCase{MethodId::kPbs, true}),
    [](const ::testing::TestParamInfo<ResolverCase>& info) {
      std::string name(ToString(info.param.method));
      name += info.param.clean_clean ? "_CleanClean" : "_Dirty";
      return name;
    });

// --------------------------------------------------- per-request budgets

TEST(ResolverSessionTest, GlobalBudgetExhaustsMidBatch) {
  const ProfileStore store = DirtyStore();
  ResolverOptions options;
  options.budget = 25;
  std::unique_ptr<Resolver> resolver = MustCreate(store, options);
  // The caller counts what it was served.
  std::uint64_t requests = 0;
  std::uint64_t delivered = 0;
  const auto serve = [&](const ResolveRequest& request) {
    ResolveResult result = resolver->Serve(request);
    ++requests;
    delivered += result.comparisons.size();
    return result;
  };

  ResolveResult first = serve({10, 0});
  EXPECT_EQ(first.comparisons.size(), 10u);
  EXPECT_FALSE(first.budget_exhausted);

  ResolveResult second = serve({10, 0});
  EXPECT_EQ(second.comparisons.size(), 10u);

  // The third request pays for 10 but the global budget only covers 5:
  // the slice comes back short with the flag set.
  ResolveResult third = serve({10, 0});
  EXPECT_EQ(third.comparisons.size(), 5u);
  EXPECT_TRUE(third.budget_exhausted);
  EXPECT_FALSE(third.stream_exhausted);

  // Requests after exhaustion buy nothing and say why.
  ResolveResult fourth = serve({10, 0});
  EXPECT_TRUE(fourth.comparisons.empty());
  EXPECT_TRUE(fourth.budget_exhausted);

  EXPECT_TRUE(resolver->BudgetExhausted());
  EXPECT_EQ(resolver->emitted(), 25u);
  EXPECT_EQ(requests, 4u);
  EXPECT_EQ(delivered, 25u);
}

TEST(ResolverSessionTest, ZeroBudgetRequestBuysNothingAndConsumesNothing) {
  const ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> reference = MustCreate(store, {});
  const std::optional<Comparison> head = reference->Next();
  ASSERT_TRUE(head.has_value());

  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  ResolveResult probe = resolver->Serve({0, 0});
  EXPECT_TRUE(probe.comparisons.empty());
  EXPECT_FALSE(probe.budget_exhausted);
  EXPECT_EQ(resolver->emitted(), 0u);

  // The probe did not advance the stream: the next request still gets
  // the true head of the ranked stream.
  ResolveResult next = resolver->Serve({1, 0});
  ASSERT_EQ(next.comparisons.size(), 1u);
  EXPECT_EQ(next.comparisons[0].i, head->i);
  EXPECT_EQ(next.comparisons[0].j, head->j);
  EXPECT_EQ(next.comparisons[0].weight, head->weight);
}

TEST(ResolverSessionTest, MaxBatchCapsTheSliceWithoutSpendingTheRest) {
  const ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  ResolveResult slice = resolver->Serve({/*budget=*/100, /*max_batch=*/7});
  EXPECT_EQ(slice.comparisons.size(), 7u);
  // Pay only for what is delivered: the un-drawn 93 stay in the stream.
  EXPECT_EQ(resolver->emitted(), 7u);
}

// Every entry point validates first: an out-of-range deadline (which
// would overflow the deadline clock), an oversize max_batch or an unknown
// priority byte comes back rejected with InvalidArgument, before it takes
// a ticket or touches the stream.
TEST(ResolverServeTest, InvalidRequestsAreRejectedBeforeATicket) {
  const ProfileStore store = DirtyStore();
  std::unique_ptr<Resolver> reference = MustCreate(store, {});
  const std::optional<Comparison> head = reference->Next();
  ASSERT_TRUE(head.has_value());

  std::vector<ResolveRequest> invalid(4);
  invalid[0].deadline_ms = ResolveRequest::kMaxDeadlineMs + 1;
  invalid[1].deadline_ms = std::numeric_limits<std::uint64_t>::max();
  invalid[2].max_batch = ResolveRequest::kMaxBatch + 1;
  invalid[3].priority = static_cast<Priority>(3);

  std::unique_ptr<Resolver> resolver = MustCreate(store, {});
  for (std::size_t k = 0; k < invalid.size(); ++k) {
    SCOPED_TRACE("invalid request " + std::to_string(k));
    invalid[k].budget = 10;
    const ResolveResult result = resolver->Serve(invalid[k]);
    EXPECT_EQ(result.outcome, ResolveOutcome::kRejected);
    EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(result.comparisons.empty());
    EXPECT_FALSE(result.admitted());
  }
  EXPECT_EQ(resolver->emitted(), 0u);

  // The next valid request is the resolver's first ticket and reads the
  // head of the stream.
  const ResolveResult next = resolver->Serve({1, 0});
  EXPECT_EQ(next.outcome, ResolveOutcome::kServed);
  EXPECT_EQ(next.ticket, 0u);
  ASSERT_EQ(next.comparisons.size(), 1u);
  EXPECT_EQ(next.comparisons[0].i, head->i);
  EXPECT_EQ(next.comparisons[0].j, head->j);
  EXPECT_EQ(next.comparisons[0].weight, head->weight);
}

// ------------------------------------------------- ticketed FIFO admission

TEST(ResolverSessionTest, ConcurrentClientsReassembleToOneDrain) {
  const ProfileStore store = DirtyStore();
  ResolverOptions options;
  options.budget = 595;

  const std::vector<Comparison> reference =
      Drain(MustCreate(store, options).get(), 1000000);
  ASSERT_EQ(reference.size(), 595u);

  std::unique_ptr<Resolver> resolver = MustCreate(store, options);
  struct Slice {
    std::uint64_t ticket;
    std::vector<Comparison> comparisons;
  };
  std::vector<std::vector<Slice>> per_thread(4);
  {
    std::vector<std::thread> clients;
    for (std::size_t t = 0; t < per_thread.size(); ++t) {
      clients.emplace_back([&, t] {
        // Each client serves its own requests off the shared resolver.
        for (;;) {
          ResolveResult result = resolver->Serve({7, 0});
          const bool done = result.comparisons.empty();
          per_thread[t].push_back(
              {result.ticket, std::move(result.comparisons)});
          if (done) break;
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }

  // Reassembling the slices in ticket order recovers the exact un-batched
  // drain, whatever interleaving the scheduler produced.
  std::vector<Slice> all;
  for (std::vector<Slice>& slices : per_thread) {
    for (Slice& slice : slices) all.push_back(std::move(slice));
  }
  std::sort(all.begin(), all.end(),
            [](const Slice& a, const Slice& b) { return a.ticket < b.ticket; });
  std::vector<Comparison> concatenated;
  for (std::size_t k = 0; k < all.size(); ++k) {
    EXPECT_EQ(all[k].ticket, k) << "tickets must be dense";
    concatenated.insert(concatenated.end(), all[k].comparisons.begin(),
                        all[k].comparisons.end());
  }
  ExpectSameSequence(concatenated, reference);
}

}  // namespace
}  // namespace sper
