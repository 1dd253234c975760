// Tests of the benchmark's own gates: the stream check must catch a wrong
// stream, the workloads must be deterministic per seed, and the quality
// metrics must equal a direct ProgressiveEvaluator run.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/resolver.h"
#include "eval/evaluator.h"
#include "harness.h"
#include "obs/registry.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kTinyScale = 0.02;

const sper::DatasetBundle& TinyInput() {
  static const sper::DatasetBundle input =
      std::move(MakeInput(1, kTinyScale)).value();
  return input;
}

/// The drain-s1 stream of the tiny input as 1024-comparison slices, in
/// ticket order.
std::vector<std::vector<Comparison>> ReferenceSlices() {
  sper::ResolverOptions options;
  options.method = sper::MethodId::kPps;
  std::unique_ptr<sper::Resolver> resolver =
      std::move(sper::Resolver::Create(TinyInput().store, options)).value();
  std::vector<std::vector<Comparison>> slices;
  sper::ResolveRequest request;
  request.budget = 1024;
  for (;;) {
    sper::ResolveResult result = resolver->Serve(request);
    EXPECT_EQ(result.ticket, slices.size());
    const bool last = result.stream_exhausted || result.comparisons.empty();
    slices.push_back(std::move(result.comparisons));
    if (last) return slices;
  }
}

std::unique_ptr<StreamRecorder> Record(
    const std::vector<std::vector<Comparison>>& slices,
    const std::vector<std::uint64_t>& tickets) {
  auto recorder = std::make_unique<StreamRecorder>(
      QualityHeadLength(TinyInput().truth), 3);
  for (std::size_t k = 0; k < slices.size(); ++k) {
    EXPECT_TRUE(recorder->Add(tickets[k], slices[k]));
  }
  return recorder;
}

std::vector<std::uint64_t> InOrder(std::size_t n) {
  std::vector<std::uint64_t> tickets(n);
  for (std::size_t k = 0; k < n; ++k) tickets[k] = k;
  return tickets;
}

TEST(StreamCheck, AcceptsTheSameStreamDeliveredOutOfOrder) {
  const auto slices = ReferenceSlices();
  ASSERT_GT(slices.size(), 8u);
  const auto reference = Record(slices, InOrder(slices.size()));
  // Slices 2 and 3 arrive before 1, still under their own tickets.
  auto recorder = std::make_unique<StreamRecorder>(
      QualityHeadLength(TinyInput().truth), 3);
  for (std::size_t k : {0, 2, 3, 1}) ASSERT_TRUE(recorder->Add(k, slices[k]));
  for (std::size_t k = 4; k < slices.size(); ++k) {
    ASSERT_TRUE(recorder->Add(k, slices[k]));
  }
  EXPECT_TRUE(CheckSameStream(*reference, *recorder).ok());
}

TEST(StreamCheck, RejectsTwoSwappedTickets) {
  const auto slices = ReferenceSlices();
  ASSERT_GT(slices.size(), 8u);
  const auto reference = Record(slices, InOrder(slices.size()));
  std::vector<std::uint64_t> swapped = InOrder(slices.size());
  std::swap(swapped[5], swapped[6]);
  const auto recorder = Record(slices, swapped);
  ASSERT_TRUE(recorder->Complete());
  EXPECT_EQ(recorder->digest().count, reference->digest().count);
  EXPECT_FALSE(CheckSameStream(*reference, *recorder).ok());
}

TEST(StreamCheck, RejectsOneChangedWeight) {
  auto slices = ReferenceSlices();
  ASSERT_GT(slices.size(), 8u);
  const auto reference = Record(slices, InOrder(slices.size()));
  // The last slice lies past the quality head, so only the digest sees it.
  ASSERT_GT(reference->digest().count - slices.back().size(),
            QualityHeadLength(TinyInput().truth));
  for (std::size_t victim : {std::size_t{1}, slices.size() - 1}) {
    auto tampered = slices;
    double& weight = tampered[victim].back().weight;
    weight = std::nextafter(weight, 2.0 * weight + 1.0);
    const auto recorder = Record(tampered, InOrder(tampered.size()));
    EXPECT_FALSE(CheckSameStream(*reference, *recorder).ok()) << victim;
  }
}

TEST(StreamCheck, RejectsARepeatedTicket) {
  const auto slices = ReferenceSlices();
  StreamRecorder recorder(QualityHeadLength(TinyInput().truth), 3);
  ASSERT_TRUE(recorder.Add(0, slices[0]));
  EXPECT_FALSE(recorder.Add(0, slices[0]));
  EXPECT_FALSE(recorder.Complete());
}

TEST(Quality, EqualsADirectEvaluatorRun) {
  const sper::DatasetBundle& input = TinyInput();
  const auto slices = ReferenceSlices();
  const auto recorder = Record(slices, InOrder(slices.size()));
  const Quality quality = MeasureQuality(input.truth, recorder->head());

  sper::EvalOptions options;
  options.ecstar_max = 10.0;
  options.auc_at = {1.0, 10.0};
  const sper::ProgressiveEvaluator evaluator(input.truth, options);
  const sper::RunResult direct = evaluator.Run([&input] {
    sper::ResolverOptions resolver;
    resolver.method = sper::MethodId::kPps;
    return std::unique_ptr<sper::ProgressiveEmitter>(
        std::move(sper::Resolver::Create(input.store, resolver)).value());
  });
  ASSERT_EQ(direct.auc_norm.size(), 2u);
  EXPECT_EQ(quality.auc_at_1, direct.auc_norm[0]);
  EXPECT_EQ(quality.auc_at_10, direct.auc_norm[1]);
  EXPECT_EQ(quality.recall_at_ec10, direct.final_recall);
  EXPECT_GT(quality.recall_at_ec10, 0.5);
}

TEST(Workloads, RepeatPerSeedAndDifferAcrossSeeds) {
  const DriveSpec& drain = *FindWorkload("drain-s1");
  const auto run = [&drain](std::uint64_t seed) {
    const sper::DatasetBundle input =
        std::move(MakeInput(seed, kTinyScale)).value();
    EndToEndReport report = RunEndToEnd(drain, input, 0.0);
    EXPECT_TRUE(report.correct) << report.error;
    return report;
  };
  const EndToEndReport first = run(1);
  const EndToEndReport again = run(1);
  const EndToEndReport other = run(2);
  EXPECT_EQ(first.digest, again.digest);
  EXPECT_EQ(first.quality.auc_at_1, again.quality.auc_at_1);
  EXPECT_EQ(first.quality.auc_at_10, again.quality.auc_at_10);
  EXPECT_EQ(first.quality.recall_at_ec10, again.quality.recall_at_ec10);
  EXPECT_FALSE(first.digest == other.digest);
}

TEST(Workloads, EveryWorkloadIsCorrectAndServeWireMatchesDrainS1) {
  const sper::DatasetBundle& input = TinyInput();
  std::set<std::string> names;
  sper::net::StreamDigest drain_s1;
  for (const DriveSpec& spec : Workloads()) {
    const EndToEndReport report = RunEndToEnd(spec, input, 0.0);
    EXPECT_TRUE(report.correct) << spec.name << ": " << report.error;
    EXPECT_EQ(report.round_seconds.size(), kMinRounds);
    EXPECT_EQ(report.failed, 0u);
    ASSERT_EQ(report.metrics.size(), 8u);
    for (const Metric& metric : report.metrics) {
      names.insert(metric.name);
      EXPECT_GT(metric.value, 0.0) << spec.name << " " << metric.name;
    }
    if (spec.name == "drain-s1") drain_s1 = report.digest;
    if (spec.name == "serve-wire") {
      EXPECT_EQ(report.digest, drain_s1);
    }
  }
  EXPECT_EQ(names.size(), 8u);
}

TEST(Workloads, TracedRunReportsEveryLayerAndWritesSpans) {
  sper::obs::Registry registry;
  const Report report =
      RunTraced(*FindWorkload("drain-s4"), TinyInput(), 0.0, registry);
  EXPECT_TRUE(report.correct) << report.error;
  EXPECT_EQ(report.metrics.size(), 37u);
  std::set<std::string> names;
  for (const Metric& metric : report.metrics) names.insert(metric.name);
  EXPECT_EQ(names.size(), report.metrics.size());
  EXPECT_TRUE(names.count("obs.overhead"));
  EXPECT_GT(registry.num_spans(), 0u);
}

}  // namespace
}  // namespace perfbench
