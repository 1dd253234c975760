// Fault-tolerance bench: what does one slow shard do to slice latency,
// and how much does a per-request deadline claw back? Three paths, all
// draining the same sharded resolver configuration through
// Resolver::Serve:
//
//   baseline             no injected fault — the healthy reference;
//   slow_shard           every shard-0 refill stalls --stall-ms (via the
//                        SPER_FAULT_INJECT harness, obs/fault_injection.h);
//   slow_shard_deadline  same stall, but every request carries
//                        --deadline-ms: slices come back cut short
//                        (deadline_exceeded) instead of waiting the
//                        straggler out, and each continues losslessly.
//
// All three paths must fold to the identical FNV-1a stream digest —
// stalls and deadline cuts change *when* comparisons are delivered,
// never *which* or in *what order* — and the bench exits 1 on any
// divergence. The fault paths require a -DSPER_FAULT_INJECT=ON build;
// elsewhere the bench prints the baseline only and says why.
//
//   bench_fault_tolerance [--scale=S] [--dataset=NAME] [--method=M]
//                         [--threads=T] [--shards=N] [--lookahead=L]
//                         [--budget=N] [--batch=B] [--stall-ms=MS]
//                         [--deadline-ms=MS] [--repeat=R] [--json=PATH]
//
// --json emits one record per path (schema: bench/BENCH.md) with extras
// slice_p50_ms / slice_p99_ms / requests / deadline_cuts / emitted;
// speedup is baseline/path wall time at the same configuration.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/table.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/fault_injection.h"

namespace {

using namespace sper;
using sper::bench::Percentile;

double Millis(const obs::Stopwatch& watch) {
  return watch.ElapsedSeconds() * 1000.0;
}

/// One drain in Resolver::Serve slices, reduced to its stream digest.
struct SessionRun {
  net::StreamDigest digest;
  std::uint64_t requests = 0;
  double wall_ms = 0.0;
  std::vector<double> slice_ms;
  std::uint64_t deadline_cuts = 0;
};

/// Drains the whole (budgeted) stream in `batch`-sized Resolver::Serve
/// slices, timing each request; `deadline_ms > 0` attaches a per-request
/// deadline (cut slices are retried — continuation is lossless).
SessionRun RunSession(const ProfileStore& store,
                      const ResolverOptions& options, std::uint64_t batch,
                      std::uint64_t deadline_ms) {
  std::unique_ptr<Resolver> resolver =
      sper::bench::CreateResolverOrDie(store, options);
  SessionRun run;
  const obs::Stopwatch start;
  obs::Stopwatch since_progress;
  for (;;) {
    ResolveRequest request;
    request.budget = batch;
    request.max_batch = batch;
    request.deadline_ms = deadline_ms;
    const obs::Stopwatch slice_start;
    ResolveResult slice = resolver->Serve(request);
    run.slice_ms.push_back(Millis(slice_start));
    ++run.requests;
    if (!slice.status.ok()) {
      std::fprintf(stderr, "resolve failed: %s\n",
                   slice.status.ToString().c_str());
      std::exit(1);
    }
    for (const Comparison& c : slice.comparisons) run.digest.Fold(c);
    run.deadline_cuts += slice.deadline_exceeded() ? 1 : 0;
    if (slice.stream_exhausted || slice.budget_exhausted) break;
    // A deadline can cut a slice before it draws anything while a stalled
    // shard's refill worker keeps producing in the background, so empty
    // slices are not a lack of progress; give up only after
    // kGiveUpSeconds without a single comparison.
    constexpr double kGiveUpSeconds = 10.0;
    if (!slice.comparisons.empty()) {
      since_progress.Restart();
    } else if (since_progress.ElapsedSeconds() > kGiveUpSeconds) {
      break;
    }
  }
  run.wall_ms = Millis(start);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  int repeat = 3;
  std::string dataset_name = "restaurant";
  std::string method_name = "pps";
  std::string json_path;
  std::uint64_t batch = 512;
  std::uint64_t stall_ms = 30;
  std::uint64_t deadline_ms = 20;
  ResolverOptions options;
  options.num_shards = 4;
  options.lookahead = 2;
  options.budget = 20000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--dataset=", 10) == 0) {
      dataset_name = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--method=", 9) == 0) {
      method_name = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      options.num_threads = std::strtoul(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      options.num_shards = std::strtoul(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--lookahead=", 12) == 0) {
      options.lookahead = std::strtoul(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      options.budget = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--stall-ms=", 11) == 0) {
      stall_ms = std::strtoull(argv[i] + 11, nullptr, 10);
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      deadline_ms = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::printf(
          "usage: %s [--scale=S] [--dataset=NAME] [--method=M] "
          "[--threads=T] [--shards=N] [--lookahead=L] [--budget=N] "
          "[--batch=B] [--stall-ms=MS] [--deadline-ms=MS] [--repeat=R] "
          "[--json=PATH]\n",
          argv[0]);
      return 2;
    }
  }

  const std::optional<MethodId> method = ParseMethodId(method_name);
  if (!method.has_value()) {
    std::fprintf(stderr, "unknown method '%s'\n", method_name.c_str());
    return 2;
  }
  options.method = *method;
  DatagenOptions gen;
  gen.scale = scale;
  Result<DatasetBundle> dataset = GenerateDataset(dataset_name, gen);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const ProfileStore& store = dataset.value().store;
  std::printf(
      "dataset %s: %zu profiles (scale %.2f), method %s, shards %zu, "
      "lookahead %zu, budget %llu, batch %llu, stall %llu ms, deadline "
      "%llu ms, fault injection %s\n",
      dataset.value().name.c_str(), store.size(), scale,
      std::string(ToString(*method)).c_str(), options.num_shards,
      options.lookahead, static_cast<unsigned long long>(options.budget),
      static_cast<unsigned long long>(batch),
      static_cast<unsigned long long>(stall_ms),
      static_cast<unsigned long long>(deadline_ms),
      obs::kFaultInjectionEnabled ? "compiled in" : "compiled out");

  struct PathSpec {
    const char* name;
    bool stall;
    std::uint64_t deadline_ms;
  };
  std::vector<PathSpec> paths = {{"baseline", false, 0}};
  if (obs::kFaultInjectionEnabled) {
    paths.push_back({"slow_shard", true, 0});
    paths.push_back({"slow_shard_deadline", true, deadline_ms});
  } else {
    std::printf(
        "(fault paths need -DSPER_FAULT_INJECT=ON; reporting the "
        "baseline only)\n");
  }

  TextTable table({"path", "requests", "cuts", "emitted", "wall (ms)",
                   "slice p50 (ms)", "slice p99 (ms)", "digest"});
  std::vector<sper::bench::JsonRecord> records;
  SessionRun baseline;
  bool ok = true;
  for (const PathSpec& path : paths) {
    if (path.stall) {
      obs::FaultPlan plan;
      plan.action = obs::FaultPlan::Action::kStall;
      plan.stall_ms = stall_ms;
      obs::FaultRegistry::Global().Arm("refill.shard0", plan);
    }
    SessionRun best;
    for (int r = 0; r < repeat; ++r) {
      SessionRun run = RunSession(store, options, batch, path.deadline_ms);
      if (r == 0 || run.wall_ms < best.wall_ms) {
        best = std::move(run);
      }
    }
    if (path.stall) obs::FaultRegistry::Global().Reset();
    if (std::strcmp(path.name, "baseline") == 0) baseline = best;

    const bool match = best.digest == baseline.digest;
    ok = ok && match;
    const double p50 = Percentile(best.slice_ms, 0.50);
    const double p99 = Percentile(best.slice_ms, 0.99);
    const double speedup =
        best.wall_ms > 0 ? baseline.wall_ms / best.wall_ms : 0.0;
    table.AddRow({path.name, std::to_string(best.requests),
                  std::to_string(best.deadline_cuts),
                  std::to_string(best.digest.count),
                  FormatDouble(best.wall_ms, 1), FormatDouble(p50, 2),
                  FormatDouble(p99, 2), match ? "match" : "MISMATCH"});
    sper::bench::JsonRecord record{
        dataset.value().name,  scale,
        options.num_threads,   path.name,
        best.wall_ms,          speedup,
        options.num_shards,    options.lookahead,
        static_cast<std::size_t>(batch)};
    record.extras.emplace_back("slice_p50_ms", p50);
    record.extras.emplace_back("slice_p99_ms", p99);
    record.extras.emplace_back("requests",
                               static_cast<double>(best.requests));
    record.extras.emplace_back("deadline_cuts",
                               static_cast<double>(best.deadline_cuts));
    record.extras.emplace_back("emitted",
                               static_cast<double>(best.digest.count));
    records.push_back(std::move(record));
  }
  table.Print();
  std::printf(
      "\ndigest = FNV-1a over every emitted (i, j, weight); \"match\" "
      "means the path's\nconcatenated slices are bit-identical to the "
      "baseline — injected stalls and\ndeadline cuts shift latency, "
      "never the stream.\n");

  if (!json_path.empty() &&
      !sper::bench::WriteJsonRecords(json_path, records)) {
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: a fault path diverged from the baseline\n");
    return 1;
  }
  return 0;
}
