// Request-serving bench: what does request batching cost on top of the
// raw emission stream? Two paths per batch size, both draining the
// same resolver configuration:
//
//   drain_unbatched   the reference: one Next() loop over the whole
//                     (budgeted) stream — no admission, no slicing;
//   session_batched   Resolver::Serve answering ResolveRequest{budget=B,
//                     max_batch=B} slices until the stream or the global
//                     budget runs out — the pay-as-you-go serving shape.
//
// Both paths emit the bit-identical comparison stream (concatenated
// session slices == the un-batched drain); the bench folds every emission
// into an FNV-1a digest and fails (exit 1) on any divergence. The gap
// between the paths is the per-request cost of ticketed FIFO admission —
// it amortizes with B, so batch=1 is the worst case and batch>=256 is
// expected to be within noise of the raw drain.
//
//   bench_resolver_session [--scale=S] [--dataset=NAME] [--method=M]
//                          [--repeat=R] [--threads=T] [--shards=N]
//                          [--lookahead=L] [--budget=N]
//                          [--batch=B1,B2,...] [--json=PATH]
//
// --json emits {dataset, scale, threads, shards, lookahead, batch_size,
// path, wall_ms, speedup} records (schema: bench/BENCH.md); speedup is
// unbatched/batched at the same configuration, batch_size is 0 for the
// un-batched baseline rows. Each session_batched record additionally
// carries per-request latency observations (queue_wait_p50_us /
// queue_wait_p99_us / service_p50_us / service_p99_us) from one separate
// telemetry-instrumented run — the timed runs stay telemetry-free, and
// the instrumented stream is digest-checked against the reference.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/table.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/telemetry.h"

namespace {

using namespace sper;

double Millis(const obs::Stopwatch& watch) {
  return watch.ElapsedSeconds() * 1000.0;
}

using sper::bench::DrainResult;

/// Times one drain: `batch == 0` is the un-batched Next() reference,
/// `batch > 0` serves the stream in Resolver::Serve slices of that size.
DrainResult RunOnce(const ProfileStore& store,
                    const ResolverOptions& options, std::size_t batch) {
  std::unique_ptr<Resolver> resolver =
      sper::bench::CreateResolverOrDie(store, options);
  DrainResult result;
  const obs::Stopwatch start;
  if (batch == 0) {
    while (std::optional<Comparison> c = resolver->Next()) {
      result.Fold(*c);
    }
  } else {
    for (;;) {
      ResolveResult slice = resolver->Serve({batch, batch});
      ++result.requests;
      for (const Comparison& c : slice.comparisons) result.Fold(c);
      if (slice.comparisons.empty() || slice.budget_exhausted ||
          slice.stream_exhausted) {
        break;
      }
    }
  }
  result.wall_ms = Millis(start);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  int repeat = 3;
  std::string dataset_name = "dbpedia";
  std::string method_name = "pps";
  std::string json_path;
  ResolverOptions options;
  options.num_threads = 8;
  std::vector<std::size_t> batches = {1, 256, 4096};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--dataset=", 10) == 0) {
      dataset_name = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--method=", 9) == 0) {
      method_name = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      options.num_threads = std::strtoul(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      options.num_shards = std::strtoul(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--lookahead=", 12) == 0) {
      options.lookahead = std::strtoul(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      options.budget = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batches = sper::bench::ParseSizeList(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::printf(
          "usage: %s [--scale=S] [--dataset=NAME] [--method=M] "
          "[--repeat=R] [--threads=T] [--shards=N] [--lookahead=L] "
          "[--budget=N] [--batch=B1,B2,...] [--json=PATH]\n",
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
  std::printf("dataset %s: %zu profiles (scale %.2f, %s), method %s, "
              "threads %zu, shards %zu, lookahead %zu, budget %llu, "
              "hardware threads %u\n",
              dataset.value().name.c_str(), store.size(), scale,
              ToString(store.er_type()),
              std::string(ToString(*method)).c_str(), options.num_threads,
              options.num_shards, options.lookahead,
              static_cast<unsigned long long>(options.budget),
              std::thread::hardware_concurrency());

  DrainResult unbatched;
  for (int r = 0; r < repeat; ++r) {
    DrainResult run = RunOnce(store, options, 0);
    if (r == 0 || run.wall_ms < unbatched.wall_ms) unbatched = run;
  }

  std::vector<sper::bench::JsonRecord> records;
  records.push_back({dataset.value().name, scale, options.num_threads,
                     "drain_unbatched", unbatched.wall_ms, 1.0,
                     options.num_shards, options.lookahead, 0});
  TextTable table({"batch", "requests", "emitted", "drain (ms)", "speedup",
                   "digest"});
  table.AddRow({"unbatched", "-", std::to_string(unbatched.emitted),
                FormatDouble(unbatched.wall_ms, 1), "1.00x", "reference"});

  bool ok = true;
  for (std::size_t batch : batches) {
    if (batch == 0) continue;
    DrainResult batched;
    for (int r = 0; r < repeat; ++r) {
      DrainResult run = RunOnce(store, options, batch);
      if (r == 0 || run.wall_ms < batched.wall_ms) batched = run;
    }
    const bool match = batched.SameStream(unbatched);
    ok = ok && match;
    const double speedup =
        batched.wall_ms > 0 ? unbatched.wall_ms / batched.wall_ms : 0.0;
    table.AddRow({std::to_string(batch), std::to_string(batched.requests),
                  std::to_string(batched.emitted),
                  FormatDouble(batched.wall_ms, 1),
                  FormatDouble(speedup, 2) + "x",
                  match ? "match" : "MISMATCH"});
    sper::bench::JsonRecord record{dataset.value().name, scale,
                                   options.num_threads, "session_batched",
                                   batched.wall_ms, speedup,
                                   options.num_shards, options.lookahead,
                                   batch};

    // One separate instrumented run per batch size: the timed runs above
    // stay telemetry-free, this one collects the per-request latency
    // distributions (and re-checks the digest — telemetry must not
    // perturb the served stream).
    obs::Registry registry;
    ResolverOptions instrumented = options;
    instrumented.telemetry = obs::TelemetryScope(&registry);
    DrainResult obs_run = RunOnce(store, instrumented, batch);
    ok = ok && obs_run.SameStream(unbatched);
    const auto quantiles_us = [&registry](const char* name, double out[2]) {
      const obs::Histogram* h = registry.FindHistogram(name);
      const obs::HistogramSnapshot snap =
          h != nullptr ? h->Snapshot() : obs::HistogramSnapshot{};
      out[0] = static_cast<double>(snap.p50) / 1000.0;
      out[1] = static_cast<double>(snap.p99) / 1000.0;
    };
    double queue_wait[2];
    double service[2];
    quantiles_us("session.queue_wait_ns", queue_wait);
    quantiles_us("session.service_ns", service);
    record.extras.emplace_back("queue_wait_p50_us", queue_wait[0]);
    record.extras.emplace_back("queue_wait_p99_us", queue_wait[1]);
    record.extras.emplace_back("service_p50_us", service[0]);
    record.extras.emplace_back("service_p99_us", service[1]);
    records.push_back(std::move(record));
  }
  table.Print();
  std::printf("\ndigest = FNV-1a over every emitted (i, j, weight); "
              "\"match\" means the concatenated\nsession slices are "
              "bit-identical to the un-batched drain.\n");

  if (!json_path.empty() &&
      !sper::bench::WriteJsonRecords(json_path, records)) {
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: session slices diverged from the un-batched drain\n");
    return 1;
  }
  return 0;
}
