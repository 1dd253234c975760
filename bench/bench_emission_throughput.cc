// Emission-phase throughput bench: the pay-as-you-go part of progressive
// ER the paper actually measures recall against (Alg. 6) — how fast can
// the engine *emit* once initialization is done?
//
// Two paths per configuration, both draining the same engine setup:
//
//   emit_serial     the reference path (lookahead 0): every refill —
//                   ProcessProfile / ProcessBlock, and for sharded runs
//                   every shard-head refill of the k-way merge — is
//                   computed inline on the consuming thread;
//   emit_pipelined  the emission pipeline (lookahead > 0), sharded runs
//                   only: refill batches are produced ahead of the merge
//                   on producer tasks, one per shard, so the merge pops
//                   completed batches. One shard has no pipelined path —
//                   it ran slower than serial, and ResolverOptions
//                   rejects it.
//
// Each path also runs a telemetry-overhead configuration ("_obs" rows): the
// same drain with a live obs::Registry attached. Those rows are digest-
// checked against the same reference (telemetry must be a pure observer)
// and report the on/off wall-clock ratio as an "overhead" extra; the
// pipelined one additionally reports ring-occupancy quantiles and
// stall/wait counts read off the registry.
//
// Both paths emit the *bit-identical* comparison stream (same pairs, same
// weights, same order); the bench folds every emission into an FNV-1a
// digest and fails (exit 1) on any divergence.
//
//   bench_emission_throughput [--scale=S] [--dataset=NAME] [--method=M]
//                             [--repeat=R] [--threads=T] [--budget=N]
//                             [--shards=S1,S2,...] [--lookahead=L1,L2,...]
//                             [--json=PATH]
//
// --json emits {dataset, scale, threads, shards, lookahead, path,
// wall_ms, speedup} records (schema: bench/BENCH.md); speedup is
// serial/pipelined at the same shard count. Speedup needs spare physical
// cores: with S shards the pipelined path keeps S producers plus the
// merge thread busy; on a 1-core machine it degrades to ~1.0x (queue
// overhead only) while the digests still pin correctness. Shard counts
// of 1 report the serial rows only.
//
// The timer covers the drain only — producers start prefetching during
// engine construction, before the timer. With the default --budget=0
// (drain dry) that head start is at most lookahead slots per shard,
// noise against millions of emissions; a small --budget makes the
// pipelined number mostly prefetched-for-free and the speedup
// meaningless, so the bench warns when budget is within ~20x of the
// prefetch bound.

#include <algorithm>
#include <chrono>
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
#include "obs/registry.h"
#include "obs/telemetry.h"

namespace {

using namespace sper;

double Millis(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

using sper::bench::DrainResult;

/// Builds the resolver (Resolver::Create picks plain vs sharded, and
/// pipelined shard refills for lookahead > 0), then times the emission
/// drain only — initialization is
/// bench_parallel_scaling's job. A non-null `registry` attaches a
/// telemetry scope (the "_obs" paths); the drained stream must stay
/// bit-identical either way.
DrainResult RunOnce(const ProfileStore& store, MethodId method,
                    std::size_t threads, std::size_t shards,
                    std::size_t lookahead, std::uint64_t budget,
                    obs::Registry* registry = nullptr) {
  ResolverOptions options;
  options.method = method;
  options.num_threads = threads;
  options.num_shards = shards;
  options.budget = budget;
  options.lookahead = lookahead;
  if (registry != nullptr) {
    options.telemetry = obs::TelemetryScope(registry);
  }
  std::unique_ptr<Resolver> engine =
      sper::bench::CreateResolverOrDie(store, options);

  DrainResult result;
  const auto start = std::chrono::steady_clock::now();
  while (std::optional<Comparison> c = engine->Next()) {
    result.Fold(*c);
  }
  result.wall_ms = Millis(start);
  return result;
}

/// The telemetry observations of one instrumented pipelined run,
/// aggregated across shards (one set of "pipeline.*" metrics per
/// "shardS." prefix).
void AppendPipelineExtras(const obs::Registry& registry, std::size_t shards,
                          sper::bench::JsonRecord& record) {
  obs::Histogram occupancy;
  std::uint64_t stalls = 0;
  std::uint64_t waits = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string prefix = "shard" + std::to_string(s) + ".";
    if (const obs::Histogram* h =
            registry.FindHistogram(prefix + "pipeline.ring_occupancy")) {
      occupancy.Merge(*h);
    }
    if (const obs::Counter* c =
            registry.FindCounter(prefix + "pipeline.producer_stalls")) {
      stalls += c->value();
    }
    if (const obs::Counter* c =
            registry.FindCounter(prefix + "pipeline.consumer_waits")) {
      waits += c->value();
    }
  }
  const obs::HistogramSnapshot snap = occupancy.Snapshot();
  record.extras.emplace_back("ring_occupancy_p50",
                             static_cast<double>(snap.p50));
  record.extras.emplace_back("ring_occupancy_p99",
                             static_cast<double>(snap.p99));
  record.extras.emplace_back("producer_stalls", static_cast<double>(stalls));
  record.extras.emplace_back("consumer_waits", static_cast<double>(waits));
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  int repeat = 3;
  std::string dataset_name = "dbpedia";
  std::string method_name = "pps";
  std::string json_path;
  std::size_t threads = 8;
  std::uint64_t budget = 0;  // 0 = drain the method dry
  std::vector<std::size_t> shard_counts = {1, 4};
  std::vector<std::size_t> lookaheads = {4};
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
      threads = std::strtoul(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--budget=", 9) == 0) {
      budget = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shard_counts = sper::bench::ParseSizeList(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--lookahead=", 12) == 0) {
      lookaheads = sper::bench::ParseSizeList(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::printf(
          "usage: %s [--scale=S] [--dataset=NAME] [--method=M] "
          "[--repeat=R] [--threads=T] [--budget=N] [--shards=S1,S2,...] "
          "[--lookahead=L1,L2,...] [--json=PATH]\n",
          argv[0]);
      return 2;
    }
  }

  const std::optional<MethodId> method = ParseMethodId(method_name);
  if (!method.has_value()) {
    std::fprintf(stderr, "unknown method '%s'\n", method_name.c_str());
    return 2;
  }
  DatagenOptions gen;
  gen.scale = scale;
  Result<DatasetBundle> dataset = GenerateDataset(dataset_name, gen);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const ProfileStore& store = dataset.value().store;
  std::printf("dataset %s: %zu profiles (scale %.2f, %s), method %s, "
              "threads %zu, budget %llu, hardware threads %u\n",
              dataset.value().name.c_str(), store.size(), scale,
              ToString(store.er_type()),
              std::string(ToString(*method)).c_str(), threads,
              static_cast<unsigned long long>(budget),
              std::thread::hardware_concurrency());

  if (budget > 0) {
    // Producers prefetch up to ~(lookahead + 1) slots of >= 256
    // comparisons per shard before the drain timer starts.
    std::uint64_t max_prefetch = 0;
    for (std::size_t shards : shard_counts) {
      if (shards == 1) continue;  // no pipelined path on one shard
      for (std::size_t lookahead : lookaheads) {
        max_prefetch = std::max<std::uint64_t>(
            max_prefetch, shards * (lookahead + 1) * 256);
      }
    }
    if (budget < 20 * max_prefetch) {
      std::printf("WARNING: budget %llu is within 20x of the prefetch "
                  "bound (~%llu comparisons computed before the timer); "
                  "pipelined speedups below are not meaningful.\n",
                  static_cast<unsigned long long>(budget),
                  static_cast<unsigned long long>(max_prefetch));
    }
  }

  std::vector<sper::bench::JsonRecord> records;
  TextTable table({"shards", "lookahead", "emitted", "emission (ms)",
                   "speedup", "digest"});
  bool ok = true;
  for (std::size_t shards : shard_counts) {
    DrainResult serial;
    for (int r = 0; r < repeat; ++r) {
      DrainResult run =
          RunOnce(store, *method, threads, shards, /*lookahead=*/0, budget);
      if (r == 0 || run.wall_ms < serial.wall_ms) serial = run;
    }
    table.AddRow({std::to_string(shards), "0 (serial)",
                  std::to_string(serial.emitted),
                  FormatDouble(serial.wall_ms, 1), "1.00x", "reference"});
    records.push_back({dataset.value().name, scale, threads, "emit_serial",
                       serial.wall_ms, 1.0, shards, 0});

    // Telemetry-overhead configuration: the same serial drain with a
    // live registry attached. The stream must stay bit-identical and the
    // overhead (obs/off wall-clock ratio) near 1.0 — the acceptance bar
    // for the instrumentation being a pure observer.
    {
      DrainResult serial_obs;
      for (int r = 0; r < repeat; ++r) {
        obs::Registry registry;
        DrainResult run = RunOnce(store, *method, threads, shards,
                                  /*lookahead=*/0, budget, &registry);
        if (r == 0 || run.wall_ms < serial_obs.wall_ms) serial_obs = run;
      }
      const bool match = serial_obs.SameStream(serial);
      ok = ok && match;
      const double overhead =
          serial.wall_ms > 0 ? serial_obs.wall_ms / serial.wall_ms : 0.0;
      table.AddRow({std::to_string(shards), "0 (serial, obs)",
                    std::to_string(serial_obs.emitted),
                    FormatDouble(serial_obs.wall_ms, 1),
                    FormatDouble(overhead, 3) + "x ovh",
                    match ? "match" : "MISMATCH"});
      sper::bench::JsonRecord record{
          dataset.value().name, scale, threads, "emit_serial_obs",
          serial_obs.wall_ms,
          serial_obs.wall_ms > 0 ? serial.wall_ms / serial_obs.wall_ms : 0.0,
          shards, 0};
      record.extras.emplace_back("overhead", overhead);
      records.push_back(std::move(record));
    }

    for (std::size_t lookahead : lookaheads) {
      if (lookahead == 0 || shards == 1) continue;
      DrainResult pipelined;
      for (int r = 0; r < repeat; ++r) {
        DrainResult run =
            RunOnce(store, *method, threads, shards, lookahead, budget);
        if (r == 0 || run.wall_ms < pipelined.wall_ms) pipelined = run;
      }
      const bool match = pipelined.SameStream(serial);
      ok = ok && match;
      const double speedup =
          pipelined.wall_ms > 0 ? serial.wall_ms / pipelined.wall_ms : 0.0;
      table.AddRow({std::to_string(shards), std::to_string(lookahead),
                    std::to_string(pipelined.emitted),
                    FormatDouble(pipelined.wall_ms, 1),
                    FormatDouble(speedup, 2) + "x",
                    match ? "match" : "MISMATCH"});
      records.push_back({dataset.value().name, scale, threads,
                         "emit_pipelined", pipelined.wall_ms, speedup,
                         shards, lookahead});

      // Instrumented pipelined run: overhead vs the un-instrumented
      // pipelined drain, plus the pipeline-health observations (ring
      // occupancy quantiles, stall/wait counts) read off the registry of
      // the best repeat.
      DrainResult pipelined_obs;
      std::unique_ptr<obs::Registry> best_registry;
      for (int r = 0; r < repeat; ++r) {
        auto registry = std::make_unique<obs::Registry>();
        DrainResult run = RunOnce(store, *method, threads, shards,
                                  lookahead, budget, registry.get());
        if (r == 0 || run.wall_ms < pipelined_obs.wall_ms) {
          pipelined_obs = run;
          best_registry = std::move(registry);
        }
      }
      const bool obs_match = pipelined_obs.SameStream(serial);
      ok = ok && obs_match;
      const double overhead = pipelined.wall_ms > 0
                                  ? pipelined_obs.wall_ms / pipelined.wall_ms
                                  : 0.0;
      table.AddRow({std::to_string(shards),
                    std::to_string(lookahead) + " (obs)",
                    std::to_string(pipelined_obs.emitted),
                    FormatDouble(pipelined_obs.wall_ms, 1),
                    FormatDouble(overhead, 3) + "x ovh",
                    obs_match ? "match" : "MISMATCH"});
      sper::bench::JsonRecord record{
          dataset.value().name, scale, threads, "emit_pipelined_obs",
          pipelined_obs.wall_ms,
          pipelined_obs.wall_ms > 0
              ? pipelined.wall_ms / pipelined_obs.wall_ms
              : 0.0,
          shards, lookahead};
      record.extras.emplace_back("overhead", overhead);
      AppendPipelineExtras(*best_registry, shards, record);
      records.push_back(std::move(record));
    }
  }
  table.Print();
  std::printf("\ndigest = FNV-1a over every emitted (i, j, weight); "
              "\"match\" means the pipelined\nstream is bit-identical to "
              "the serial reference at the same shard count.\n");

  if (!json_path.empty() &&
      !sper::bench::WriteJsonRecords(json_path, records)) {
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "FAIL: pipelined emission diverged from serial\n");
    return 1;
  }
  return 0;
}
