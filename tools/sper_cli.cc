// sper_cli — command-line front end for the library.
//
//   sper_cli list
//       Available datasets and methods.
//
//   sper_cli generate <dataset> [--seed=N] [--scale=S] [--out=PREFIX]
//       Generate a synthetic benchmark dataset and write
//       PREFIX_profiles.csv / PREFIX_truth.csv.
//
//   sper_cli run <dataset> --method=NAME [--seed=N] [--scale=S]
//                [--ecmax=E] [--threads=N] [--shards=N] [--lookahead=N]
//                [--budget=N] [--deadline-ms=N] [--priority=NAME]
//                [--client-rate=R] [--curve=FILE.csv]
//                [--metrics-json=FILE] [--trace=FILE]
//       Run one progressive method under the paper's evaluation protocol;
//       print the recall curve and AUC*, optionally dump the curve as CSV.
//       --threads parallelizes the initialization phase and, on one
//       shard, the PPS/PBS refills: N workers produce refill batches
//       ahead of the consumer (same output at every thread count).
//       --shards=N hash-partitions the store and serves one engine per
//       shard behind a merged emission stream. --lookahead=N pipelines
//       emission across shards: each shard's refill batches are produced
//       ahead of the merge by one worker, up to N slots of up to 64
//       consecutive refills each, bit-identical to the serial stream; 0
//       keeps the serial reference path. Defaults to 4 with --shards > 1
//       and to 0 otherwise; with --shards=1 it must be 0 (one shard
//       pipelines through --threads instead). The assembled options are
//       checked like Resolver::Create checks them: an invalid
//       combination exits 2 with the validation message.
//       --budget=N caps the run at N emitted comparisons (the
//       pay-as-you-go budget, ResolverOptions::budget; 0 = unlimited).
//       --deadline-ms=N serves the drain through Resolver::Serve with an
//       N-millisecond deadline per resolve request
//       (ResolveRequest::deadline_ms); slices cut at the deadline are
//       retried, the stream stays bit-identical, and a summary counts
//       the cut slices.
//       --priority=NAME (interactive | batch | best_effort) and
//       --client-rate=R (requests/second, token-bucket limited) serve
//       the drain through the QoS admission controller
//       (src/serving/qos.h): requests carry the priority class, and a
//       shed request waits the controller's retry_after_ms hint and
//       retries — the stream stays bit-identical, and a summary counts
//       the shed retries.
//       Method names are case-insensitive ("pps" == "PPS").
//       --metrics-json=FILE and --trace=FILE turn on telemetry for the
//       run: the drain is served through Resolver::Serve (in slices
//       bit-identical to the plain drain), and afterwards the metric
//       registry is written as one JSON snapshot (per-phase init
//       seconds, pipeline ring health, session latency histograms)
//       and/or a Chrome trace-event JSON loadable in Perfetto /
//       chrome://tracing.
//       Flags are parsed strictly: a malformed or out-of-range value
//       (e.g. --threads=abc) and an unrecognized flag name (e.g.
//       --buget=100) are errors, never a silent fallback.
//
//   sper_cli inspect <dataset> [--seed=N] [--scale=S] [--threads=N]
//                    [--shards=N] [--lookahead=N] [--method=NAME]
//       Dataset statistics plus Token-Blocking-Workflow block statistics;
//       --shards adds the per-shard partition breakdown; --lookahead is
//       reported as part of the serving configuration. Also constructs
//       the --method resolver (default pps) and prints its per-phase
//       initialization breakdown (per shard when sharded).
//
//   sper_cli serve <dataset> --listen=HOST:PORT [--method=NAME] [--seed=N]
//                  [--scale=S] [--threads=N] [--shards=N] [--lookahead=N]
//                  [--budget=N] [--client-rate=R] [--max-queue-depth=N]
//                  [--max-connections=N]
//       Serve the dataset's resolver over TCP (net/server.h, wire
//       protocol in docs/wire_protocol.md). Prints "listening on
//       HOST:PORT" (with the real port when --listen ends in :0) once
//       accepting, then runs until SIGTERM/SIGINT, which triggers a
//       graceful drain: stop accepting, flush in-flight responses, join
//       every connection, Resolver::Drain(). Remote requests pass
//       through the QoS admission controller (--client-rate and
//       --max-queue-depth configure it); the kMetricsRequest admin frame
//       serves the live metrics registry.
//
//   sper_cli client --connect=HOST:PORT [--budget=N] [--batch=N]
//                   [--requests=N] [--deadline-ms=N] [--priority=NAME]
//                   [--client-id=N] [--metrics]
//       Drain a served stream over TCP: issue resolve requests (budget
//       and max_batch per request from --budget/--batch) until the
//       stream or --requests runs out, honoring the server's
//       retry_after_ms backoff hints on shed, and print the FNV-1a
//       stream digest — comparable bit-for-bit against an in-process
//       drain of the same dataset/method. --metrics instead fetches and
//       prints the server's metrics snapshot JSON.

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/store_partition.h"
#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "eval/table.h"
#include "io/dataset_io.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "progressive/workflow.h"
#include "serving/qos.h"

namespace {

using namespace sper;

struct CliArgs {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
};

CliArgs Parse(int argc, char** argv) {
  CliArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      if (eq != nullptr) {
        args.options[std::string(argv[i] + 2,
                                 static_cast<std::size_t>(
                                     eq - argv[i] - 2))] = eq + 1;
      } else {
        args.options[argv[i] + 2] = "1";
      }
    } else {
      args.positional.push_back(argv[i]);
    }
  }
  return args;
}

// Strict flag parsing: a malformed value ("--threads=abc"), junk after
// the number ("--scale=1.5x"), an out-of-range value, or an unrecognized
// flag name ("--buget=100") is an error printed to stderr with exit(2) —
// never a silent 0/clamp/ignore fallback.

void RequireKnownOptions(const CliArgs& args,
                         std::initializer_list<const char*> known) {
  for (const auto& [key, value] : args.options) {
    bool recognized = false;
    for (const char* k : known) {
      if (key == k) {
        recognized = true;
        break;
      }
    }
    if (!recognized) {
      std::fprintf(stderr, "unknown option --%s\n", key.c_str());
      std::exit(2);
    }
  }
}

[[noreturn]] void DieBadFlag(const std::string& key, const std::string& value,
                             const std::string& expected) {
  std::fprintf(stderr, "invalid --%s=%s (expected %s)\n", key.c_str(),
               value.c_str(), expected.c_str());
  std::exit(2);
}

std::uint64_t OptUint(const CliArgs& args, const std::string& key,
                      std::uint64_t fallback, std::uint64_t min_value,
                      std::uint64_t max_value) {
  auto it = args.options.find(key);
  if (it == args.options.end()) return fallback;
  const std::string& text = it->second;
  const std::string expected = "an integer in [" + std::to_string(min_value) +
                               ", " + std::to_string(max_value) + "]";
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    DieBadFlag(key, text, expected);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size() ||
      parsed < min_value || parsed > max_value) {
    DieBadFlag(key, text, expected);
  }
  return parsed;
}

double OptDouble(const CliArgs& args, const std::string& key,
                 double fallback) {
  auto it = args.options.find(key);
  if (it == args.options.end()) return fallback;
  const std::string& text = it->second;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || errno == ERANGE ||
      end != text.c_str() + text.size() || !std::isfinite(parsed) ||
      parsed <= 0.0) {
    DieBadFlag(key, text, "a finite number > 0");
  }
  return parsed;
}

std::string OptString(const CliArgs& args, const std::string& key,
                      const std::string& fallback) {
  auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

/// A file-path flag: empty when absent; an explicitly empty value
/// ("--trace=") is an error, consistent with strict parsing.
std::string OptPath(const CliArgs& args, const std::string& key) {
  auto it = args.options.find(key);
  if (it == args.options.end()) return {};
  if (it->second.empty()) DieBadFlag(key, it->second, "a file path");
  return it->second;
}

std::size_t OptThreads(const CliArgs& args) {
  return OptUint(args, "threads", 1, 1, ResolverOptions::kMaxThreads);
}

std::size_t OptShards(const CliArgs& args) {
  return OptUint(args, "shards", 1, 1, ResolverOptions::kMaxShards);
}

std::size_t OptLookahead(const CliArgs& args) {
  // Look-ahead exists only across shards (one shard pipelines through
  // --threads), so sharded runs default to a small lookahead (the stream
  // is bit-identical either way) and single-shard runs to 0; an explicit
  // --lookahead=0 always forces serial shard refills.
  const std::uint64_t fallback = OptShards(args) > 1 ? 4 : 0;
  return OptUint(args, "lookahead", fallback, 0,
                 ResolverOptions::kMaxLookahead);
}

std::uint64_t OptBudget(const CliArgs& args) {
  return OptUint(args, "budget", 0, 0,
                 std::numeric_limits<std::uint64_t>::max());
}

/// PSN needs the dataset's schema-based blocking key; the heterogeneous
/// datasets have none.
bool Applicable(MethodId method, const DatasetBundle& dataset) {
  return method != MethodId::kPsn || dataset.psn_key != nullptr;
}

/// The ResolverOptions the serving flags describe, checked with
/// Validate() the way Resolver::Create checks them: an invalid
/// combination (e.g. --shards=1 --lookahead=4) exits 2 with the
/// validation message instead of reaching MakeResolver. The dataset
/// supplies the PSN schema key; an inapplicable method is left to the
/// caller's own message.
ResolverOptions ServingOptions(const CliArgs& args, MethodId method,
                               const DatasetBundle& dataset) {
  ResolverOptions options;
  options.method = method;
  options.num_threads = OptThreads(args);
  options.num_shards = OptShards(args);
  options.lookahead = OptLookahead(args);
  options.budget = OptBudget(args);
  options.schema_key = dataset.psn_key;
  if (!Applicable(method, dataset)) return options;
  if (const Status valid = options.Validate(); !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.ToString().c_str());
    std::exit(2);
  }
  return options;
}

DatagenOptions GenOptions(const CliArgs& args) {
  DatagenOptions options;
  options.seed = OptUint(args, "seed", 7, 0,
                         std::numeric_limits<std::uint64_t>::max());
  options.scale = OptDouble(args, "scale", 1.0);
  return options;
}

int CmdList() {
  std::printf("datasets (Table 2 synthetic counterparts):\n");
  for (const std::string& name : StructuredDatasetNames()) {
    std::printf("  %-12s dirty ER, structured\n", name.c_str());
  }
  for (const std::string& name : HeterogeneousDatasetNames()) {
    std::printf("  %-12s clean-clean ER, heterogeneous\n", name.c_str());
  }
  std::printf("\nmethods:\n");
  for (MethodId id : StructuredMethodSet()) {
    std::printf("  %s\n", std::string(ToString(id)).c_str());
  }
  return 0;
}

int CmdGenerate(const CliArgs& args) {
  RequireKnownOptions(args, {"seed", "scale", "out"});
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: sper_cli generate <dataset> [--seed=N] "
                         "[--scale=S] [--out=PREFIX]\n");
    return 2;
  }
  const std::string& name = args.positional[1];
  Result<DatasetBundle> dataset = GenerateDataset(name, GenOptions(args));
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const std::string prefix = OptString(args, "out", name);
  Status st = WriteProfilesCsv(dataset.value().store,
                               prefix + "_profiles.csv");
  if (st.ok()) {
    st = WriteGroundTruthCsv(dataset.value().truth, prefix + "_truth.csv");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s_profiles.csv (%zu profiles) and %s_truth.csv "
              "(%zu matches)\n",
              prefix.c_str(), dataset.value().store.size(), prefix.c_str(),
              dataset.value().truth.num_matches());
  return 0;
}

MethodId ParseMethod(const std::string& name) {
  std::optional<MethodId> id = ParseMethodId(name);
  if (!id.has_value()) {
    std::fprintf(stderr, "unknown method '%s' (see: sper_cli list)\n",
                 name.c_str());
    std::exit(2);
  }
  return *id;
}

/// Serves a drain through Resolver::Serve in fixed slices, so a
/// telemetry run records per-request session histograms and one
/// "session.resolve" span per request. Slices concatenated in ticket
/// order are bit-identical to an un-batched drain of the same resolver
/// (the Resolver contract), so evaluation results are unchanged.
class SessionEmitter : public ProgressiveEmitter {
 public:
  static constexpr std::uint64_t kSliceBudget = 4096;
  /// Consecutive comparison-less deadline-cut slices tolerated before the
  /// drain gives up — a deadline too tight to ever draw one comparison
  /// must not loop forever.
  static constexpr int kMaxEmptySlices = 64;

  /// `deadline_ms` (0 = none) is applied to every resolve request;
  /// `deadline_hits`, when given, counts slices cut by it (shared so the
  /// caller can read the count after the evaluator destroyed the
  /// emitter).
  explicit SessionEmitter(
      std::unique_ptr<Resolver> resolver, std::uint64_t deadline_ms = 0,
      std::shared_ptr<std::uint64_t> deadline_hits = nullptr)
      : resolver_(std::move(resolver)),
        deadline_ms_(deadline_ms),
        deadline_hits_(std::move(deadline_hits)) {}

  /// Routes every request through a QoS admission controller instead of
  /// straight to the resolver: requests carry `priority`, and a shed
  /// request backs off by the controller's retry_after_ms hint and
  /// retries (`shed_retries` counts those). The emitted stream is
  /// unchanged — sheds never consume it.
  void EnableQos(serving::QosOptions options, Priority priority,
                 std::shared_ptr<std::uint64_t> shed_retries) {
    qos_ = std::make_unique<serving::QosAdmissionController>(
        *resolver_, std::move(options));
    priority_ = priority;
    shed_retries_ = std::move(shed_retries);
  }

  std::optional<Comparison> Next() override {
    while (cursor_ >= slice_.comparisons.size()) {
      if (done_) return std::nullopt;
      ResolveRequest request;
      request.budget = kSliceBudget;
      request.max_batch = kSliceBudget;
      request.deadline_ms = deadline_ms_;
      request.priority = priority_;
      request.client_id = 1;  // the CLI drain is one client
      if (qos_ != nullptr) {
        ResolveResult attempt = qos_->Resolve(request);
        if (attempt.outcome == ResolveOutcome::kShed) {
          if (shed_retries_ != nullptr) ++*shed_retries_;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(attempt.retry_after_ms));
          continue;
        }
        slice_ = std::move(attempt);
      } else {
        slice_ = resolver_->Serve(request);
      }
      cursor_ = 0;
      if (slice_.deadline_exceeded() || slice_.cancelled()) {
        // A cut slice is partial, not the end: take what it holds and
        // ask again — the next ticket continues bit-identically.
        if (deadline_hits_ != nullptr) ++*deadline_hits_;
        empty_streak_ =
            slice_.comparisons.empty() ? empty_streak_ + 1 : 0;
        if (empty_streak_ >= kMaxEmptySlices) done_ = true;
      } else if (slice_.stream_exhausted || slice_.budget_exhausted ||
                 !slice_.status.ok() ||
                 slice_.comparisons.size() < kSliceBudget) {
        // The stream or the global budget ran out (a short un-cut slice
        // means the same); do not come back for an extra empty request.
        done_ = true;
      }
    }
    return slice_.comparisons[cursor_++];
  }

  std::string_view name() const override { return resolver_->name(); }

 private:
  std::unique_ptr<Resolver> resolver_;
  std::uint64_t deadline_ms_ = 0;
  std::shared_ptr<std::uint64_t> deadline_hits_;
  std::unique_ptr<serving::QosAdmissionController> qos_;
  Priority priority_ = Priority::kInteractive;
  std::shared_ptr<std::uint64_t> shed_retries_;
  ResolveResult slice_;
  std::size_t cursor_ = 0;
  int empty_streak_ = 0;
  bool done_ = false;
};

int CmdRun(const CliArgs& args) {
  RequireKnownOptions(args, {"seed", "scale", "method", "ecmax", "threads",
                             "shards", "lookahead", "budget", "deadline-ms",
                             "priority", "client-rate", "curve",
                             "metrics-json", "trace"});
  if (args.positional.size() < 2 || !args.options.count("method")) {
    std::fprintf(stderr, "usage: sper_cli run <dataset> --method=NAME "
                         "[--seed=N] [--scale=S] [--ecmax=E] [--threads=N] "
                         "[--shards=N] [--lookahead=N] [--budget=N] "
                         "[--deadline-ms=N] [--priority=NAME] "
                         "[--client-rate=R] [--curve=FILE.csv] "
                         "[--metrics-json=FILE] [--trace=FILE]\n");
    return 2;
  }
  Result<DatasetBundle> dataset =
      GenerateDataset(args.positional[1], GenOptions(args));
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const MethodId method = ParseMethod(args.options.at("method"));
  ResolverOptions config = ServingOptions(args, method, dataset.value());
  if (!Applicable(method, dataset.value())) {
    std::fprintf(stderr, "method %s is not applicable to %s "
                         "(no schema-based blocking key)\n",
                 std::string(ToString(method)).c_str(),
                 dataset.value().name.c_str());
    return 1;
  }

  EvalOptions options;
  options.ecstar_max = OptDouble(args, "ecmax", 10.0);
  options.auc_at = {1.0, 5.0, 10.0};
  ProgressiveEvaluator evaluator(dataset.value().truth, options);

  const std::string metrics_path = OptPath(args, "metrics-json");
  const std::string trace_path = OptPath(args, "trace");
  const bool telemetry_on = !metrics_path.empty() || !trace_path.empty();
  obs::Registry registry;
  if (telemetry_on) config.telemetry = obs::TelemetryScope(&registry);

  const std::uint64_t deadline_ms =
      OptUint(args, "deadline-ms", 0, 0,
              std::numeric_limits<std::uint64_t>::max());

  Priority priority = Priority::kInteractive;
  if (args.options.count("priority")) {
    const std::optional<Priority> parsed =
        ParsePriority(args.options.at("priority"));
    if (!parsed.has_value()) {
      std::fprintf(stderr,
                   "--priority=%s: unknown class (want interactive, batch, "
                   "or best_effort)\n",
                   args.options.at("priority").c_str());
      return 2;
    }
    priority = *parsed;
  }
  const double client_rate = OptDouble(args, "client-rate", 0.0);
  const bool use_qos =
      args.options.count("priority") || args.options.count("client-rate");
  const bool use_sessions = telemetry_on || deadline_ms > 0 || use_qos;
  auto deadline_hits = std::make_shared<std::uint64_t>(0);
  auto shed_retries = std::make_shared<std::uint64_t>(0);

  RunResult run = evaluator.Run(
      [&]() -> std::unique_ptr<ProgressiveEmitter> {
        std::unique_ptr<Resolver> resolver =
            MakeResolver(dataset.value(), config);
        if (!use_sessions) return resolver;
        // Route the drain through Resolver::Serve so the trace shows one
        // span per resolve request — and so a --deadline-ms applies per
        // request (same emitted stream either way).
        auto emitter = std::make_unique<SessionEmitter>(
            std::move(resolver), deadline_ms, deadline_hits);
        if (use_qos) {
          serving::QosOptions qos_options;
          qos_options.client_rate = client_rate;
          qos_options.telemetry = config.telemetry;
          emitter->EnableQos(std::move(qos_options), priority, shed_retries);
        }
        return emitter;
      });

  if (config.num_shards > 1) {
    std::printf("sharded serving: %zu hash shards, merged emission\n",
                config.num_shards);
  }
  if (config.budget > 0) {
    std::printf("pay-as-you-go budget: %llu comparisons (global across "
                "shards)\n",
                static_cast<unsigned long long>(config.budget));
  }
  if (config.lookahead > 0 && MethodHasBatchRefills(method)) {
    std::printf("emission pipeline: lookahead %zu (refills produced ahead "
                "of consumption, one producer per shard)\n",
                config.lookahead);
  }
  if (deadline_ms > 0) {
    std::printf("deadline: %llu ms per %llu-comparison request; %llu "
                "slice(s) cut short (each continued losslessly)\n",
                static_cast<unsigned long long>(deadline_ms),
                static_cast<unsigned long long>(
                    SessionEmitter::kSliceBudget),
                static_cast<unsigned long long>(*deadline_hits));
  }
  if (use_qos) {
    std::printf("qos admission: priority %s, client rate %s req/s; "
                "%llu shed retr%s (each waited the controller's "
                "retry_after_ms hint)\n",
                std::string(ToString(priority)).c_str(),
                client_rate > 0.0 ? FormatDouble(client_rate, 1).c_str()
                                  : "unlimited",
                static_cast<unsigned long long>(*shed_retries),
                *shed_retries == 1 ? "y" : "ies");
  }
  std::printf("%s on %s: %zu/%zu matches after %llu comparisons "
              "(recall %.3f)\n",
              run.method.c_str(), dataset.value().name.c_str(),
              run.matches_found, dataset.value().truth.num_matches(),
              static_cast<unsigned long long>(run.emissions),
              run.final_recall);
  std::printf("init %.3fs, emission %.3fs\n", run.init_seconds,
              run.emission_seconds);
  TextTable table({"ec*", "recall"});
  for (double at : {0.5, 1.0, 2.0, 5.0, 10.0}) {
    if (at > options.ecstar_max) break;
    double recall = 0.0;
    for (const CurvePoint& p : run.curve) {
      if (p.ecstar <= at + 1e-9) recall = p.recall;
    }
    table.AddRow({FormatDouble(at, 1), FormatDouble(recall, 3)});
  }
  table.Print();
  std::printf("AUC*@1=%.3f  AUC*@5=%.3f  AUC*@10=%.3f\n", run.auc_norm[0],
              run.auc_norm[1], run.auc_norm[2]);

  const std::string curve_path = OptString(args, "curve", "");
  if (!curve_path.empty()) {
    std::ofstream out(curve_path);
    out << "ecstar,recall\n";
    for (const CurvePoint& p : run.curve) {
      out << p.ecstar << ',' << p.recall << '\n';
    }
    std::printf("curve written to %s (%zu points)\n", curve_path.c_str(),
                run.curve.size());
  }
  if (!metrics_path.empty()) {
    if (!registry.WriteSnapshotJson(metrics_path)) return 1;
    std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    if (!registry.WriteTraceJson(trace_path)) return 1;
    std::printf("trace written to %s (%zu spans)\n", trace_path.c_str(),
                registry.num_spans());
  }
  return 0;
}

int CmdInspect(const CliArgs& args) {
  RequireKnownOptions(args, {"seed", "scale", "threads", "shards",
                             "lookahead", "method"});
  if (args.positional.size() < 2) {
    std::fprintf(stderr, "usage: sper_cli inspect <dataset> [--seed=N] "
                         "[--scale=S] [--threads=N] [--shards=N] "
                         "[--lookahead=N] [--method=NAME]\n");
    return 2;
  }
  Result<DatasetBundle> dataset =
      GenerateDataset(args.positional[1], GenOptions(args));
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const DatasetBundle& ds = dataset.value();
  const MethodId method = ParseMethod(OptString(args, "method", "pps"));
  ResolverOptions config = ServingOptions(args, method, ds);
  std::printf("%s: %s\n", ds.name.c_str(), ds.description.c_str());
  std::printf("  ER type:        %s\n", ToString(ds.store.er_type()));
  std::printf("  profiles:       %zu", ds.store.size());
  if (ds.store.er_type() == ErType::kCleanClean) {
    std::printf(" (%zu + %zu)", ds.store.source1_size(),
                ds.store.source2_size());
  }
  std::printf("\n  matches |D_P|:  %zu\n", ds.truth.num_matches());
  std::printf("  mean |p|:       %.2f\n", ds.store.MeanProfileSize());
  const bool pipelined =
      MethodHasBatchRefills(method) &&
      (config.num_shards == 1 ? config.num_threads > 1
                              : config.lookahead > 0);
  std::printf("  serving:        threads=%zu shards=%zu lookahead=%zu "
              "(%s emission)\n",
              config.num_threads, config.num_shards, config.lookahead,
              pipelined ? "pipelined" : "serial");

  TokenWorkflowOptions workflow_options;
  workflow_options.num_threads = config.num_threads;
  BlockCollection raw = TokenBlocking(
      ds.store, workflow_options.token_blocking, config.num_threads);
  BlockCollection workflow =
      BuildTokenWorkflowBlocks(ds.store, workflow_options);
  std::printf("  token blocks:   %zu (||B|| = %llu)\n", raw.size(),
              static_cast<unsigned long long>(raw.AggregateCardinality()));
  std::printf("  after workflow: %zu (||B|| = %llu)\n", workflow.size(),
              static_cast<unsigned long long>(
                  workflow.AggregateCardinality()));

  const std::size_t num_shards = config.num_shards;
  if (num_shards > 1) {
    std::printf("\nhash partition into %zu shards:\n", num_shards);
    std::vector<StoreShard> shards = PartitionStore(ds.store, num_shards);
    TextTable table({"shard", "profiles", "workflow blocks", "||B||"});
    for (std::size_t s = 0; s < shards.size(); ++s) {
      std::string profiles = std::to_string(shards[s].store.size());
      if (ds.store.er_type() == ErType::kCleanClean) {
        profiles += " (" + std::to_string(shards[s].store.source1_size()) +
                    "+" + std::to_string(shards[s].store.source2_size()) +
                    ")";
      }
      BlockCollection shard_blocks =
          BuildTokenWorkflowBlocks(shards[s].store, workflow_options);
      table.AddRow({std::to_string(s), std::move(profiles),
                    std::to_string(shard_blocks.size()),
                    std::to_string(shard_blocks.AggregateCardinality())});
    }
    table.Print();
  }

  // Per-phase initialization breakdown of the requested method: build
  // the resolver once with a telemetry scope and print
  // InitStats::phases (per shard when sharded).
  obs::Registry registry;
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver = MakeResolver(ds, config);
  if (resolver == nullptr) {
    std::printf("\n%s init breakdown: method not applicable to %s "
                "(no schema-based blocking key)\n",
                std::string(ToString(method)).c_str(), ds.name.c_str());
    return 0;
  }
  const InitStats& stats = resolver->init_stats();
  std::printf("\n%s init breakdown (%.3fs total):\n",
              std::string(ToString(method)).c_str(), stats.init_seconds);
  TextTable breakdown({"shard", "phase", "seconds"});
  for (const InitPhase& phase : stats.phases) {
    breakdown.AddRow({std::to_string(phase.shard), phase.name,
                      FormatDouble(phase.seconds, 4)});
  }
  breakdown.Print();
  return 0;
}

/// Self-pipe the SIGTERM/SIGINT handler writes to; CmdServe blocks on the
/// read end. Only async-signal-safe work happens in the handler.
int g_stop_pipe[2] = {-1, -1};

extern "C" void HandleStopSignal(int /*signum*/) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = write(g_stop_pipe[1], &byte, 1);
}

int CmdServe(const CliArgs& args) {
  RequireKnownOptions(args, {"listen", "method", "seed", "scale", "threads",
                             "shards", "lookahead", "budget", "client-rate",
                             "max-queue-depth", "max-connections"});
  if (args.positional.size() < 2 || !args.options.count("listen")) {
    std::fprintf(stderr,
                 "usage: sper_cli serve <dataset> --listen=HOST:PORT "
                 "[--method=NAME] [--seed=N] [--scale=S] [--threads=N] "
                 "[--shards=N] [--lookahead=N] [--budget=N] "
                 "[--client-rate=R] [--max-queue-depth=N] "
                 "[--max-connections=N]\n");
    return 2;
  }
  Result<net::Endpoint> endpoint =
      net::ParseEndpoint(args.options.at("listen"));
  if (!endpoint.ok()) {
    std::fprintf(stderr, "--listen: %s\n",
                 endpoint.status().ToString().c_str());
    return 2;
  }
  Result<DatasetBundle> dataset =
      GenerateDataset(args.positional[1], GenOptions(args));
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const MethodId method = ParseMethod(OptString(args, "method", "pps"));

  obs::Registry registry;
  ResolverOptions config = ServingOptions(args, method, dataset.value());
  config.telemetry = obs::TelemetryScope(&registry);
  std::unique_ptr<Resolver> resolver = MakeResolver(dataset.value(), config);
  if (resolver == nullptr) {
    std::fprintf(stderr, "method %s is not applicable to %s "
                         "(no schema-based blocking key)\n",
                 std::string(ToString(method)).c_str(),
                 dataset.value().name.c_str());
    return 1;
  }

  net::ServerOptions server_options;
  server_options.host = endpoint.value().host;
  server_options.port = endpoint.value().port;
  server_options.max_connections =
      OptUint(args, "max-connections", 64, 0, 1u << 16);
  server_options.qos.client_rate = OptDouble(args, "client-rate", 0.0);
  server_options.qos.max_queue_depth =
      OptUint(args, "max-queue-depth", 256, 0, 1u << 20);
  server_options.qos.telemetry = config.telemetry;
  server_options.telemetry = config.telemetry;
  server_options.metrics_registry = &registry;

  // The stop pipe must exist before the handlers are installed.
  if (pipe(g_stop_pipe) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  Result<std::unique_ptr<net::Server>> server =
      net::Server::Start(*resolver, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  // The smoke harness and tests wait for this exact line (the real port
  // matters when --listen ends in :0).
  std::printf("listening on %s:%u\n", server_options.host.c_str(),
              static_cast<unsigned>(server.value()->port()));
  std::printf("serving %s on %s (threads=%zu shards=%zu lookahead=%zu"
              "%s%s)\n",
              std::string(ToString(method)).c_str(),
              dataset.value().name.c_str(), config.num_threads,
              config.num_shards, config.lookahead,
              config.budget > 0 ? ", budgeted" : "",
              server_options.qos.client_rate > 0.0 ? ", rate-limited" : "");
  std::fflush(stdout);

  char byte = 0;
  ssize_t got;
  do {
    got = read(g_stop_pipe[0], &byte, 1);
  } while (got < 0 && errno == EINTR);

  std::printf("draining...\n");
  std::fflush(stdout);
  server.value()->Shutdown();
  const net::ServerStats stats = server.value()->stats();
  std::printf("drained: %llu connections (%llu rejected), %llu requests "
              "served, %llu invalid, %llu/%llu frames in/out, %llu "
              "protocol errors\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.connections_rejected),
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.requests_rejected),
              static_cast<unsigned long long>(stats.frames_in),
              static_cast<unsigned long long>(stats.frames_out),
              static_cast<unsigned long long>(stats.protocol_errors));
  return 0;
}

int CmdClient(const CliArgs& args) {
  RequireKnownOptions(args, {"connect", "budget", "batch", "requests",
                             "deadline-ms", "priority", "client-id",
                             "metrics"});
  if (!args.options.count("connect")) {
    std::fprintf(stderr,
                 "usage: sper_cli client --connect=HOST:PORT [--budget=N] "
                 "[--batch=N] [--requests=N] [--deadline-ms=N] "
                 "[--priority=NAME] [--client-id=N] [--metrics]\n");
    return 2;
  }
  Result<net::Endpoint> endpoint =
      net::ParseEndpoint(args.options.at("connect"));
  if (!endpoint.ok()) {
    std::fprintf(stderr, "--connect: %s\n",
                 endpoint.status().ToString().c_str());
    return 2;
  }
  Result<net::Client> connected =
      net::Client::Connect(endpoint.value().host, endpoint.value().port);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.status().ToString().c_str());
    return 1;
  }
  net::Client client = std::move(connected).value();
  if (args.options.count("metrics")) {
    Result<std::string> snapshot = client.FetchMetricsJson();
    if (!snapshot.ok()) {
      std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", snapshot.value().c_str());
    return 0;
  }

  ResolveRequest request;
  request.budget = OptUint(args, "budget", 4096, 1,
                           std::numeric_limits<std::uint64_t>::max());
  request.max_batch =
      OptUint(args, "batch", 4096, 1, ResolveRequest::kMaxBatch);
  request.deadline_ms = OptUint(args, "deadline-ms", 0, 0,
                                ResolveRequest::kMaxDeadlineMs);
  request.client_id = OptUint(args, "client-id", 0, 0,
                              std::numeric_limits<std::uint64_t>::max());
  if (args.options.count("priority")) {
    const std::optional<Priority> parsed =
        ParsePriority(args.options.at("priority"));
    if (!parsed.has_value()) {
      std::fprintf(stderr,
                   "--priority=%s: unknown class (want interactive, batch, "
                   "or best_effort)\n",
                   args.options.at("priority").c_str());
      return 2;
    }
    request.priority = *parsed;
  }
  const std::uint64_t max_requests = OptUint(
      args, "requests", 0, 0, std::numeric_limits<std::uint64_t>::max());

  // A full (un-cut) slice carries min(budget, max_batch) comparisons; a
  // shorter one means the stream or global budget ran out.
  const std::uint64_t full_slice =
      std::min<std::uint64_t>(request.budget, request.max_batch);
  net::StreamDigest digest;
  std::uint64_t slices = 0;
  int empty_streak = 0;
  for (;;) {
    if (max_requests > 0 && slices >= max_requests) break;
    Result<ResolveResult> attempt = client.ResolveWithRetry(request);
    if (!attempt.ok()) {
      std::fprintf(stderr, "%s\n", attempt.status().ToString().c_str());
      return 1;
    }
    const ResolveResult& slice = attempt.value();
    if (slice.outcome == ResolveOutcome::kShed) {
      // ResolveWithRetry exhausted its retries against a still-shedding
      // server; surface the hint and give up.
      std::fprintf(stderr,
                   "still shedding after retries (retry_after_ms=%llu)\n",
                   static_cast<unsigned long long>(slice.retry_after_ms));
      return 1;
    }
    if (slice.outcome == ResolveOutcome::kRejected ||
        slice.outcome == ResolveOutcome::kFailed) {
      std::fprintf(stderr, "request %s: %s\n",
                   slice.outcome == ResolveOutcome::kRejected ? "rejected"
                                                              : "failed",
                   slice.status.ToString().c_str());
      return 1;
    }
    ++slices;
    for (const Comparison& c : slice.comparisons) digest.Fold(c);
    if (slice.deadline_exceeded() || slice.cancelled()) {
      // A cut slice is partial, not the end: ask again (the stream
      // continues losslessly) — unless cuts stopped yielding anything.
      empty_streak = slice.comparisons.empty() ? empty_streak + 1 : 0;
      if (empty_streak >= 64) break;
      continue;
    }
    empty_streak = 0;
    if (slice.stream_exhausted || slice.budget_exhausted ||
        !slice.status.ok() || slice.comparisons.size() < full_slice) {
      break;
    }
  }
  std::printf("drained %llu comparisons in %llu slices, "
              "digest=%016llx\n",
              static_cast<unsigned long long>(digest.count),
              static_cast<unsigned long long>(slices),
              static_cast<unsigned long long>(digest.value));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = Parse(argc, argv);
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: sper_cli <list|generate|run|inspect|serve|client>"
                 " ...\n");
    return 2;
  }
  const std::string& command = args.positional[0];
  if (command == "list") return CmdList();
  if (command == "generate") return CmdGenerate(args);
  if (command == "run") return CmdRun(args);
  if (command == "inspect") return CmdInspect(args);
  if (command == "serve") return CmdServe(args);
  if (command == "client") return CmdClient(args);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
