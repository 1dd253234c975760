// Tail-latency load generator for the QoS admission layer: an open-loop
// multi-client mix drives one shared resolver through three serving
// configurations and reports per-class latency percentiles and goodput.
//
//   fifo       no QoS — every request goes straight to the resolver's
//              ticketed FIFO admission (the pre-QoS serving path);
//   qos_noshed QosAdmissionController with shedding and eviction OFF:
//              rate limiting disabled, queue unbounded. Priority lanes
//              and WRR still schedule, but overload piles up;
//   qos_shed   shedding ON: per-client rate limit at the calibrated
//              sustainable share, bounded queue depth, doomed-request
//              eviction. Over-capacity arrivals fail fast with a
//              retry_after_ms hint instead of queueing.
//
// Open loop: each client's request k has a *scheduled* arrival time
// (start + k / rate); a dispatcher thread launches one worker per
// arrival at that instant regardless of whether earlier requests have
// finished, and latency is measured from the scheduled arrival to
// completion — backlog shows up as latency, never as a slower offered
// rate (no coordinated omission).
//
// The mix is 4 clients: two kInteractive (carrying --deadline-ms each),
// one kBatch and one kBestEffort (no deadline). The offered rate is
// --overload times the capacity measured by a calibration drain, so the
// mix is overloaded by construction.
//
// Every configuration is digest-checked: its admitted slices,
// concatenated in resolver-ticket order, must be bit-identical to a
// prefix of one fresh un-batched drain (FNV-1a, bench_util.h). Sheds
// and evictions change which requests are served, never the served
// stream. The bench exits 1 on digest mismatch — and exits 1 if
// qos_shed does not beat qos_noshed on interactive p99, which is the
// claim BENCH_loadgen.json exists to document.
//
//   bench_load_generator [--scale=S] [--dataset=NAME] [--method=M]
//                        [--requests=R] [--batch=B] [--overload=F]
//                        [--deadline-ms=MS] [--depth=N] [--json=PATH]
//
// --json emits one record per configuration (schema: bench/BENCH.md)
// with per-class p50/p99/goodput extras.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
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
#include "serving/qos.h"

namespace {

using namespace sper;
using sper::bench::Percentile;

std::uint64_t NowNs() { return obs::MonotonicClock::Default()->NowNanos(); }

struct LoadArgs {
  double scale = 4.0;
  std::string dataset = "cora";
  std::string method = "pps";
  std::uint64_t requests = 30;    // per client
  std::uint64_t batch = 2048;     // comparisons per request
  double overload = 4.0;          // offered rate / calibrated capacity
  std::uint64_t deadline_ms = 50;  // interactive clients only
  std::size_t depth = 8;          // qos_shed max_queue_depth
  std::string json_path;
};

/// One client of the mix: a priority class, an offered rate share, and
/// whether its requests carry the interactive deadline.
struct ClientSpec {
  ClientId id;
  Priority priority;
  bool deadline;
};

/// One issued request's record, written by its worker thread into a
/// pre-sized slot (no locking; readers join first).
struct RequestRecord {
  Priority priority = Priority::kInteractive;
  ResolveResult slice;
  double latency_ms = 0.0;  // scheduled arrival -> completion
  bool issued = false;
};

/// How a configuration serves one request. fifo goes straight to the
/// resolver; the qos paths go through the controller.
struct ServePath {
  Resolver* resolver = nullptr;
  serving::QosAdmissionController* qos = nullptr;

  ResolveResult Serve(const ResolveRequest& request) const {
    return qos != nullptr ? qos->Resolve(request) : resolver->Serve(request);
  }
};

struct MixResult {
  std::vector<RequestRecord> records;
  double wall_ms = 0.0;
};

/// Runs the open-loop mix: one dispatcher thread per client launches one
/// worker per scheduled arrival; workers serve and record independently.
MixResult RunMix(const ServePath& path, const std::vector<ClientSpec>& clients,
                 const LoadArgs& args, double per_client_rate) {
  MixResult mix;
  mix.records.resize(clients.size() * args.requests);
  const std::uint64_t interval_ns =
      static_cast<std::uint64_t>(1e9 / per_client_rate);
  const std::uint64_t start_ns = NowNs();

  std::vector<std::thread> dispatchers;
  dispatchers.reserve(clients.size());
  for (std::size_t c = 0; c < clients.size(); ++c) {
    dispatchers.emplace_back([&, c] {
      const ClientSpec& spec = clients[c];
      std::vector<std::thread> workers;
      workers.reserve(args.requests);
      for (std::uint64_t k = 0; k < args.requests; ++k) {
        const std::uint64_t scheduled_ns = start_ns + k * interval_ns;
        const std::uint64_t now = NowNs();
        if (scheduled_ns > now) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(scheduled_ns - now));
        }
        RequestRecord* slot = &mix.records[c * args.requests + k];
        workers.emplace_back([&, slot, scheduled_ns] {
          ResolveRequest request;
          request.budget = args.batch;
          request.max_batch = args.batch;
          request.client_id = spec.id;
          request.priority = spec.priority;
          request.deadline_ms = spec.deadline ? args.deadline_ms : 0;
          slot->priority = spec.priority;
          slot->slice = path.Serve(request);
          slot->latency_ms =
              static_cast<double>(NowNs() - scheduled_ns) / 1e6;
          slot->issued = true;
        });
      }
      for (std::thread& w : workers) w.join();
    });
  }
  for (std::thread& d : dispatchers) d.join();
  mix.wall_ms = static_cast<double>(NowNs() - start_ns) / 1e6;
  return mix;
}

/// Mean per-request service time of `probes` fresh slices — the capacity
/// model the offered rate and the shed configuration are derived from.
std::uint64_t CalibrateServiceNs(const ProfileStore& store,
                                 const ResolverOptions& options,
                                 std::uint64_t batch, int probes) {
  std::unique_ptr<Resolver> resolver =
      sper::bench::CreateResolverOrDie(store, options);
  std::uint64_t total_ns = 0;
  int counted = 0;
  for (int i = 0; i < probes; ++i) {
    ResolveRequest request;
    request.budget = batch;
    request.max_batch = batch;
    const std::uint64_t before = NowNs();
    ResolveResult slice = resolver->Serve(request);
    total_ns += NowNs() - before;
    ++counted;
    if (slice.stream_exhausted) break;
  }
  return counted > 0 ? std::max<std::uint64_t>(total_ns / counted, 1) : 1;
}

}  // namespace

int main(int argc, char** argv) {
  LoadArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      args.scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--dataset=", 10) == 0) {
      args.dataset = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--method=", 9) == 0) {
      args.method = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      args.requests = std::strtoull(argv[i] + 11, nullptr, 10);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      args.batch = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--overload=", 11) == 0) {
      args.overload = std::atof(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--deadline-ms=", 14) == 0) {
      args.deadline_ms = std::strtoull(argv[i] + 14, nullptr, 10);
    } else if (std::strncmp(argv[i], "--depth=", 8) == 0) {
      args.depth = std::strtoul(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      args.json_path = argv[i] + 7;
    } else {
      std::printf(
          "usage: %s [--scale=S] [--dataset=NAME] [--method=M] "
          "[--requests=R] [--batch=B] [--overload=F] [--deadline-ms=MS] "
          "[--depth=N] [--json=PATH]\n",
          argv[0]);
      return 2;
    }
  }
  const std::optional<MethodId> method = ParseMethodId(args.method);
  if (!method.has_value()) {
    std::fprintf(stderr, "unknown method '%s'\n", args.method.c_str());
    return 2;
  }

  DatagenOptions gen;
  gen.scale = args.scale;
  Result<DatasetBundle> dataset = GenerateDataset(args.dataset, gen);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const ProfileStore& store = dataset.value().store;
  ResolverOptions options;
  options.method = *method;

  // Capacity model: mean service time of a fresh drain's slices. The mix
  // offers `overload`x that rate, split over 4 clients; qos_shed's
  // per-client rate limit is each client's sustainable (1x) share.
  const std::uint64_t service_ns =
      CalibrateServiceNs(store, options, args.batch, 16);
  const double capacity_rps = 1e9 / static_cast<double>(service_ns);
  const double offered_rps = args.overload * capacity_rps;
  const std::vector<ClientSpec> clients = {
      {1, Priority::kInteractive, true},
      {2, Priority::kInteractive, true},
      {3, Priority::kBatch, false},
      {4, Priority::kBestEffort, false},
  };
  const double per_client_rate = offered_rps / clients.size();
  const double sustainable_per_client = capacity_rps / clients.size();

  std::printf(
      "dataset %s: %zu profiles (scale %.2f), method %s, batch %llu\n"
      "calibrated service %.3f ms/request => capacity %.0f req/s; "
      "offering %.0fx = %.0f req/s over %zu clients "
      "(2 interactive + 1 batch + 1 best_effort), %llu requests each\n",
      dataset.value().name.c_str(), store.size(), args.scale,
      std::string(ToString(*method)).c_str(),
      static_cast<unsigned long long>(args.batch),
      static_cast<double>(service_ns) / 1e6, capacity_rps, args.overload,
      offered_rps, clients.size(),
      static_cast<unsigned long long>(args.requests));

  // The un-batched reference drain every configuration's admitted stream
  // must be a prefix of.
  std::vector<Comparison> reference;
  {
    std::unique_ptr<Resolver> resolver =
        sper::bench::CreateResolverOrDie(store, options);
    for (;;) {
      ResolveRequest request;
      request.budget = 1u << 20;
      request.max_batch = 1u << 20;
      ResolveResult slice = resolver->Serve(request);
      reference.insert(reference.end(), slice.comparisons.begin(),
                       slice.comparisons.end());
      if (slice.stream_exhausted || slice.comparisons.empty()) break;
    }
  }

  struct PathSpec {
    const char* name;
    bool use_qos;
    bool shed;
  };
  const std::array<PathSpec, 3> paths = {{
      {"fifo", false, false},
      {"qos_noshed", true, false},
      {"qos_shed", true, true},
  }};

  TextTable table({"path", "class", "issued", "served", "sheds", "evicts",
                   "p50 (ms)", "p99 (ms)", "goodput", "digest"});
  std::vector<sper::bench::JsonRecord> json;
  std::array<double, 2> interactive_p99{};  // [noshed, shed]
  bool digests_ok = true;

  for (const PathSpec& spec : paths) {
    std::unique_ptr<Resolver> resolver =
        sper::bench::CreateResolverOrDie(store, options);
    std::unique_ptr<serving::QosAdmissionController> qos;
    if (spec.use_qos) {
      serving::QosOptions qos_options;
      if (spec.shed) {
        qos_options.client_rate = sustainable_per_client;
        qos_options.max_queue_depth = args.depth;
      } else {
        qos_options.shed_enabled = false;
        qos_options.evict_doomed = false;
        qos_options.max_queue_depth = 0;
      }
      qos = std::make_unique<serving::QosAdmissionController>(*resolver,
                                                              qos_options);
      qos->PrimeServiceEstimate(service_ns);
    }
    const ServePath path{resolver.get(), qos.get()};
    MixResult mix = RunMix(path, clients, args, per_client_rate);

    // Digest: admitted slices, concatenated in ticket order, vs the
    // reference prefix of the same length.
    std::vector<const ResolveResult*> admitted;
    for (const RequestRecord& r : mix.records) {
      if (r.issued && r.slice.admitted()) admitted.push_back(&r.slice);
    }
    std::sort(admitted.begin(), admitted.end(),
              [](const ResolveResult* a, const ResolveResult* b) {
                return a->ticket < b->ticket;
              });
    net::StreamDigest actual, expected;
    for (const ResolveResult* slice : admitted) {
      for (const Comparison& c : slice->comparisons) actual.Fold(c);
    }
    for (std::uint64_t i = 0; i < actual.count && i < reference.size();
         ++i) {
      expected.Fold(reference[i]);
    }
    const bool match = actual.count <= reference.size() && actual == expected;
    digests_ok = digests_ok && match;

    sper::bench::JsonRecord record;
    record.dataset = dataset.value().name;
    record.scale = args.scale;
    record.path = spec.name;
    record.wall_ms = mix.wall_ms;
    record.batch_size = static_cast<std::size_t>(args.batch);
    record.extras.emplace_back("capacity_rps", capacity_rps);
    record.extras.emplace_back("offered_rps", offered_rps);
    record.extras.emplace_back("emitted",
                               static_cast<double>(actual.count));
    record.extras.emplace_back("digest_match", match ? 1.0 : 0.0);

    for (std::size_t p = 0; p < kNumPriorities; ++p) {
      const auto priority = static_cast<Priority>(p);
      std::vector<double> served_ms;
      std::uint64_t issued = 0, served = 0, sheds = 0, evicts = 0;
      for (const RequestRecord& r : mix.records) {
        if (!r.issued || r.priority != priority) continue;
        ++issued;
        switch (r.slice.outcome) {
          case ResolveOutcome::kServed:
            ++served;
            served_ms.push_back(r.latency_ms);
            break;
          case ResolveOutcome::kDeadlineExpired:
            served_ms.push_back(r.latency_ms);  // admitted, but too late
            break;
          case ResolveOutcome::kShed:
            ++sheds;
            break;
          case ResolveOutcome::kEvicted:
            ++evicts;
            break;
          default:
            break;
        }
      }
      if (issued == 0) continue;
      const double p50 = Percentile(served_ms, 0.50);
      const double p99 = Percentile(served_ms, 0.99);
      const double goodput =
          static_cast<double>(served) / static_cast<double>(issued);
      if (priority == Priority::kInteractive) {
        if (std::strcmp(spec.name, "qos_noshed") == 0) {
          interactive_p99[0] = p99;
        } else if (std::strcmp(spec.name, "qos_shed") == 0) {
          interactive_p99[1] = p99;
        }
      }
      const std::string cls(ToString(priority));
      table.AddRow({spec.name, cls, std::to_string(issued),
                    std::to_string(served), std::to_string(sheds),
                    std::to_string(evicts), FormatDouble(p50, 2),
                    FormatDouble(p99, 2), FormatDouble(goodput, 3),
                    match ? "match" : "MISMATCH"});
      record.extras.emplace_back(cls + "_p50_ms", p50);
      record.extras.emplace_back(cls + "_p99_ms", p99);
      record.extras.emplace_back(cls + "_goodput", goodput);
      record.extras.emplace_back(cls + "_served",
                                 static_cast<double>(served));
      record.extras.emplace_back(cls + "_sheds",
                                 static_cast<double>(sheds));
      record.extras.emplace_back(cls + "_evictions",
                                 static_cast<double>(evicts));
    }
    json.push_back(std::move(record));
  }
  table.Print();
  std::printf(
      "\nlatency is scheduled-arrival to completion (open loop: backlog "
      "surfaces as\nlatency, not reduced offered rate); percentiles are "
      "over admitted requests;\ngoodput = served in full / issued. "
      "\"match\" means the path's admitted slices,\nin ticket order, are "
      "a bit-identical prefix of one un-batched drain.\n");
  std::printf(
      "interactive p99: shed off %.2f ms -> shed on %.2f ms\n",
      interactive_p99[0], interactive_p99[1]);

  if (!args.json_path.empty() &&
      !sper::bench::WriteJsonRecords(args.json_path, json)) {
    return 1;
  }
  if (!digests_ok) {
    std::fprintf(stderr,
                 "FAIL: an admitted stream diverged from the reference "
                 "drain\n");
    return 1;
  }
  if (interactive_p99[1] >= interactive_p99[0]) {
    std::fprintf(stderr,
                 "FAIL: shedding did not improve interactive p99 "
                 "(%.2f ms with vs %.2f ms without)\n",
                 interactive_p99[1], interactive_p99[0]);
    return 1;
  }
  return 0;
}
