#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "blocking/profile_index.h"
#include "datagen/datagen.h"
#include "net/client.h"
#include "net/wire.h"
#include "obs/clock.h"
#include "obs/telemetry.h"
#include "progressive/pps.h"
#include "progressive/workflow.h"

namespace perfbench {

namespace {

using sper::Status;
using sper::obs::Stopwatch;
using TimePoint = Stopwatch::TimePoint;

double Ms(TimePoint from, TimePoint to) {
  return Stopwatch::Seconds(from, to) * 1e3;
}

double Us(TimePoint from, TimePoint to) {
  return Stopwatch::Seconds(from, to) * 1e6;
}

double Mcmp(std::uint64_t comparisons, double seconds) {
  return seconds > 0 ? static_cast<double>(comparisons) / seconds / 1e6 : 0.0;
}

sper::ResolverOptions OptionsFor(const DriveSpec& spec,
                                 sper::obs::TelemetryScope telemetry) {
  sper::ResolverOptions options;
  options.method = sper::MethodId::kPps;
  options.num_threads = spec.init_threads;
  options.num_shards = spec.shards;
  options.lookahead = spec.lookahead;
  options.telemetry = std::move(telemetry);
  return options;
}

/// The one serving entry point a caller talks to in a round.
struct Target {
  sper::Resolver* resolver = nullptr;
  sper::serving::QosAdmissionController* qos = nullptr;
  sper::net::Client* client = nullptr;
};

/// What one closed-loop caller saw.
struct CallerLog {
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t comparisons = 0;
  std::vector<double> lat_ms;
  Status status;
};

/// One closed-loop caller: sends kSliceComparisons-comparison requests,
/// each after the previous reply, until the stream is exhausted. Shed requests
/// count as failed and are retried after the server's backoff hint; any
/// other unserved outcome or a transport error ends the caller.
void RunCaller(const DriveSpec& spec, std::size_t k, const Target& target,
               StreamRecorder& recorder, Tracer& tracer,
               std::uint64_t parent, std::atomic<std::uint64_t>& sequence,
               std::latch& start, CallerLog& log) {
  sper::ResolveRequest request;
  request.budget = kSliceComparisons;
  request.max_batch = kSliceComparisons;
  request.priority = static_cast<sper::Priority>(k % sper::kNumPriorities);
  start.wait();
  for (;;) {
    const std::uint64_t number =
        sequence.fetch_add(1, std::memory_order_relaxed) + 1;
    sper::ResolveResult result;
    Status transport;
    const TimePoint issued = Stopwatch::Now();
    switch (spec.entry) {
      case Entry::kResolver:
        result = target.resolver->Serve(request);
        break;
      case Entry::kQos:
        result = target.qos->Resolve(request);
        break;
      case Entry::kWire: {
        sper::Result<sper::ResolveResult> reply =
            target.client->Resolve(request);
        if (reply.ok()) {
          result = std::move(reply).value();
        } else {
          transport = reply.status();
        }
        break;
      }
    }
    const TimePoint done = Stopwatch::Now();
    ++log.requests;
    log.lat_ms.push_back(Ms(issued, done));
    tracer.Record("request", issued, done, tracer.NewId(), parent, number);
    if (!transport.ok()) {
      ++log.failed;
      log.status = transport;
      return;
    }
    if (result.outcome != sper::ResolveOutcome::kServed) {
      ++log.failed;
      if (result.outcome == sper::ResolveOutcome::kShed) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(result.retry_after_ms));
        continue;
      }
      log.status = Status::Internal(
          "request " + std::to_string(number) + " came back " +
          std::string(sper::ToString(result.outcome)) + ": " +
          result.status.ToString());
      return;
    }
    const bool last = result.stream_exhausted ||
                      result.comparisons.size() < kSliceComparisons;
    log.comparisons += result.comparisons.size();
    if (!recorder.Add(result.ticket, std::move(result.comparisons))) {
      log.status = Status::Internal(recorder.error());
      return;
    }
    if (last) return;
  }
}

/// Stops collecting rounds once another round would overrun the budget.
bool WantAnotherRound(std::size_t rounds, std::size_t min_rounds,
                      double elapsed_s, double seconds) {
  if (rounds < min_rounds) return true;
  const double per_round = elapsed_s / static_cast<double>(rounds);
  return elapsed_s + per_round <= seconds;
}

/// The median over rounds of each round's latency quantile `q`: one slow
/// round moves it less than it would move a quantile of pooled samples.
double MedianRoundQuantile(const std::vector<RoundResult>& rounds, double q) {
  std::vector<double> per_round;
  for (const RoundResult& round : rounds) {
    per_round.push_back(Quantile(round.lat_ms, q));
  }
  return Median(std::move(per_round));
}

/// The stream a workload's output must equal, computed outside its timed
/// rounds: drain-s4's pipelined stream against the serial one of the same
/// shards, serve-wire's slices against drain-s1's stream. drain-s1 is
/// itself the reference (its rounds are checked against each other and,
/// in the traced run, against the raw emitter).
std::optional<DriveSpec> ReferenceFor(const DriveSpec& spec) {
  if (spec.entry == Entry::kWire) return *FindWorkload("drain-s1");
  if (spec.lookahead > 0) {
    DriveSpec serial = spec;
    serial.name = "serial-reference";
    serial.lookahead = 0;
    return serial;
  }
  return std::nullopt;
}

/// Drains a raw PpsEmitter (no engine) into `recorder` in
/// kSliceComparisons-sized tickets, as a resolver caller would receive
/// them, timing every ProduceBatch call.
struct RawDrain {
  double init_s = 0.0;
  double drain_s = 0.0;
  std::uint64_t comparisons = 0;
  std::vector<double> refill_us;
};

RawDrain DrainRawEmitter(const sper::DatasetBundle& input,
                         sper::BlockCollection blocks, std::size_t threads,
                         StreamRecorder& recorder, Tracer& tracer,
                         std::uint64_t parent) {
  RawDrain raw;
  sper::PpsOptions pps;
  pps.num_threads = threads;
  const TimePoint init_start = Stopwatch::Now();
  sper::PpsEmitter emitter(input.store, std::move(blocks), pps);
  const TimePoint init_end = Stopwatch::Now();
  raw.init_s = Stopwatch::Seconds(init_start, init_end);
  tracer.Record("progressive.init", init_start, init_end, tracer.NewId(),
                parent);

  sper::ComparisonList batch;
  std::vector<Comparison> pending;
  std::uint64_t ticket = 0;
  const TimePoint drain_start = Stopwatch::Now();
  for (;;) {
    const TimePoint refill_start = Stopwatch::Now();
    const bool more = emitter.ProduceBatch(batch);
    const TimePoint refill_end = Stopwatch::Now();
    if (more) {
      raw.refill_us.push_back(Us(refill_start, refill_end));
      while (!batch.Empty()) pending.push_back(batch.PopFirst());
    }
    if (pending.size() >= kSliceComparisons || (!more && !pending.empty())) {
      raw.comparisons += pending.size();
      recorder.Add(ticket++, std::move(pending));
      pending.clear();
    }
    if (!more) break;
  }
  const TimePoint drain_end = Stopwatch::Now();
  raw.drain_s = Stopwatch::Seconds(drain_start, drain_end);
  tracer.Record("progressive.drain", drain_start, drain_end, tracer.NewId(),
                parent);
  return raw;
}

/// Median per-slice microseconds of EncodeResolveResultFrame and
/// DecodeResolveResult over kSliceComparisons-comparison slices of `head`,
/// repeated for half a second, each checked to round-trip exactly.
struct CodecTiming {
  double encode_us = 0.0;
  double decode_us = 0.0;
  Status status;
};

CodecTiming TimeWireCodec(const std::vector<Comparison>& head) {
  CodecTiming timing;
  std::vector<sper::ResolveResult> slices;
  for (std::size_t at = 0; at + kSliceComparisons <= head.size();
       at += kSliceComparisons) {
    sper::ResolveResult result;
    result.ticket = slices.size();
    result.comparisons.assign(
        head.begin() + static_cast<std::ptrdiff_t>(at),
        head.begin() + static_cast<std::ptrdiff_t>(at + kSliceComparisons));
    slices.push_back(std::move(result));
  }
  if (slices.empty()) {
    timing.status = Status::Internal("stream too short for the codec probe");
    return timing;
  }
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  const Stopwatch budget;
  while (encode_us.empty() || budget.ElapsedSeconds() < 0.5) {
    for (const sper::ResolveResult& result : slices) {
      const TimePoint t0 = Stopwatch::Now();
      const std::string frame = sper::net::EncodeResolveResultFrame(result);
      const TimePoint t1 = Stopwatch::Now();
      sper::Result<sper::ResolveResult> decoded =
          sper::net::DecodeResolveResult(std::string_view(frame).substr(4));
      const TimePoint t2 = Stopwatch::Now();
      encode_us.push_back(Us(t0, t1));
      decode_us.push_back(Us(t1, t2));
      if (!decoded.ok() || decoded.value().ticket != result.ticket ||
          !std::equal(result.comparisons.begin(), result.comparisons.end(),
                      decoded.value().comparisons.begin(),
                      decoded.value().comparisons.end(), BitIdentical)) {
        timing.status = Status::Internal(
            "wire codec did not round-trip slice " +
            std::to_string(result.ticket));
        return timing;
      }
    }
  }
  timing.encode_us = Median(std::move(encode_us));
  timing.decode_us = Median(std::move(decode_us));
  return timing;
}

/// The largest per-shard value of one init phase.
double MaxShardPhase(const sper::InitStats& init, std::string_view phase) {
  double worst = 0.0;
  for (const sper::InitPhase& p : init.phases) {
    if (p.name == phase) worst = std::max(worst, p.seconds);
  }
  return worst;
}

/// The slowest shard's whole build: the sum of its phases other than the
/// shard-spanning partition.
double SlowestShardSetup(const sper::InitStats& init) {
  std::vector<double> per_shard;
  for (const sper::InitPhase& p : init.phases) {
    if (p.name == "partition") continue;
    if (per_shard.size() <= p.shard) per_shard.resize(p.shard + 1, 0.0);
    per_shard[p.shard] += p.seconds;
  }
  return per_shard.empty()
             ? 0.0
             : *std::max_element(per_shard.begin(), per_shard.end());
}

double MaxOverMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  double worst = 0.0;
  for (double v : values) {
    sum += v;
    worst = std::max(worst, v);
  }
  return sum > 0 ? worst / (sum / static_cast<double>(values.size())) : 0.0;
}

std::uint64_t CounterValue(const sper::obs::Registry& registry,
                           const std::string& name) {
  const sper::obs::Counter* counter = registry.FindCounter(name);
  return counter != nullptr ? counter->value() : 0;
}

/// Records a fresh failure message unless an earlier one is kept.
void Fail(std::string& error, const std::string& what, const Status& status) {
  if (error.empty() && !status.ok()) error = what + ": " + status.ToString();
}

}  // namespace

const std::vector<DriveSpec>& Workloads() {
  static const std::vector<DriveSpec> workloads = {
      {.name = "drain-s1",
       .shards = 1,
       .init_threads = 1,
       .lookahead = 0,
       .entry = Entry::kResolver,
       .callers = 1},
      {.name = "drain-s4",
       .shards = 4,
       .init_threads = 4,
       .lookahead = 4,
       .entry = Entry::kResolver,
       .callers = 1},
      {.name = "serve-wire",
       .shards = 1,
       .init_threads = 4,
       .lookahead = 0,
       .entry = Entry::kWire,
       .callers = 3},
  };
  return workloads;
}

const DriveSpec* FindWorkload(std::string_view name) {
  for (const DriveSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

sper::Result<sper::DatasetBundle> MakeInput(std::uint64_t seed,
                                            double scale) {
  sper::DatagenOptions options;
  options.seed = seed;
  options.scale = scale;
  return sper::GenerateDataset("dbpedia", options);
}

RoundResult RunRound(const DriveSpec& spec, const sper::DatasetBundle& input,
                     StreamRecorder& recorder, const RoundHooks& hooks) {
  RoundResult round;
  Tracer untraced;
  Tracer& tracer = hooks.tracer != nullptr ? *hooks.tracer : untraced;
  const std::uint64_t round_span = tracer.NewId();
  const TimePoint round_start = Stopwatch::Now();
  const sper::obs::TelemetryScope scope =
      hooks.registry != nullptr
          ? sper::obs::TelemetryScope(hooks.registry, hooks.prefix)
          : sper::obs::TelemetryScope();

  const TimePoint setup_start = Stopwatch::Now();
  sper::Result<std::unique_ptr<sper::Resolver>> created =
      sper::Resolver::Create(input.store, OptionsFor(spec, scope));
  if (!created.ok()) {
    round.status = created.status();
    return round;
  }
  std::unique_ptr<sper::Resolver> resolver = std::move(created).value();
  std::unique_ptr<sper::net::Server> server;
  std::unique_ptr<sper::serving::QosAdmissionController> qos;
  if (spec.entry == Entry::kWire) {
    sper::net::ServerOptions options;
    options.telemetry = scope;
    options.qos.telemetry = scope;
    sper::Result<std::unique_ptr<sper::net::Server>> started =
        sper::net::Server::Start(*resolver, options);
    if (!started.ok()) {
      round.status = started.status();
      return round;
    }
    server = std::move(started).value();
  } else if (spec.entry == Entry::kQos) {
    sper::serving::QosOptions options;
    options.telemetry = scope;
    qos = std::make_unique<sper::serving::QosAdmissionController>(*resolver,
                                                                  options);
  }
  const TimePoint setup_end = Stopwatch::Now();
  round.setup_s = Stopwatch::Seconds(setup_start, setup_end);
  tracer.Record("setup", setup_start, setup_end, tracer.NewId(), round_span);
  round.init = resolver->init_stats();

  // Connections are opened before the drain clock starts.
  std::vector<sper::net::Client> clients;
  if (server != nullptr) {
    for (std::size_t k = 0; k < spec.callers; ++k) {
      sper::Result<sper::net::Client> connected =
          sper::net::Client::Connect("127.0.0.1", server->port());
      if (!connected.ok()) {
        round.status = connected.status();
        return round;
      }
      clients.push_back(std::move(connected).value());
    }
  }

  std::vector<CallerLog> logs(spec.callers);
  std::atomic<std::uint64_t> sequence{0};
  std::latch start(1);
  const std::uint64_t drain_span = tracer.NewId();
  std::vector<std::thread> callers;
  for (std::size_t k = 0; k < spec.callers; ++k) {
    Target target;
    target.resolver = resolver.get();
    target.qos = qos.get();
    target.client = clients.empty() ? nullptr : &clients[k];
    callers.emplace_back([&, k, target] {
      RunCaller(spec, k, target, recorder, tracer, drain_span, sequence,
                start, logs[k]);
    });
  }
  const TimePoint drain_start = Stopwatch::Now();
  start.count_down();
  for (std::thread& caller : callers) caller.join();
  const TimePoint drain_end = Stopwatch::Now();
  round.drain_s = Stopwatch::Seconds(drain_start, drain_end);
  tracer.Record("drain", drain_start, drain_end, drain_span, round_span);

  for (std::size_t k = 0; k < spec.callers; ++k) {
    CallerLog& log = logs[k];
    round.requests += log.requests;
    round.failed += log.failed;
    round.comparisons += log.comparisons;
    round.lat_ms.insert(round.lat_ms.end(), log.lat_ms.begin(),
                        log.lat_ms.end());
    std::vector<double>& by_class =
        round.class_lat_ms[k % sper::kNumPriorities];
    by_class.insert(by_class.end(), log.lat_ms.begin(), log.lat_ms.end());
    if (round.status.ok() && !log.status.ok()) round.status = log.status;
  }
  if (server != nullptr) {
    round.server = server->stats();
    for (std::size_t p = 0; p < sper::kNumPriorities; ++p) {
      round.qos[p] = server->qos().stats(static_cast<sper::Priority>(p));
    }
    for (sper::net::Client& client : clients) client.Close();
    server->Shutdown();
  } else if (qos != nullptr) {
    for (std::size_t p = 0; p < sper::kNumPriorities; ++p) {
      round.qos[p] = qos->stats(static_cast<sper::Priority>(p));
    }
  }
  if (round.status.ok() && round.comparisons != resolver->emitted()) {
    round.status = Status::Internal(
        "callers received " + std::to_string(round.comparisons) +
        " comparisons, resolver emitted " +
        std::to_string(resolver->emitted()));
  }
  qos.reset();
  server.reset();
  resolver.reset();
  tracer.Record(spec.name, round_start, Stopwatch::Now(), round_span,
                hooks.parent_span);
  return round;
}

EndToEndReport RunEndToEnd(const DriveSpec& spec,
                           const sper::DatasetBundle& input, double seconds) {
  EndToEndReport report;
  const std::uint64_t head = QualityHeadLength(input.truth);

  std::optional<StreamRecorder> reference;
  if (std::optional<DriveSpec> ref_spec = ReferenceFor(spec)) {
    reference.emplace(head, ref_spec->callers);
    const RoundResult ref = RunRound(*ref_spec, input, *reference);
    Fail(report.error, "reference " + std::string(ref_spec->name),
         ref.status);
  }

  // Round 1 is checked against the reference and scored; every later
  // round must reproduce its digest.
  std::vector<RoundResult> rounds;
  const Stopwatch elapsed;
  while (report.error.empty() &&
         WantAnotherRound(rounds.size(), kMinRounds,
                          elapsed.ElapsedSeconds(), seconds)) {
    StreamRecorder recorder(head, spec.callers);
    rounds.push_back(RunRound(spec, input, recorder));
    const RoundResult& round = rounds.back();
    const std::string what = "round " + std::to_string(rounds.size());
    report.attempted += round.requests;
    report.failed += round.failed;
    Fail(report.error, what, round.status);
    if (rounds.size() == 1) {
      Fail(report.error, what,
           reference.has_value()
               ? CheckSameStream(*reference, recorder)
               : (recorder.Complete() ? Status::Ok()
                                      : Status::Internal(recorder.error())));
      report.digest = recorder.digest();
      report.quality = MeasureQuality(input.truth, recorder.head());
    } else if (!(recorder.digest() == report.digest)) {
      Fail(report.error, what,
           Status::Internal("stream differs from round 1"));
    }
  }
  for (const RoundResult& round : rounds) {
    report.round_seconds.emplace_back(round.setup_s, round.drain_s);
  }
  report.correct = report.error.empty() && report.attempted > 0;

  std::vector<double> setup_s;
  std::vector<double> mcmp_s;
  for (const RoundResult& round : rounds) {
    setup_s.push_back(round.setup_s);
    mcmp_s.push_back(Mcmp(round.comparisons, round.drain_s));
  }
  const double served =
      report.attempted > 0
          ? static_cast<double>(report.attempted - report.failed) /
                static_cast<double>(report.attempted)
          : 0.0;
  report.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"mcmp_s", Median(mcmp_s), "Mcmp/s"},
      {"lat_p50_ms", MedianRoundQuantile(rounds, 0.5), "ms"},
      {"served_ratio", served, "ratio"},
      {"auc_at_1", report.quality.auc_at_1, "ratio"},
      {"auc_at_10", report.quality.auc_at_10, "ratio"},
      {"recall_at_ec10", report.quality.recall_at_ec10, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  return report;
}

Report RunTraced(const DriveSpec& spec, const sper::DatasetBundle& input,
                 double seconds, sper::obs::Registry& registry) {
  Report report;
  Tracer tracer(&registry);
  const std::uint64_t head = QualityHeadLength(input.truth);
  const auto count = [&report](const RoundResult& round) {
    report.attempted += round.requests;
    report.failed += round.failed;
  };

  // obs.overhead: the workload's drain without and with library
  // telemetry plus benchmark spans, rounds in ABBA order so drift
  // cancels. The pairs get half the run's budget; the layer probes below
  // take the rest.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::optional<sper::net::StreamDigest> digest;
  const Stopwatch elapsed;
  while (report.error.empty() &&
         WantAnotherRound(untraced_s.size(), 2, elapsed.ElapsedSeconds(),
                          seconds / 2)) {
    const bool traced_first = untraced_s.size() % 2 == 1;
    for (const bool traced : {traced_first, !traced_first}) {
      StreamRecorder recorder(head, spec.callers);
      RoundHooks hooks;
      if (traced) {
        hooks.registry = &registry;
        hooks.prefix = std::string(spec.name) + ".round" +
                       std::to_string(traced_s.size()) + ".";
        hooks.tracer = &tracer;
      }
      const RoundResult round = RunRound(spec, input, recorder, hooks);
      count(round);
      Fail(report.error, std::string(spec.name), round.status);
      if (!digest.has_value()) digest = recorder.digest();
      if (!(*digest == recorder.digest())) {
        Fail(report.error, std::string(spec.name),
             Status::Internal("traced and untraced streams differ"));
      }
      (traced ? traced_s : untraced_s).push_back(round.drain_s);
    }
  }

  // blocking + progressive: the workflow and the raw PPS emitter on the
  // whole store at the workload's init thread count.
  const std::uint64_t layers_span = tracer.NewId();
  const TimePoint layers_start = Stopwatch::Now();
  sper::TokenWorkflowOptions workflow;
  workflow.num_threads = spec.init_threads;
  sper::TokenWorkflowTiming timing;
  TimePoint t0 = Stopwatch::Now();
  sper::BlockCollection blocks =
      sper::BuildTokenWorkflowBlocks(input.store, workflow, &timing);
  tracer.Record("blocking.workflow", t0, Stopwatch::Now(), tracer.NewId(),
                layers_span);
  std::uint64_t reachable = 0;
  {
    const sper::ProfileIndex index(blocks, input.store.size());
    for (std::uint64_t key : input.truth.pairs()) {
      const auto a = static_cast<sper::ProfileId>(key >> 32);
      const auto b = static_cast<sper::ProfileId>(key & 0xffffffffu);
      if (index.CountCommonBlocks(a, b) > 0) ++reachable;
    }
  }
  const std::size_t num_blocks = blocks.size();
  const std::uint64_t cardinality = blocks.AggregateCardinality();
  StreamRecorder raw_stream(head, 1);
  const RawDrain raw =
      DrainRawEmitter(input, std::move(blocks), spec.init_threads, raw_stream,
                      tracer, layers_span);

  // engine: the drain-s1 configuration, built on 4 threads (the stream
  // does not depend on them), served through Resolver::Serve.
  DriveSpec serial = *FindWorkload("drain-s1");
  serial.init_threads = 4;
  StreamRecorder engine_stream(head, 1);
  RoundHooks spans;
  spans.tracer = &tracer;
  spans.parent_span = layers_span;
  const RoundResult engine = RunRound(serial, input, engine_stream, spans);
  count(engine);
  Fail(report.error, "engine", engine.status);
  Fail(report.error, "engine vs raw PPS",
       CheckSameStream(raw_stream, engine_stream));

  // parallel: drain-s4 at lookahead 0 and 4 with library telemetry on.
  DriveSpec sharded = *FindWorkload("drain-s4");
  sharded.lookahead = 0;
  RoundHooks sharded_hooks = spans;
  sharded_hooks.registry = &registry;
  sharded_hooks.prefix = "layers.s4_lookahead0.";
  StreamRecorder serial_s4(head, 1);
  const RoundResult s4_serial =
      RunRound(sharded, input, serial_s4, sharded_hooks);
  count(s4_serial);
  sharded.lookahead = FindWorkload("drain-s4")->lookahead;
  const std::string pipelined = "layers.s4_lookahead4.";
  sharded_hooks.prefix = pipelined;
  StreamRecorder pipelined_s4(head, 1);
  const RoundResult s4 = RunRound(sharded, input, pipelined_s4, sharded_hooks);
  count(s4);
  Fail(report.error, "drain-s4 lookahead 0", s4_serial.status);
  Fail(report.error, "drain-s4 lookahead 4", s4.status);
  Fail(report.error, "drain-s4 lookahead 4 vs 0",
       CheckSameStream(serial_s4, pipelined_s4));

  // engine / serving / net: serve-wire's 3-caller mix entering at the
  // resolver, at QoS and over the wire. Library telemetry stays off so
  // the latencies compare with the untraced serve-wire run.
  DriveSpec mix = *FindWorkload("serve-wire");
  std::vector<RoundResult> mixes;
  for (const Entry entry : {Entry::kResolver, Entry::kQos, Entry::kWire}) {
    mix.entry = entry;
    StreamRecorder mix_stream(head, mix.callers);
    mixes.push_back(RunRound(mix, input, mix_stream, spans));
    count(mixes.back());
    Fail(report.error, "mix", mixes.back().status);
    Fail(report.error, "mix vs drain-s1",
         CheckSameStream(engine_stream, mix_stream));
  }
  const RoundResult& wire = mixes[2];

  t0 = Stopwatch::Now();
  const CodecTiming codec = TimeWireCodec(engine_stream.head());
  tracer.Record("net.codec", t0, Stopwatch::Now(), tracer.NewId(),
                layers_span);
  Fail(report.error, "wire codec", codec.status);
  tracer.Record("layers", layers_start, Stopwatch::Now(), layers_span, 0);
  report.correct = report.error.empty() && report.attempted > 0;

  // drain-s4 reads its blocking phases per shard (the slowest shard gates
  // set-up); the single-shard workloads read the workflow run above.
  const bool per_shard = spec.shards > 1;
  const double engine_mcmp = Mcmp(engine.comparisons, engine.drain_s);
  const double raw_mcmp = Mcmp(raw.comparisons, raw.drain_s);
  std::vector<double> shard_sizes(s4.init.shard_sizes.begin(),
                                  s4.init.shard_sizes.end());
  std::uint64_t stalls = 0;
  std::uint64_t waits = 0;
  std::vector<double> occupancy;
  std::vector<double> draws;
  for (std::size_t s = 0; s < sharded.shards; ++s) {
    const std::string shard = pipelined + "shard" + std::to_string(s) + ".";
    stalls += CounterValue(registry, shard + "pipeline.producer_stalls");
    waits += CounterValue(registry, shard + "pipeline.consumer_waits");
    if (const sper::obs::Histogram* ring =
            registry.FindHistogram(shard + "pipeline.ring_occupancy")) {
      occupancy.push_back(static_cast<double>(ring->Quantile(0.5)));
    }
    draws.push_back(static_cast<double>(CounterValue(
        registry, pipelined + "merge.shard" + std::to_string(s) + ".draws")));
  }
  std::uint64_t admitted = 0;
  std::uint64_t sheds = 0;
  for (const sper::serving::ClassStats& stats : wire.qos) {
    admitted += stats.admitted;
    sheds += stats.sheds;
  }
  report.metrics = {
      {"blocking.token_blocking_s",
       per_shard ? MaxShardPhase(s4.init, "token_blocking")
                 : timing.token_blocking_seconds,
       "s"},
      {"blocking.purging_s",
       per_shard ? MaxShardPhase(s4.init, "block_purging")
                 : timing.purging_seconds,
       "s"},
      {"blocking.filtering_s",
       per_shard ? MaxShardPhase(s4.init, "block_filtering")
                 : timing.filtering_seconds,
       "s"},
      {"blocking.blocks",
       static_cast<double>(per_shard ? s4.init.num_blocks : num_blocks),
       "count"},
      {"blocking.cardinality",
       static_cast<double>(per_shard ? s4.init.aggregate_cardinality
                                     : cardinality),
       "count"},
      {"blocking.pair_completeness",
       static_cast<double>(reachable) /
           static_cast<double>(input.truth.num_matches()),
       "ratio"},
      {"progressive.init_s",
       per_shard ? MaxShardPhase(s4.init, "method_build") : raw.init_s, "s"},
      {"progressive.refills", static_cast<double>(raw.refill_us.size()),
       "count"},
      {"progressive.cmp_per_refill",
       raw.refill_us.empty() ? 0.0
                             : static_cast<double>(raw.comparisons) /
                                   static_cast<double>(raw.refill_us.size()),
       "count"},
      {"progressive.refill_us_p50", Quantile(raw.refill_us, 0.5), "us"},
      {"progressive.refill_us_p99", Quantile(raw.refill_us, 0.99), "us"},
      {"progressive.mcmp_s", raw_mcmp, "Mcmp/s"},
      {"engine.serve_efficiency", raw_mcmp > 0 ? engine_mcmp / raw_mcmp : 0.0,
       "ratio"},
      {"engine.partition_s", MaxShardPhase(s4.init, "partition"), "s"},
      {"engine.shard_setup_max_s", SlowestShardSetup(s4.init), "s"},
      {"engine.shard_size_skew", MaxOverMean(shard_sizes), "ratio"},
      {"engine.emitted", static_cast<double>(s4.comparisons), "count"},
      {"engine.lat_p50_ms", Quantile(mixes[0].lat_ms, 0.5), "ms"},
      {"engine.lat_p90_ms", Quantile(mixes[0].lat_ms, 0.9), "ms"},
      {"parallel.producer_stalls", static_cast<double>(stalls), "count"},
      {"parallel.consumer_waits", static_cast<double>(waits), "count"},
      {"parallel.ring_occupancy_p50", Median(occupancy), "count"},
      {"parallel.merge_draw_skew", MaxOverMean(draws), "ratio"},
      {"parallel.pipeline_gain",
       s4.drain_s > 0 ? s4_serial.drain_s / s4.drain_s : 0.0, "ratio"},
      {"serving.lat_p50_ms", Quantile(mixes[1].lat_ms, 0.5), "ms"},
      {"serving.lat_p90_ms", Quantile(mixes[1].lat_ms, 0.9), "ms"},
      {"serving.interactive_lat_p90_ms",
       Quantile(wire.class_lat_ms[0], 0.9), "ms"},
      {"serving.batch_lat_p90_ms", Quantile(wire.class_lat_ms[1], 0.9), "ms"},
      {"serving.best_effort_lat_p90_ms", Quantile(wire.class_lat_ms[2], 0.9),
       "ms"},
      {"serving.admitted", static_cast<double>(admitted), "count"},
      {"serving.sheds", static_cast<double>(sheds), "count"},
      {"net.encode_us", codec.encode_us, "us"},
      {"net.decode_us", codec.decode_us, "us"},
      {"net.frame_bytes",
       wire.server.frames_out > 0
           ? static_cast<double>(wire.server.bytes_out) /
                 static_cast<double>(wire.server.frames_out)
           : 0.0,
       "bytes"},
      {"net.errors",
       static_cast<double>(wire.server.read_errors +
                           wire.server.write_errors +
                           wire.server.protocol_errors),
       "count"},
      {"net.lat_p99_ms", Quantile(wire.lat_ms, 0.99), "ms"},
      {"obs.overhead",
       Median(untraced_s) > 0 ? Median(traced_s) / Median(untraced_s) : 0.0,
       "ratio"},
  };
  return report;
}

}  // namespace perfbench
