// perfbench: the repository's end-to-end benchmark. It generates one
// dbpedia input from --seed, runs one workload on it and prints every
// metric by name with its unit. The last two lines of stdout are the
// provenance and the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the per-layer metrics of the traced run, whose spans go to
// <out>/trace-<workload>-seed<seed>.json. One workload per process, so
// peak_rss_mb is that workload's own (perfbench/run.py runs "all" as one
// process per workload).
//
//   perfbench --workload drain-s1|drain-s4|serve-wire --seed N
//             [--seconds S] [--trace 0|1] [--out DIR] [--revision TEXT]
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// bad arguments or an input that cannot be generated.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

#include "harness.h"
#include "obs/registry.h"
#include "workloads.h"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string out = ".bench_build/perfbench-out";
  std::string revision = "unknown";
};

[[noreturn]] void Usage(const char* argv0, const std::string& problem) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload drain-s1|drain-s4|serve-wire "
               "--seed N [--seconds S] [--trace 0|1] [--out DIR] "
               "[--revision TEXT]\n",
               problem.c_str(), argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const std::size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(argv[0], "missing value for " + flag);
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage(argv[0], "--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--revision") {
      args.revision = value;
    } else {
      Usage(argv[0], "unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage(argv[0], "bad number for " + flag + ": " + value);
    }
  }
  if (!have_seed) Usage(argv[0], "--seed is required");
  if (perfbench::FindWorkload(args.workload) == nullptr) {
    Usage(argv[0], "unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0)) {
    Usage(argv[0], "--seconds must be positive");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const perfbench::DriveSpec& spec = *perfbench::FindWorkload(args.workload);
  if (args.trace) {
    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", args.out.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }
  sper::Result<sper::DatasetBundle> input =
      perfbench::MakeInput(args.seed, perfbench::kInputScale);
  if (!input.ok()) {
    std::fprintf(stderr, "%s\n", input.status().ToString().c_str());
    return 2;
  }

  perfbench::Provenance provenance;
  provenance.workload = std::string(spec.name);
  provenance.seed = args.seed;
  provenance.scale = perfbench::kInputScale;
  provenance.dataset = input.value().name;
  provenance.revision = args.revision;
  provenance.trace = args.trace;

  const perfbench::HostCpu cpu_before = perfbench::ReadHostCpu();
  perfbench::Report report;
  std::string detail;
  if (args.trace) {
    sper::obs::Registry registry;
    report = perfbench::RunTraced(spec, input.value(), args.seconds, registry);
    const std::string trace_path = args.out + "/trace-" +
                                   std::string(spec.name) + "-seed" +
                                   std::to_string(args.seed) + ".json";
    if (!registry.WriteTraceJson(trace_path)) {
      report.correct = false;
      if (report.error.empty()) report.error = "cannot write " + trace_path;
    }
    detail = std::to_string(registry.num_spans()) + " spans in " + trace_path;
  } else {
    perfbench::EndToEndReport run =
        perfbench::RunEndToEnd(spec, input.value(), args.seconds);
    char digest[64];
    std::snprintf(digest, sizeof(digest), "%016llx/%llu",
                  static_cast<unsigned long long>(run.digest.value),
                  static_cast<unsigned long long>(run.digest.count));
    detail = std::to_string(run.round_seconds.size()) +
             " rounds, stream digest " + digest;
    for (const auto& [setup_s, drain_s] : run.round_seconds) {
      detail += "\n  round: set-up " + std::to_string(setup_s) +
                " s, drain " + std::to_string(drain_s) + " s";
    }
    report = std::move(run);
  }
  const perfbench::HostCpu cpu_after = perfbench::ReadHostCpu();
  if (cpu_after.total > cpu_before.total) {
    provenance.host_steal_share =
        static_cast<double>(cpu_after.steal - cpu_before.steal) /
        static_cast<double>(cpu_after.total - cpu_before.total);
  }

  std::printf("%s seed=%llu scale=%g trace=%d: %s, %s\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed),
              perfbench::kInputScale, args.trace ? 1 : 0,
              report.correct ? "correct" : "WRONG", detail.c_str());
  if (!report.error.empty()) {
    std::printf("  error: %s\n", report.error.c_str());
  }
  for (const perfbench::Metric& metric : report.metrics) {
    std::printf("  %-34s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n%s\n", perfbench::ProvenanceJson(provenance).c_str(),
              perfbench::ResultJson(report.correct, report.attempted,
                                    report.failed, report.metrics)
                  .c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
