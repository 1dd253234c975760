// Table 1: space and time complexities — validated empirically. Every
// method's initialization and emission phases are timed on the movies
// generator at growing |P| (x1, x2, x4); the growth ratio between
// successive scales is printed next to the complexity the paper claims.
// Near-linearithmic methods should show ratios a little above 2 when |P|
// doubles.
//
//   $ ./bench_table1_complexity [--scale=S]

#include <memory>

#include "bench_util.h"
#include "obs/clock.h"

namespace {

struct Timing {
  std::size_t profiles = 0;
  double init_seconds = 0.0;
  double emission_us = 0.0;  // mean per emission over the first 20k
};

Timing Measure(const sper::DatasetBundle& dataset,
               const sper::ResolverOptions& config) {
  Timing t;
  t.profiles = dataset.store.size();
  const sper::obs::Stopwatch init;
  std::unique_ptr<sper::ProgressiveEmitter> emitter =
      sper::MakeResolver(dataset, config);
  t.init_seconds = init.ElapsedSeconds();

  std::size_t emissions = 0;
  const sper::obs::Stopwatch emission;
  while (emissions < 20000 && emitter->Next().has_value()) ++emissions;
  const double emission_seconds = emission.ElapsedSeconds();
  t.emission_us = emissions > 0 ? 1e6 * emission_seconds /
                                      static_cast<double>(emissions)
                                : 0.0;
  return t;
}

const char* PaperComplexity(sper::MethodId id) {
  switch (id) {
    case sper::MethodId::kSaPsn:
      return "init O(n log n), emit O(1)";
    case sper::MethodId::kSaPsab:
      return "init O(s log s), emit O(1)";
    case sper::MethodId::kLsPsn:
      return "init O(n log n), emit O(1) or O(n)";
    case sper::MethodId::kGsPsn:
      return "init O(n log n), emit O(1)";
    case sper::MethodId::kPbs:
      return "init O(|B| log |B|), emit O(1) or O(b log b)";
    case sper::MethodId::kPps:
      return "init O(|V|+|E|), emit O(1) or O(nbhd)";
    default:
      return "";
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sper;
  using namespace sper::bench;
  const BenchArgs args = ParseArgs(argc, argv);

  std::printf("Table 1 (empirical): init/emission scaling on movies at "
              "|P| x1, x2, x4\n(base scale %.2f of the 28k-23k dataset)\n",
              0.25 * args.scale);

  const std::vector<double> scales = {0.25, 0.5, 1.0};
  std::vector<DatasetBundle> datasets;
  for (double s : scales) {
    DatagenOptions gen;
    gen.scale = s * 0.25 * args.scale;
    Result<DatasetBundle> dataset = GenerateDataset("movies", gen);
    if (!dataset.ok()) return 1;
    datasets.push_back(std::move(dataset).value());
  }

  TextTable table({"method", "|P|", "init (s)", "emit (us)",
                   "init growth", "paper claim"});
  for (MethodId id : HeterogeneousMethodSet()) {
    ResolverOptions config;
    config.method = id;
    config.gs_wmax = 20;  // keep GS-PSN memory flat across scales
    double previous_init = 0.0;
    for (std::size_t k = 0; k < datasets.size(); ++k) {
      const Timing t = Measure(datasets[k], config);
      std::string growth =
          k == 0 || previous_init <= 0
              ? "-"
              : "x" + FormatDouble(t.init_seconds / previous_init, 2);
      table.AddRow({k == 0 ? std::string(ToString(id)) : std::string(),
                    FormatCount(t.profiles),
                    FormatDouble(t.init_seconds, 3),
                    FormatDouble(t.emission_us, 2), growth,
                    k == 0 ? PaperComplexity(id) : ""});
      previous_init = t.init_seconds;
    }
  }
  table.Print();

  std::printf(
      "\nReading: |P| doubles per row, so near-linear methods show init\n"
      "growth ~x2 and the emission cost stays flat — Table 1's claims.\n");
  return 0;
}
