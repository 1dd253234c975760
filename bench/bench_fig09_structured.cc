// Figure 9: recall progressiveness of all seven methods over the four
// structured datasets (census, restaurant, cora, cddb), ec* up to 30.
// One table per dataset; columns follow the paper's legend.
//
//   $ ./bench_fig09_structured [--scale=S] [--ecmax=E]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace sper;
  using namespace sper::bench;
  const BenchArgs args = ParseArgs(argc, argv);
  const double ecmax = args.ecmax > 0 ? args.ecmax : 30.0;

  std::printf(
      "Figure 9: recall progressiveness over the structured datasets\n");

  const std::vector<double> grid = {0.5, 1, 2, 3, 5, 7, 10, 15, 20, ecmax};
  for (const std::string& name : StructuredDatasetNames()) {
    DatagenOptions gen;
    gen.scale = args.scale;
    Result<DatasetBundle> dataset = GenerateDataset(name, gen);
    if (!dataset.ok()) {
      std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
      return 1;
    }
    EvalOptions options;
    options.ecstar_max = ecmax;
    options.auc_at = {1.0};
    ProgressiveEvaluator evaluator(dataset.value().truth, options);
    ResolverOptions config = ConfigFor(name);

    std::vector<RunResult> runs;
    for (MethodId id : StructuredMethodSet()) {
      config.method = id;
      runs.push_back(evaluator.Run(
          [&] { return MakeResolver(dataset.value(), config); }));
    }
    PrintRecallTable(name + " (|P|=" + std::to_string(dataset.value().store.size()) +
                         ", |D_P|=" + std::to_string(dataset.value().truth.num_matches()) + ")",
                     grid, runs);
  }

  std::printf(
      "\nExpected shape (paper Sec. 7.1): LS/GS-PSN and PPS lead; PSN is\n"
      "competitive only on census; SA-PSN and SA-PSAB trail everywhere.\n");
  return 0;
}
