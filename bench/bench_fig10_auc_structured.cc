// Figure 10: mean normalized area under the recall curve (AUC*_m) at
// ec* = 1, 5, 10, 20 across the four structured datasets — the bar chart
// as a table, plus the per-dataset breakdown.
//
//   $ ./bench_fig10_auc_structured [--scale=S]

#include <map>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace sper;
  using namespace sper::bench;
  const BenchArgs args = ParseArgs(argc, argv);

  std::printf("Figure 10: mean AUC*_m over the structured datasets\n");

  const std::vector<double> auc_at = {1.0, 5.0, 10.0, 20.0};
  std::map<MethodId, std::vector<RunResult>> per_method;

  for (const std::string& name : StructuredDatasetNames()) {
    DatagenOptions gen;
    gen.scale = args.scale;
    Result<DatasetBundle> dataset = GenerateDataset(name, gen);
    if (!dataset.ok()) {
      std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
      return 1;
    }
    EvalOptions options;
    options.ecstar_max = 20.0;
    options.auc_at = auc_at;
    ProgressiveEvaluator evaluator(dataset.value().truth, options);
    ResolverOptions config = ConfigFor(name);

    std::vector<RunResult> runs;
    for (MethodId id : StructuredMethodSet()) {
      config.method = id;
      RunResult run = evaluator.Run(
          [&] { return MakeResolver(dataset.value(), config); });
      per_method[id].push_back(run);
      runs.push_back(std::move(run));
    }
    PrintAucTable(name, auc_at, runs);
  }

  // The figure itself: the mean across datasets.
  std::printf("\n== mean AUC*_m across all structured datasets ==\n");
  std::vector<std::string> headers = {"method"};
  for (double at : auc_at) headers.push_back("AUC*@" + FormatDouble(at, 0));
  TextTable table(headers);
  for (MethodId id : StructuredMethodSet()) {
    std::vector<std::string> row = {std::string(ToString(id))};
    for (double mean : MeanAucAcrossRuns(per_method[id])) {
      row.push_back(FormatDouble(mean, 3));
    }
    table.AddRow(std::move(row));
  }
  table.Print();

  std::printf(
      "\nExpected shape (paper Fig. 10): LS-PSN and GS-PSN on top — their\n"
      "AUC*@1 is ~3x PSN's and PBS's and ~18%% above PPS's.\n");
  return 0;
}
