// Ablation: the blocking-graph weighting scheme behind PBS and PPS. The
// paper's workflow fixes ARCS (Sec. 7); this sweep swaps in the other
// meta-blocking schemes (CBS, JS, ECBS, EJS) and reports AUC*@{1,5} on a
// structured and a heterogeneous dataset.
//
//   $ ./bench_ablation_weighting [--scale=S]

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace sper;
  using namespace sper::bench;
  const BenchArgs args = ParseArgs(argc, argv);

  std::printf("Ablation: edge-weighting scheme for the equality-based "
              "methods\n");

  const std::vector<WeightingScheme> schemes = {
      WeightingScheme::kArcs, WeightingScheme::kCbs, WeightingScheme::kJs,
      WeightingScheme::kEcbs, WeightingScheme::kEjs};

  struct Target {
    const char* dataset;
    double scale;
  };
  for (const Target& target : {Target{"cora", 1.0}, Target{"movies", 0.2}}) {
    DatagenOptions gen;
    gen.scale = target.scale * args.scale;
    Result<DatasetBundle> dataset = GenerateDataset(target.dataset, gen);
    if (!dataset.ok()) return 1;
    EvalOptions options;
    options.ecstar_max = 5.0;
    options.auc_at = {1.0, 5.0};
    ProgressiveEvaluator evaluator(dataset.value().truth, options);

    std::printf("\n== %s ==\n", target.dataset);
    TextTable table({"method", "scheme", "AUC*@1", "AUC*@5", "recall@5"});
    for (MethodId id : {MethodId::kPbs, MethodId::kPps}) {
      for (WeightingScheme scheme : schemes) {
        ResolverOptions config = ConfigFor(target.dataset);
        config.method = id;
        config.scheme = scheme;
        RunResult run = evaluator.Run(
            [&] { return MakeResolver(dataset.value(), config); });
        table.AddRow({std::string(ToString(id)), ToString(scheme),
                      FormatDouble(run.auc_norm[0], 3),
                      FormatDouble(run.auc_norm[1], 3),
                      FormatDouble(run.final_recall, 3)});
      }
    }
    table.Print();
  }

  std::printf(
      "\nReading: PBS is insensitive to the scheme — the block schedule\n"
      "dictates the order and every block's comparisons are emitted before\n"
      "the next block; the scheme only permutes pairs inside one block.\n"
      "PPS is sensitive: its duplication likelihood averages the scheme's\n"
      "weights, and the Jaccard-normalized family (JS/ECBS/EJS) proves\n"
      "most robust on these synthetics, with ARCS (the paper's choice)\n"
      "competitive but sensitive to tiny coincidental blocks.\n");
  return 0;
}
