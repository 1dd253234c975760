// Ablation: the Token Blocking Workflow steps (Sec. 7 parameter
// configuration). Block Purging (drop blocks holding >10% of profiles)
// and Block Filtering (keep each profile in its 80% smallest blocks) are
// toggled; the sweep reports the resulting block statistics and PPS's
// early quality.
//
//   $ ./bench_ablation_workflow [--scale=S]

#include "bench_util.h"
#include "progressive/workflow.h"

int main(int argc, char** argv) {
  using namespace sper;
  using namespace sper::bench;
  const BenchArgs args = ParseArgs(argc, argv);

  std::printf("Ablation: Token Blocking Workflow steps (PPS)\n");

  // Two regimes: a word-token dataset where Block Filtering does the work
  // (movies has no block above the 10% purge threshold at this scale) and
  // a URI-heavy dataset where Block Purging is existential — boilerplate
  // tokens (http, rdf, ...) occur in nearly every profile.
  struct Target {
    const char* dataset;
    double scale;
  };
  for (const Target& target :
       {Target{"movies", 0.2}, Target{"freebase", 0.05}}) {
    DatagenOptions gen;
    gen.scale = target.scale * args.scale;
    Result<DatasetBundle> dataset = GenerateDataset(target.dataset, gen);
    if (!dataset.ok()) return 1;

    EvalOptions options;
    options.ecstar_max = 5.0;
    options.auc_at = {1.0, 5.0};
    ProgressiveEvaluator evaluator(dataset.value().truth, options);

    std::printf("\n== %s at %.2f scale ==\n", target.dataset, target.scale);
    TextTable table({"purging", "filtering", "|B|", "||B||", "AUC*@1",
                     "AUC*@5", "recall@5", "init (s)"});
    for (bool purging : {true, false}) {
      for (bool filtering : {true, false}) {
        ResolverOptions config;
        config.method = MethodId::kPps;
        config.workflow.enable_purging = purging;
        config.workflow.enable_filtering = filtering;
        BlockCollection blocks =
            BuildTokenWorkflowBlocks(dataset.value().store, config.workflow);
        RunResult run = evaluator.Run([&] {
          return MakeResolver(dataset.value(), config);
        });
        table.AddRow({purging ? "on" : "off", filtering ? "on" : "off",
                      FormatCount(blocks.size()),
                      FormatCount(blocks.AggregateCardinality()),
                      FormatDouble(run.auc_norm[0], 3),
                      FormatDouble(run.auc_norm[1], 3),
                      FormatDouble(run.final_recall, 3),
                      FormatDouble(run.init_seconds, 2)});
      }
    }
    table.Print();
  }

  std::printf("\nReading: on URI data, purging removes the boilerplate\n"
              "blocks and slashes ||B|| by orders of magnitude at no recall\n"
              "cost; on clean word tokens it may not trigger at all, and\n"
              "filtering does the trimming. Both together are the paper's\n"
              "configuration.\n");
  return 0;
}
