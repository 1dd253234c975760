#ifndef SPER_BENCH_BENCH_UTIL_H_
#define SPER_BENCH_BENCH_UTIL_H_

// Shared plumbing for the paper-reproduction bench binaries: light CLI
// parsing (--scale / --ecmax), per-dataset method configuration (the
// paper's Sec. 7 parameter choices), recall-curve table printing.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datagen/datagen.h"
#include "engine/resolver.h"
#include "eval/evaluator.h"
#include "eval/experiment.h"
#include "eval/table.h"

namespace sper {
namespace bench {

/// Command-line knobs shared by the bench binaries.
struct BenchArgs {
  /// Multiplies dataset sizes (1.0 = the scale documented in DESIGN.md).
  double scale = 1.0;
  /// Overrides the run's ec* cap when > 0.
  double ecmax = 0.0;
};

inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      args.scale = std::atof(argv[i] + 8);
    } else if (std::strncmp(argv[i], "--ecmax=", 8) == 0) {
      args.ecmax = std::atof(argv[i] + 8);
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: %s [--scale=S] [--ecmax=E]\n", argv[0]);
      std::exit(0);
    }
  }
  return args;
}

/// Nearest-rank percentile (q in [0, 1]) of the serving benches'
/// latency samples; 0 when there are none.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(samples.size() - 1) + 0.5);
  return samples[std::min(rank, samples.size() - 1)];
}

/// Resolver::Create for bench binaries: prints the error Status and
/// exits non-zero instead of returning it.
inline std::unique_ptr<Resolver> CreateResolverOrDie(
    const ProfileStore& store, const ResolverOptions& options) {
  Result<std::unique_ptr<Resolver>> resolver =
      Resolver::Create(store, options);
  if (!resolver.ok()) {
    std::fprintf(stderr, "%s\n", resolver.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(resolver).value();
}

/// One machine-readable measurement of a bench run. Serialized by
/// WriteJsonRecords; the schema is documented in bench/BENCH.md.
struct JsonRecord {
  std::string dataset;
  double scale = 1.0;
  std::size_t threads = 1;
  /// Which measured code path the record belongs to (e.g. "qos_shed").
  std::string path;
  double wall_ms = 0.0;
  /// Speedup relative to the record's documented baseline (1.0 for the
  /// baseline rows themselves).
  double speedup = 1.0;
  /// Hash shards of a ShardedEngine run; 1 for unsharded paths.
  std::size_t shards = 1;
  /// Emission pipeline lookahead of the run; 0 for serial-emission paths.
  std::size_t lookahead = 0;
  /// Request size of a drain served in Resolver::Serve slices.
  std::size_t batch_size = 0;
  /// Additional numeric fields serialized verbatim into the record
  /// (e.g. "slice_p99_ms", "digest_match"). Names must be stable per
  /// path — BENCH.md documents them.
  std::vector<std::pair<std::string, double>> extras;
};

/// Escapes a string for embedding inside a JSON string literal: quotes,
/// backslashes and control characters (dataset or path names must never
/// be printf'd raw into the `"..."` fields).
inline std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Writes the records as a JSON array of flat objects, one per line.
/// Returns false (and prints to stderr) when the file cannot be opened.
inline bool WriteJsonRecords(const std::string& file,
                             const std::vector<JsonRecord>& records) {
  std::FILE* out = std::fopen(file.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", file.c_str());
    return false;
  }
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    std::fprintf(out,
                 "  {\"dataset\": \"%s\", \"scale\": %g, \"threads\": %zu, "
                 "\"shards\": %zu, \"lookahead\": %zu, \"batch_size\": %zu, "
                 "\"path\": \"%s\", "
                 "\"wall_ms\": %.3f, \"speedup\": %.3f",
                 JsonEscape(r.dataset).c_str(), r.scale, r.threads, r.shards,
                 r.lookahead, r.batch_size, JsonEscape(r.path).c_str(),
                 r.wall_ms, r.speedup);
    for (const auto& [name, value] : r.extras) {
      std::fprintf(out, ", \"%s\": %.6g", JsonEscape(name).c_str(), value);
    }
    std::fprintf(out, "}%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
  std::printf("wrote %zu records to %s\n", records.size(), file.c_str());
  return true;
}

/// The paper's GS-PSN window ranges: 20 for structured datasets, 200 for
/// the large heterogeneous ones — except that the two web-scale datasets
/// get smaller ranges, mirroring the paper's own memory cap on freebase
/// (Sec. 7.2; see DESIGN.md §4).
inline ResolverOptions ConfigFor(const std::string& dataset) {
  ResolverOptions config;
  if (dataset == "movies") {
    config.gs_wmax = 200;
  } else if (dataset == "dbpedia") {
    config.gs_wmax = 50;
  } else if (dataset == "freebase") {
    config.gs_wmax = 20;
  } else {
    config.gs_wmax = 20;  // structured datasets
  }
  return config;
}

/// Recall of a finished run at a given ec* (the curve is sampled densely
/// and recall is monotone, so the last sample at or before the target is
/// exact up to sampling resolution).
inline double RecallAt(const RunResult& result, double ecstar) {
  double recall = 0.0;
  for (const CurvePoint& point : result.curve) {
    if (point.ecstar <= ecstar + 1e-9) {
      recall = point.recall;
    } else {
      break;
    }
  }
  return recall;
}

/// Prints one "recall progressiveness" table: rows = ec* grid, one column
/// per finished run (the shape of one panel of Figs. 1/9/11).
inline void PrintRecallTable(const std::string& title,
                             const std::vector<double>& grid,
                             const std::vector<RunResult>& runs) {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::string> headers = {"ec*"};
  for (const RunResult& run : runs) headers.push_back(run.method);
  TextTable table(headers);
  for (double ecstar : grid) {
    std::vector<std::string> row = {FormatDouble(ecstar, 1)};
    for (const RunResult& run : runs) {
      row.push_back(FormatDouble(RecallAt(run, ecstar), 3));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

/// Prints the normalized-AUC table of one dataset (one group of bars of
/// Figs. 10/12).
inline void PrintAucTable(const std::string& title,
                          const std::vector<double>& auc_at,
                          const std::vector<RunResult>& runs) {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::string> headers = {"method"};
  for (double at : auc_at) {
    headers.push_back("AUC*@" + FormatDouble(at, 0));
  }
  TextTable table(headers);
  for (const RunResult& run : runs) {
    std::vector<std::string> row = {run.method};
    for (double auc : run.auc_norm) row.push_back(FormatDouble(auc, 3));
    table.AddRow(std::move(row));
  }
  table.Print();
}

}  // namespace bench
}  // namespace sper

#endif  // SPER_BENCH_BENCH_UTIL_H_
