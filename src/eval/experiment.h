#ifndef SPER_EVAL_EXPERIMENT_H_
#define SPER_EVAL_EXPERIMENT_H_

#include <memory>
#include <vector>

#include "datagen/dataset.h"
#include "engine/method.h"
#include "engine/resolver.h"

/// \file experiment.h
/// Method registry for the benchmark harness: builds any of the paper's
/// seven progressive methods against a DatasetBundle through the unified
/// Resolver serving API (engine/resolver.h); ResolverOptions' defaults
/// are the paper's settings (Sec. 7 "Parameter configuration"). MethodId
/// itself lives in engine/method.h.

namespace sper {

/// Builds `options.method` on the dataset via Resolver::Create, adding
/// the one thing the dataset supplies: the PSN schema key. The
/// construction cost is the method's full initialization phase, including
/// blocking for the equality-based methods. Returns nullptr for PSN on
/// datasets without a literature blocking key (the heterogeneous ones);
/// options that fail ResolverOptions::Validate() abort with the Create()
/// error printed — callers validate user input first.
std::unique_ptr<Resolver> MakeResolver(const DatasetBundle& dataset,
                                       ResolverOptions options);

/// The methods compared on structured datasets (Figs. 9-10), paper order.
const std::vector<MethodId>& StructuredMethodSet();
/// The schema-agnostic methods compared on heterogeneous datasets
/// (Figs. 11-12).
const std::vector<MethodId>& HeterogeneousMethodSet();

}  // namespace sper

#endif  // SPER_EVAL_EXPERIMENT_H_
