#ifndef SPER_ENGINE_METHOD_H_
#define SPER_ENGINE_METHOD_H_

#include <optional>
#include <string_view>

/// \file method.h
/// Identifiers of the paper's seven progressive methods. A method is
/// chosen in one place, ResolverOptions::method (engine/resolver.h),
/// which both engines and the eval harness's MakeResolver read;
/// eval/experiment.h re-exports this header.

namespace sper {

/// The seven methods of the evaluation (Figs. 9-13).
enum class MethodId {
  kPsn,     // schema-based baseline
  kSaPsn,   // naïve, similarity
  kSaPsab,  // naïve, equality/hierarchy
  kLsPsn,   // advanced, similarity (local)
  kGsPsn,   // advanced, similarity (global)
  kPbs,     // advanced, equality (block-centric)
  kPps,     // advanced, equality (profile-centric)
};

/// Method acronym as printed in the paper.
std::string_view ToString(MethodId id);

/// True for the Comparison-List methods (PBS, PPS), whose emitters expose
/// the refill-batch boundary (BatchSource) the emission pipeline needs.
/// ResolverOptions::lookahead has no effect on the other methods.
bool MethodHasBatchRefills(MethodId id);

/// Inverse of ToString ("PPS", "SA-PSN", ...); nullopt for unknown names.
std::optional<MethodId> ParseMethodId(std::string_view name);

}  // namespace sper

#endif  // SPER_ENGINE_METHOD_H_
