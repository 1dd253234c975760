#ifndef SPER_CORE_COMPARISON_H_
#define SPER_CORE_COMPARISON_H_

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "core/macros.h"
#include "core/types.h"

/// \file comparison.h
/// The unit of progressive emission: one candidate profile pair with its
/// estimated matching likelihood.

namespace sper {

/// A candidate comparison c_ij with its matching-likelihood weight.
/// The pair is stored canonically with i < j.
struct Comparison {
  ProfileId i = kInvalidProfile;
  ProfileId j = kInvalidProfile;
  double weight = 0.0;

  Comparison() = default;
  /// Builds the canonical (min, max) representation of the pair {a, b}.
  Comparison(ProfileId a, ProfileId b, double w)
      : i(a < b ? a : b), j(a < b ? b : a), weight(w) {}

  bool SamePair(const Comparison& other) const {
    return i == other.i && j == other.j;
  }
};

/// 64-bit canonical key of an unordered profile pair; usable as a hash-set
/// element for O(1) duplicate detection and ground-truth lookup.
inline std::uint64_t PairKey(ProfileId a, ProfileId b) {
  const ProfileId lo = a < b ? a : b;
  const ProfileId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

/// Strict weak order: descending weight, ties broken by ascending (i, j) so
/// that every sort in the library is deterministic.
struct ByWeightDesc {
  bool operator()(const Comparison& a, const Comparison& b) const {
    if (a.weight != b.weight) return a.weight > b.weight;
    return std::tie(a.i, a.j) < std::tie(b.i, b.j);
  }
};

/// The reverse of ByWeightDesc: the order in which a bounded min-heap
/// (the seed's SortedStack) drains.
struct ByWeightAsc {
  bool operator()(const Comparison& a, const Comparison& b) const {
    if (a.weight != b.weight) return a.weight < b.weight;
    return std::tie(a.i, a.j) > std::tie(b.i, b.j);
  }
};

/// ByWeightDesc as one two-word unsigned integer, so a selection compares
/// integers instead of a double and then two ids:
/// ByWeightDesc()(a, b) <=> Of(a) > Of(b), and Decode() gives back the
/// encoded Comparison bit for bit.
///
/// Domain: weights as EdgeWeighter::Finalize returns them — finite, at
/// least +0.0, never -0.0 and never NaN. Over that domain a weight's IEEE
/// bits, read as an unsigned integer, order exactly as the doubles do
/// (-0.0 would rank below +0.0 although the two compare equal, and NaN
/// has no order at all).
struct ComparisonKey {
  std::uint64_t hi = 0;  ///< the weight's IEEE bits
  std::uint64_t lo = 0;  ///< ~((i << 32) | j): smaller ids rank higher

  static ComparisonKey Of(const Comparison& c) {
    SPER_DCHECK(std::isfinite(c.weight) && !std::signbit(c.weight));
    return {std::bit_cast<std::uint64_t>(c.weight),
            ~((static_cast<std::uint64_t>(c.i) << 32) | c.j)};
  }

  Comparison Decode() const {
    Comparison c;
    c.i = static_cast<ProfileId>(~lo >> 32);
    c.j = static_cast<ProfileId>(~lo);
    c.weight = std::bit_cast<double>(hi);
    return c;
  }

  /// Branch-free: a selection's comparisons are data-dependent coin flips.
  friend bool operator<(const ComparisonKey& a, const ComparisonKey& b) {
    return (a.hi < b.hi) | ((a.hi == b.hi) & (a.lo < b.lo));
  }
  friend bool operator>(const ComparisonKey& a, const ComparisonKey& b) {
    return b < a;
  }
};

}  // namespace sper

#endif  // SPER_CORE_COMPARISON_H_
