#ifndef SPER_BLOCKING_TOKEN_BLOCKING_H_
#define SPER_BLOCKING_TOKEN_BLOCKING_H_

#include "blocking/block_collection.h"
#include "core/profile_store.h"
#include "core/tokenizer.h"

/// \file token_blocking.h
/// Schema-agnostic Standard Blocking, a.k.a. Token Blocking [18]:
/// one block per attribute-value token that appears in at least two
/// profiles (workflow step 1 in paper Sec. 7). The resulting blocks are
/// redundancy-positive: the more blocks two profiles share, the more
/// likely they match (the equality principle).

namespace sper {

/// Options for Token Blocking.
struct TokenBlockingOptions {
  /// How attribute values are split into tokens.
  TokenizerOptions tokenizer;
};

/// Builds the Token Blocking collection of a store. A token produces a
/// block iff the block would yield at least one valid comparison (>= 2
/// profiles for Dirty ER; >= 1 profile per source for Clean-Clean ER).
/// Blocks are ordered by key; profiles inside a block are sorted
/// ascending. One sequential pass interns every token into a dense id in
/// order of first occurrence, so the result depends only on the store and
/// the tokenizer options.
BlockCollection TokenBlocking(const ProfileStore& store,
                              const TokenBlockingOptions& options = {});

}  // namespace sper

#endif  // SPER_BLOCKING_TOKEN_BLOCKING_H_
