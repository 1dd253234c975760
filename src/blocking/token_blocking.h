#ifndef SPER_BLOCKING_TOKEN_BLOCKING_H_
#define SPER_BLOCKING_TOKEN_BLOCKING_H_

#include <cstddef>

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
/// ascending. The profiles are split into `num_threads` static chunks,
/// each interning its tokens into a table of its own on its own thread;
/// the tables merge in chunk order, so every token keeps the dense id of
/// its first occurrence in the whole store, and the postings are scattered
/// per chunk. The key sort and the block assembly run on the threads too.
/// The result depends only on the store and the tokenizer options, never
/// on `num_threads`.
BlockCollection TokenBlocking(const ProfileStore& store,
                              const TokenBlockingOptions& options = {},
                              std::size_t num_threads = 1);

}  // namespace sper

#endif  // SPER_BLOCKING_TOKEN_BLOCKING_H_
