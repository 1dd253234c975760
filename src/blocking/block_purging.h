#ifndef SPER_BLOCKING_BLOCK_PURGING_H_
#define SPER_BLOCKING_BLOCK_PURGING_H_

#include "blocking/block_collection.h"

/// \file block_purging.h
/// Block Purging [12] (workflow step 2): discards oversized blocks that
/// correspond to stop words. The paper's configuration drops every block
/// containing more than 10% of the input profiles.

namespace sper {

/// Options for Block Purging.
struct BlockPurgingOptions {
  /// A block is purged when |b| > max_size_ratio * |P|.
  double max_size_ratio = 0.1;
};

/// Returns a new collection without the purged blocks. `num_profiles` is
/// |P| (total across both sources for Clean-Clean ER). Relative block
/// order is preserved. Sequential: the decision reads only the |B| block
/// sizes, too little work to pay for starting threads.
BlockCollection BlockPurging(const BlockCollection& input,
                             std::size_t num_profiles,
                             const BlockPurgingOptions& options = {});

}  // namespace sper

#endif  // SPER_BLOCKING_BLOCK_PURGING_H_
