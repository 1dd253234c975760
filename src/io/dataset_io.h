#ifndef SPER_IO_DATASET_IO_H_
#define SPER_IO_DATASET_IO_H_

#include <string>

#include "core/ground_truth.h"
#include "core/profile_store.h"
#include "core/status.h"

/// \file dataset_io.h
/// Long-format CSV serialization of ER tasks, so generated datasets can be
/// exported, inspected and re-loaded:
///
///   profiles CSV:     profile,source,attribute,value   (header included)
///   ground-truth CSV: profile1,profile2                (header included)
///
/// `source` is 1 or 2 (always 1 for Dirty ER). Profile ids must be dense
/// and source-contiguous, as produced by ProfileStore. The readers return
/// an IoError naming the row for a row with the wrong field count, an id
/// that is not a plain decimal below kInvalidProfile, or (profiles) a
/// source other than 1 or 2.

namespace sper {

/// Writes all profiles of the store.
Status WriteProfilesCsv(const ProfileStore& store, const std::string& path);

/// Reads profiles back. `er_type` selects how the `source` column is
/// interpreted (Dirty ER ignores it).
Result<ProfileStore> ReadProfilesCsv(const std::string& path, ErType er_type);

/// Writes the ground-truth pairs.
Status WriteGroundTruthCsv(const GroundTruth& truth, const std::string& path);

/// Reads ground-truth pairs back.
Result<GroundTruth> ReadGroundTruthCsv(const std::string& path);

}  // namespace sper

#endif  // SPER_IO_DATASET_IO_H_
