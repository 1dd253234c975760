#include "io/dataset_io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string_view>
#include <system_error>
#include <vector>

#include "io/csv.h"

namespace sper {

namespace {

/// A profile id field: decimal digits only, below kInvalidProfile.
std::optional<ProfileId> ParseProfileId(std::string_view field) {
  std::uint64_t value = 0;
  const char* end = field.data() + field.size();
  const auto [stop, error] = std::from_chars(field.data(), end, value);
  if (error != std::errc() || stop != end || value >= kInvalidProfile) {
    return std::nullopt;
  }
  return static_cast<ProfileId>(value);
}

/// The IoError for a bad row: what is wrong, where, and the row itself.
Status RowError(const std::string& path, std::size_t row,
                const std::string& what, const std::string& record) {
  return Status::IoError(path + " row " + std::to_string(row) + ": " + what +
                         ": " + record);
}

}  // namespace

Status WriteProfilesCsv(const ProfileStore& store, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "profile,source,attribute,value\n";
  for (const Profile& p : store.profiles()) {
    const char* source = store.InSource1(p.id()) ? "1" : "2";
    for (const Attribute& a : p.attributes()) {
      out << p.id() << ',' << source << ',' << CsvEscape(a.name) << ','
          << CsvEscape(a.value) << '\n';
    }
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<ProfileStore> ReadProfilesCsv(const std::string& path,
                                     ErType er_type) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  std::vector<Profile> source1;
  std::vector<Profile> source2;
  std::string record;
  std::size_t row = 0;
  ProfileId last_profile = kInvalidProfile;
  std::vector<Profile>* current = nullptr;
  // Record-aware reading: a record may span physical lines when a quoted
  // attribute value contains newlines (CsvEscape quotes them on write).
  while (CsvReadRecord(in, &record)) {
    if (++row == 1 || record.empty()) continue;  // header, blank line
    std::vector<std::string> fields = CsvSplit(record);
    if (fields.size() != 4) {
      return RowError(path, row, "expected 4 fields", record);
    }
    const std::optional<ProfileId> id = ParseProfileId(fields[0]);
    if (!id.has_value()) {
      return RowError(path, row, "bad profile id", record);
    }
    if (fields[1] != "1" && fields[1] != "2") {
      return RowError(path, row, "source is neither 1 nor 2", record);
    }
    const bool in_source1 = fields[1] == "1";
    std::vector<Profile>& target =
        (er_type == ErType::kCleanClean && !in_source1) ? source2 : source1;
    if (*id != last_profile || current != &target) {
      target.emplace_back();
      last_profile = *id;
      current = &target;
    }
    target.back().AddAttribute(std::move(fields[2]), std::move(fields[3]));
  }
  if (er_type == ErType::kDirty) {
    return ProfileStore::MakeDirty(std::move(source1));
  }
  return ProfileStore::MakeCleanClean(std::move(source1),
                                      std::move(source2));
}

Status WriteGroundTruthCsv(const GroundTruth& truth,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "profile1,profile2\n";
  // truth.pairs() is a hash set; writing its iteration order would make
  // the file depend on the hash function and insertion history. Sort the
  // canonical pair keys so the same ground truth always serializes to the
  // same bytes.
  std::vector<std::uint64_t> keys(truth.pairs().begin(),
                                  truth.pairs().end());
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t key : keys) {
    out << (key >> 32) << ',' << (key & 0xffffffffu) << '\n';
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<GroundTruth> ReadGroundTruthCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  GroundTruth truth;
  std::string record;
  std::size_t row = 0;
  while (CsvReadRecord(in, &record)) {
    if (++row == 1 || record.empty()) continue;  // header, blank line
    std::vector<std::string> fields = CsvSplit(record);
    if (fields.size() != 2) {
      return RowError(path, row, "expected 2 fields", record);
    }
    const std::optional<ProfileId> a = ParseProfileId(fields[0]);
    const std::optional<ProfileId> b = ParseProfileId(fields[1]);
    if (!a.has_value() || !b.has_value()) {
      return RowError(path, row, "bad profile id", record);
    }
    truth.AddMatch(*a, *b);
  }
  return truth;
}

}  // namespace sper
