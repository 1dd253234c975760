// Unit tests for src/io: CSV escaping/parsing and dataset round trips.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/csv.h"
#include "io/dataset_io.h"

namespace sper {
namespace {

// ------------------------------------------------------------------- CSV

TEST(CsvTest, PlainFieldIsUnquoted) {
  EXPECT_EQ(CsvEscape("hello"), "hello");
}

TEST(CsvTest, CommaAndQuoteAreQuoted) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(CsvTest, JoinAndSplitRoundTrip) {
  const std::vector<std::string> fields = {"plain", "with,comma",
                                           "with \"quote\"", "", "end"};
  EXPECT_EQ(CsvSplit(CsvJoin(fields)), fields);
}

TEST(CsvTest, SplitHandlesEmptyFields) {
  EXPECT_EQ(CsvSplit(",,"), (std::vector<std::string>{"", "", ""}));
}

TEST(CsvTest, SplitHandlesQuotedComma) {
  EXPECT_EQ(CsvSplit("a,\"b,c\",d"),
            (std::vector<std::string>{"a", "b,c", "d"}));
}

// ------------------------------------------------- record-aware reading

std::vector<std::vector<std::string>> ReadAllRecords(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::vector<std::string>> rows;
  std::string record;
  while (CsvReadRecord(in, &record)) rows.push_back(CsvSplit(record));
  return rows;
}

TEST(CsvRecordTest, PlainLinesAreOneRecordEach) {
  const auto rows = ReadAllRecords("a,b\nc,d\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvRecordTest, QuotedNewlineSpansPhysicalLines) {
  const auto rows = ReadAllRecords("a,\"line1\nline2\",z\nnext,row,!\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "line1\nline2", "z"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"next", "row", "!"}));
}

TEST(CsvRecordTest, StripsUnquotedTrailingCarriageReturn) {
  const auto rows = ReadAllRecords("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvRecordTest, UnterminatedQuoteIsToleratedAtEof) {
  const auto rows = ReadAllRecords("a,\"open\nstill open");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "open\nstill open"}));
}

// Property: any vector of fields — commas, quotes, CRs, LFs, empty and
// pathological mixes — survives CsvJoin -> CsvReadRecord -> CsvSplit.
TEST(CsvRecordTest, RoundTripPropertyOverHostileFields) {
  const std::vector<std::vector<std::string>> cases = {
      {"plain", "with,comma", "with \"quote\""},
      {"embedded\nnewline", "x"},
      {"embedded\rcarriage", "y"},
      {"crlf\r\ninside", "z"},
      {"\n", "\r", "\r\n", ""},
      {"multi\nline\nvalue", "\"quoted\"\nand broken", ",\",\n\",\""},
      {"", "", ""},
      {"trailing newline\n"},
      {"\nleading newline"},
      {"quote at end\""},
      {"\"quote at start"},
  };
  for (const std::vector<std::string>& fields : cases) {
    std::string file;
    for (int copies = 0; copies < 2; ++copies) {
      file += CsvJoin(fields);
      file.push_back('\n');
    }
    std::istringstream in(file);
    std::string record;
    for (int copies = 0; copies < 2; ++copies) {
      ASSERT_TRUE(CsvReadRecord(in, &record)) << CsvJoin(fields);
      EXPECT_EQ(CsvSplit(record), fields) << CsvJoin(fields);
    }
    EXPECT_FALSE(CsvReadRecord(in, &record));
  }
}

// ------------------------------------------------------------ Dataset IO

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "sper_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(DatasetIoTest, DirtyProfilesRoundTrip) {
  std::vector<Profile> ps(2);
  ps[0].AddAttribute("name", "carl, the \"tailor\"");
  ps[0].AddAttribute("city", "ny");
  ps[1].AddAttribute("name", "ellen");
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));

  ASSERT_TRUE(WriteProfilesCsv(store, Path("p.csv")).ok());
  Result<ProfileStore> loaded = ReadProfilesCsv(Path("p.csv"), ErType::kDirty);
  ASSERT_TRUE(loaded.ok());
  const ProfileStore& got = loaded.value();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.profile(0).ValueOf("name"), "carl, the \"tailor\"");
  EXPECT_EQ(got.profile(0).ValueOf("city"), "ny");
  EXPECT_EQ(got.profile(1).ValueOf("name"), "ellen");
}

TEST_F(DatasetIoTest, CleanCleanProfilesPreserveSources) {
  std::vector<Profile> s1(1), s2(2);
  s1[0].AddAttribute("a", "x");
  s2[0].AddAttribute("b", "y");
  s2[1].AddAttribute("c", "z");
  ProfileStore store =
      ProfileStore::MakeCleanClean(std::move(s1), std::move(s2));

  ASSERT_TRUE(WriteProfilesCsv(store, Path("cc.csv")).ok());
  Result<ProfileStore> loaded =
      ReadProfilesCsv(Path("cc.csv"), ErType::kCleanClean);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().source1_size(), 1u);
  EXPECT_EQ(loaded.value().source2_size(), 2u);
  EXPECT_EQ(loaded.value().profile(1).ValueOf("b"), "y");
}

TEST_F(DatasetIoTest, ProfilesWithEmbeddedNewlinesRoundTrip) {
  // The former line-based reader could never read these back: CsvEscape
  // quotes newline-bearing values, so one record spans physical lines.
  std::vector<Profile> ps(2);
  ps[0].AddAttribute("bio", "line one\nline two\r\nline three");
  ps[0].AddAttribute("note", "plain");
  ps[1].AddAttribute("bio", "\nstarts and ends with newline\n");
  ProfileStore store = ProfileStore::MakeDirty(std::move(ps));

  ASSERT_TRUE(WriteProfilesCsv(store, Path("nl.csv")).ok());
  Result<ProfileStore> loaded = ReadProfilesCsv(Path("nl.csv"), ErType::kDirty);
  ASSERT_TRUE(loaded.ok());
  const ProfileStore& got = loaded.value();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got.profile(0).ValueOf("bio"), "line one\nline two\r\nline three");
  EXPECT_EQ(got.profile(0).ValueOf("note"), "plain");
  EXPECT_EQ(got.profile(1).ValueOf("bio"), "\nstarts and ends with newline\n");
}

TEST_F(DatasetIoTest, GroundTruthRoundTrip) {
  GroundTruth truth;
  truth.AddMatch(0, 5);
  truth.AddMatch(3, 1);
  ASSERT_TRUE(WriteGroundTruthCsv(truth, Path("gt.csv")).ok());
  Result<GroundTruth> loaded = ReadGroundTruthCsv(Path("gt.csv"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_matches(), 2u);
  EXPECT_TRUE(loaded.value().AreMatching(5, 0));
  EXPECT_TRUE(loaded.value().AreMatching(1, 3));
}

TEST_F(DatasetIoTest, GroundTruthRejectsBadIds) {
  // Each row once loaded as a wrong pair or threw out of the Result API:
  // 4294967297 wrapped to 1, and -1 to 4294967295.
  for (const std::string row :
       {"4294967297,2", "-1,3", "3,-1", "abc,1", "1,", "4294967295,0",
        "12x,1", " 1,2", "+1,2"}) {
    SCOPED_TRACE(row);
    {
      std::ofstream out(Path("gt.csv"));
      out << "profile1,profile2\n0,1\n" << row << "\n";
    }
    Result<GroundTruth> loaded = ReadGroundTruthCsv(Path("gt.csv"));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
    EXPECT_NE(loaded.status().message().find("row 3"), std::string::npos)
        << loaded.status().message();
    EXPECT_NE(loaded.status().message().find(row), std::string::npos);
  }
  // The largest valid id still loads.
  {
    std::ofstream out(Path("gt.csv"));
    out << "profile1,profile2\n4294967294,0\n";
  }
  Result<GroundTruth> loaded = ReadGroundTruthCsv(Path("gt.csv"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().AreMatching(0, 4294967294u));
}

TEST_F(DatasetIoTest, ProfilesRejectBadIdsAndSources) {
  for (ErType er_type : {ErType::kDirty, ErType::kCleanClean}) {
    for (const std::string row :
         {"abc,1,name,x", "-1,1,name,x", "4294967296,1,name,x",
          "4294967295,1,name,x", "1,3,name,x", "1,,name,x", "1,x,name,x",
          "1,1,name"}) {
      SCOPED_TRACE(row);
      {
        std::ofstream out(Path("p.csv"));
        out << "profile,source,attribute,value\n0,1,name,a\n" << row
            << "\n";
      }
      Result<ProfileStore> loaded = ReadProfilesCsv(Path("p.csv"), er_type);
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
      EXPECT_NE(loaded.status().message().find("row 3"), std::string::npos)
          << loaded.status().message();
    }
  }
}

TEST_F(DatasetIoTest, MissingFileYieldsIoError) {
  Result<ProfileStore> r =
      ReadProfilesCsv(Path("does_not_exist.csv"), ErType::kDirty);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  Result<GroundTruth> g = ReadGroundTruthCsv(Path("nope.csv"));
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace sper
