#include "data/csv.h"

#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "la/matrix_ops.h"

namespace vfl::data {
namespace {

/// Writes `content` to a unique temp file and returns its path; removed in
/// the destructor.
class TempFile {
 public:
  explicit TempFile(const std::string& content) {
    static int counter = 0;
    path_ = ::testing::TempDir() + "/vflfia_csv_test_" +
            std::to_string(counter++) + ".csv";
    std::ofstream out(path_);
    out << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(LoadCsvTest, ParsesHeaderAndRows) {
  TempFile file("a,b,label\n0.1,0.2,0\n0.3,0.4,1\n");
  const auto result = LoadCsv(file.path());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_samples(), 2u);
  EXPECT_EQ(result->num_features(), 2u);
  EXPECT_EQ(result->num_classes, 2u);
  EXPECT_EQ(result->feature_names, (std::vector<std::string>{"a", "b"}));
  EXPECT_DOUBLE_EQ(result->x(1, 1), 0.4);
  EXPECT_EQ(result->y, (std::vector<int>{0, 1}));
}

TEST(LoadCsvTest, NoHeaderOption) {
  TempFile file("1,2,0\n3,4,1\n");
  CsvOptions options;
  options.has_header = false;
  const auto result = LoadCsv(file.path(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_samples(), 2u);
  EXPECT_TRUE(result->feature_names.empty());
}

TEST(LoadCsvTest, LabelColumnByIndex) {
  TempFile file("label,a,b\n1,0.5,0.6\n0,0.7,0.8\n");
  CsvOptions options;
  options.label_column = 0;
  const auto result = LoadCsv(file.path(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->y, (std::vector<int>{1, 0}));
  EXPECT_DOUBLE_EQ(result->x(0, 0), 0.5);
  EXPECT_EQ(result->feature_names, (std::vector<std::string>{"a", "b"}));
}

TEST(LoadCsvTest, CompactsNonContiguousLabels) {
  TempFile file("a,label\n1,10\n2,30\n3,10\n4,20\n");
  const auto result = LoadCsv(file.path());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_classes, 3u);
  // Sorted distinct order: 10 -> 0, 20 -> 1, 30 -> 2.
  EXPECT_EQ(result->y, (std::vector<int>{0, 2, 0, 1}));
}

TEST(LoadCsvTest, SkipsBlankLines) {
  TempFile file("a,label\n\n1,0\n\n2,1\n\n");
  const auto result = LoadCsv(file.path());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_samples(), 2u);
}

TEST(LoadCsvTest, MissingFileIsIoError) {
  const auto result = LoadCsv("/nonexistent/path.csv");
  EXPECT_EQ(result.status().code(), core::StatusCode::kIoError);
}

TEST(LoadCsvTest, NonNumericFieldIsError) {
  TempFile file("a,label\nhello,0\n");
  const auto result = LoadCsv(file.path());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("non-numeric"), std::string::npos);
}

/// Loads a CSV whose second data row holds `cell` in its second column and
/// expects a typed rejection that names that row and column.
void ExpectCellRejected(const std::string& cell, const std::string& problem) {
  std::string content = "a,b,label\n0.1,0.2,0\n0.3,";
  content += cell;
  content += ",1\n0.5,0.6,0\n";
  TempFile file(content);
  const auto result = LoadCsv(file.path());
  ASSERT_EQ(result.status().code(), core::StatusCode::kInvalidArgument)
      << "cell '" << cell << "' was accepted";
  const std::string message = result.status().message();
  EXPECT_NE(message.find("row 2, column 2 ('b')"), std::string::npos)
      << message;
  EXPECT_NE(message.find(problem), std::string::npos) << message;
}

TEST(LoadCsvTest, NanCellIsError) {
  ExpectCellRejected("nan", "non-finite value 'nan'");
}

TEST(LoadCsvTest, InfCellIsError) {
  ExpectCellRejected("inf", "non-finite value 'inf'");
}

TEST(LoadCsvTest, NegativeInfCellIsError) {
  ExpectCellRejected("-inf", "non-finite value '-inf'");
}

TEST(LoadCsvTest, OverflowingCellIsError) {
  ExpectCellRejected("1e309", "non-finite value '1e309'");
}

TEST(LoadCsvTest, EmptyCellIsError) { ExpectCellRejected("", "empty cell"); }

TEST(LoadCsvTest, NonFiniteLabelIsError) {
  TempFile file("a,label\n0.1,nan\n");
  const auto result = LoadCsv(file.path());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("row 1, column 2 ('label')"),
            std::string::npos)
      << result.status().message();
}

TEST(LoadCsvTest, RaggedRowIsError) {
  TempFile file("a,b,label\n1,2,0\n1,2\n");
  const auto result = LoadCsv(file.path());
  EXPECT_EQ(result.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("ragged"), std::string::npos);
}

TEST(LoadCsvTest, EmptyFileIsError) {
  TempFile file("");
  EXPECT_FALSE(LoadCsv(file.path()).ok());
}

TEST(LoadCsvTest, HeaderOnlyIsError) {
  TempFile file("a,b,label\n");
  EXPECT_FALSE(LoadCsv(file.path()).ok());
}

TEST(LoadCsvTest, FractionalLabelIsError) {
  TempFile file("a,label\n1,0.5\n");
  EXPECT_EQ(LoadCsv(file.path()).status().code(),
            core::StatusCode::kInvalidArgument);
}

TEST(LoadCsvTest, LabelColumnOutOfRangeIsError) {
  TempFile file("a,label\n1,0\n");
  CsvOptions options;
  options.label_column = 7;
  EXPECT_EQ(LoadCsv(file.path(), options).status().code(),
            core::StatusCode::kOutOfRange);
}

TEST(LoadCsvTest, SingleColumnIsError) {
  TempFile file("label\n0\n1\n");
  EXPECT_FALSE(LoadCsv(file.path()).ok());
}

TEST(SaveCsvTest, RoundTripsThroughLoad) {
  Dataset original;
  original.x = la::Matrix{{0.25, 0.5}, {0.75, 1.0}, {0.1, 0.9}};
  original.y = {0, 1, 2};
  original.num_classes = 3;
  original.feature_names = {"age", "income"};
  original.name = "roundtrip";

  const std::string path = ::testing::TempDir() + "/vflfia_roundtrip.csv";
  ASSERT_TRUE(SaveCsv(original, path).ok());
  const auto loaded = LoadCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_LT(la::MaxAbsDiff(loaded->x, original.x), 1e-12);
  EXPECT_EQ(loaded->y, original.y);
  EXPECT_EQ(loaded->feature_names, original.feature_names);
  EXPECT_EQ(loaded->num_classes, 3u);
}

TEST(SaveCsvTest, InvalidDatasetRejected) {
  Dataset bad;
  bad.x = la::Matrix(2, 2);
  bad.y = {0};  // mismatch
  bad.num_classes = 2;
  EXPECT_FALSE(SaveCsv(bad, ::testing::TempDir() + "/x.csv").ok());
}

TEST(SaveCsvTest, UnwritablePathIsIoError) {
  Dataset d;
  d.x = la::Matrix{{1.0}};
  d.y = {0};
  d.num_classes = 1;
  EXPECT_EQ(SaveCsv(d, "/nonexistent_dir/file.csv").code(),
            core::StatusCode::kIoError);
}

}  // namespace
}  // namespace vfl::data
