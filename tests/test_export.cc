#include "stats/export.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace muzha {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Export, CsvHeaderAndRows) {
  std::vector<NamedSeries> data;
  data.push_back({"a", {{Seconds(0.0), 1.0}, {Seconds(1.0), 2.0}}});
  data.push_back({"b", {{Seconds(0.5), 10.0}}});
  std::string path = "/tmp/muzha_test_export.csv";
  ASSERT_TRUE(write_csv(path, data));
  std::string text = slurp(path);
  EXPECT_NE(text.find("t,a,b"), std::string::npos);
  // Union of times: 0, 0.5, 1 -> three data rows.
  int newlines = 0;
  for (char c : text) {
    if (c == '\n') ++newlines;
  }
  EXPECT_EQ(newlines, 4);  // header + 3 rows
  // Step semantics: at t=0.5, series a still holds its t=0 value.
  EXPECT_NE(text.find("0.500000,1.000000,10.000000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Export, CsvEmptySeries) {
  std::string path = "/tmp/muzha_test_export_empty.csv";
  ASSERT_TRUE(write_csv(path, {}));
  EXPECT_EQ(slurp(path), "t\n");
  std::remove(path.c_str());
}

TEST(Export, CsvFailsOnBadPath) {
  EXPECT_FALSE(write_csv("/nonexistent-dir/x.csv", {}));
}

// A file that opens but cannot take the bytes (a full disk) is an I/O
// failure too, reported by the stream's error flag or by fclose.
TEST(Export, WriteErrorsReturnFalse) {
  const char* full = "/dev/full";
  std::FILE* probe = std::fopen(full, "w");
  if (probe == nullptr) GTEST_SKIP() << full << " is not available";
  std::fclose(probe);
  std::vector<NamedSeries> data;
  data.push_back({"a", {{Seconds(0.0), 1.0}, {Seconds(1.0), 2.0}}});
  EXPECT_FALSE(write_csv(full, data));
  EXPECT_FALSE(write_gnuplot_script(full, "data.csv", "Title", data));
}

TEST(Export, GnuplotScriptReferencesEveryColumn) {
  std::vector<NamedSeries> data;
  data.push_back({"flow1", {{Seconds(0.0), 1.0}}});
  data.push_back({"flow2", {{Seconds(0.0), 2.0}}});
  std::string path = "/tmp/muzha_test_export.gp";
  ASSERT_TRUE(write_gnuplot_script(path, "data.csv", "Title", data, "kbps"));
  std::string text = slurp(path);
  EXPECT_NE(text.find("using 1:2"), std::string::npos);
  EXPECT_NE(text.find("using 1:3"), std::string::npos);
  EXPECT_NE(text.find("set title 'Title'"), std::string::npos);
  EXPECT_NE(text.find("set ylabel 'kbps'"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace muzha
