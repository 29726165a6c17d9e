// Tests for the ASCII chart renderer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/ascii_chart.h"

namespace pivotscale {
namespace {

// ---------------------------------------------------------------- charts

TEST(AsciiChart, RendersAllSeriesAndLabels) {
  const std::vector<std::string> xs = {"6", "8", "10"};
  const std::vector<ChartSeries> series = {
      {"alpha", {1.0, 2.0, 3.0}},
      {"beta", {3.0, 2.0, 1.0}},
  };
  const std::string chart = RenderChart(xs, series);
  EXPECT_NE(chart.find("alpha"), std::string::npos);
  EXPECT_NE(chart.find("beta"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find("10"), std::string::npos);
}

TEST(AsciiChart, LogScaleHandlesWideRange) {
  ChartOptions options;
  options.log_y = true;
  const std::string chart = RenderChart(
      {"a", "b"}, {{"s", {0.001, 1000.0}}}, options);
  EXPECT_FALSE(chart.empty());
  // Extremes land on the top and bottom plot rows.
  const std::size_t first_line = chart.find('\n');
  EXPECT_NE(chart.substr(0, first_line).find('*'), std::string::npos);
}

TEST(AsciiChart, EmptyInputsAreEmpty) {
  EXPECT_TRUE(RenderChart({}, {{"s", {}}}).empty());
  EXPECT_TRUE(RenderChart({"a"}, {}).empty());
}

}  // namespace
}  // namespace pivotscale
