// ASCII chart rendering for the bench harness.
//
// The paper's figures are log-scale line/bar charts; the bench binaries
// print the underlying rows, and these helpers additionally render them as
// terminal charts so a figure's *shape* (crossovers, plateaus, explosions)
// is visible at a glance in the captured bench output.
#ifndef PIVOTSCALE_UTIL_ASCII_CHART_H_
#define PIVOTSCALE_UTIL_ASCII_CHART_H_

#include <string>
#include <vector>

namespace pivotscale {

// One named series of y-values over a shared x-axis.
struct ChartSeries {
  std::string name;
  std::vector<double> values;  // aligned with the x labels
};

struct ChartOptions {
  int width = 60;      // plot columns
  int height = 12;     // plot rows
  bool log_y = false;  // log10 y-axis (values <= 0 are clamped)
  std::string y_label;
};

// Renders a multi-series chart; each series gets a distinct glyph. The
// x-axis is categorical (one column block per label). Returns the chart as
// a string ending in '\n'.
std::string RenderChart(const std::vector<std::string>& x_labels,
                        const std::vector<ChartSeries>& series,
                        const ChartOptions& options = {});

}  // namespace pivotscale

#endif  // PIVOTSCALE_UTIL_ASCII_CHART_H_
