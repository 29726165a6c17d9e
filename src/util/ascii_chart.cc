#include "util/ascii_chart.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pivotscale {

namespace {
constexpr char kGlyphs[] = {'*', 'o', '+', 'x', '#', '@', '%', '&'};
constexpr int kNumGlyphs = 8;
}  // namespace

std::string RenderChart(const std::vector<std::string>& x_labels,
                        const std::vector<ChartSeries>& series,
                        const ChartOptions& options) {
  if (x_labels.empty() || series.empty()) return "";

  // Transform and range the data.
  auto transform = [&](double v) {
    if (!options.log_y) return v;
    return std::log10(std::max(v, 1e-12));
  };
  double lo = 1e300, hi = -1e300;
  for (const ChartSeries& s : series)
    for (double v : s.values) {
      const double t = transform(v);
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
  if (hi <= lo) hi = lo + 1;

  const int height = std::max(3, options.height);
  const int cols = static_cast<int>(x_labels.size());
  const int col_width =
      std::max(1, options.width / std::max(1, cols));
  const int width = col_width * cols;

  std::vector<std::string> canvas(
      height, std::string(static_cast<std::size_t>(width), ' '));
  for (std::size_t si = 0; si < series.size(); ++si) {
    const char glyph = kGlyphs[si % kNumGlyphs];
    const auto& values = series[si].values;
    for (int c = 0; c < cols && c < static_cast<int>(values.size()); ++c) {
      const double t = transform(values[c]);
      int row = static_cast<int>(
          std::lround((t - lo) / (hi - lo) * (height - 1)));
      row = std::clamp(row, 0, height - 1);
      const int x = c * col_width + col_width / 2;
      canvas[height - 1 - row][x] = glyph;
    }
  }

  std::ostringstream out;
  char ybuf[32];
  for (int r = 0; r < height; ++r) {
    const double level = hi - (hi - lo) * r / (height - 1);
    const double display = options.log_y ? std::pow(10.0, level) : level;
    std::snprintf(ybuf, sizeof(ybuf), "%9.3g |", display);
    out << ybuf << canvas[r] << "\n";
  }
  out << std::string(11, ' ') << std::string(width, '-') << "\n";
  // X labels, centered per column (truncated to fit).
  out << std::string(11, ' ');
  for (int c = 0; c < cols; ++c) {
    std::string label = x_labels[c];
    if (static_cast<int>(label.size()) > col_width - 1)
      label.resize(std::max(1, col_width - 1));
    const int pad = col_width - static_cast<int>(label.size());
    out << std::string(pad / 2, ' ') << label
        << std::string(pad - pad / 2, ' ');
  }
  out << "\n";
  // Legend.
  out << std::string(11, ' ');
  for (std::size_t si = 0; si < series.size(); ++si)
    out << kGlyphs[si % kNumGlyphs] << "=" << series[si].name << "  ";
  if (!options.y_label.empty()) out << "(y: " << options.y_label << ")";
  out << "\n";
  return out.str();
}

}  // namespace pivotscale
