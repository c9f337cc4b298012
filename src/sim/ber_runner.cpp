#include "sim/ber_runner.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/table.hpp"

namespace cldpc::sim {

std::string RenderCurves(const std::vector<BerCurve>& curves) {
  CLDPC_EXPECTS(!curves.empty(), "no curves to render");
  std::vector<std::string> headers = {"Eb/N0 (dB)"};
  for (const auto& c : curves) {
    headers.push_back(c.decoder_name + " BER");
    headers.push_back(c.decoder_name + " PER");
    // Curves measured with a frame check (CRC) carry the receiver's
    // undetected-error rate next to the raw PER.
    if (c.has_frame_check) headers.push_back(c.decoder_name + " UER");
    headers.push_back(c.decoder_name + " frames");
  }
  TablePrinter table(std::move(headers));

  // Rows are the sorted union of every curve's sweep points, so
  // curves with different point counts (or even different grids)
  // still line up; a curve without a given point renders as "-".
  // Points are matched by their rendered label, not by exact double
  // equality: 3.8 from --snrs and 3.4 + 2*0.2 from a computed sweep
  // must share a row even though the doubles differ in the last ulp.
  const auto label = [](double ebn0) { return FormatDouble(ebn0, 2); };
  std::vector<double> grid;
  for (const auto& c : curves) {
    for (const auto& p : c.points) grid.push_back(p.ebn0_db);
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end(),
                         [&label](double a, double b) {
                           return label(a) == label(b);
                         }),
             grid.end());

  for (const double ebn0 : grid) {
    std::vector<std::string> row = {label(ebn0)};
    for (const auto& c : curves) {
      const auto it = std::find_if(
          c.points.begin(), c.points.end(), [&](const BerPoint& p) {
            return label(p.ebn0_db) == label(ebn0);
          });
      if (it == c.points.end()) {
        row.insert(row.end(), c.has_frame_check ? 4 : 3, "-");
      } else {
        row.push_back(FormatScientific(it->bit_errors.Rate(), 2));
        row.push_back(FormatScientific(it->frame_errors.Rate(), 2));
        if (c.has_frame_check)
          row.push_back(FormatScientific(it->undetected_errors.Rate(), 2));
        row.push_back(FormatCount(it->frames));
      }
    }
    table.AddRow(std::move(row));
  }
  return table.Render();
}

}  // namespace cldpc::sim
