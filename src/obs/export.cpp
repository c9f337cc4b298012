#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "util/json.hpp"
#include "util/table.hpp"

namespace cldpc::obs {
namespace {

/// Floats in the schema must parse back as finite JSON numbers: %g
/// with enough digits round-trips doubles, and a non-finite value
/// (which JSON cannot encode) is written as 0.
std::string FormatJsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

const char* DetTag(Determinism det) {
  switch (det) {
    case Determinism::kStable: return "";
    case Determinism::kScheduling: return "[scheduling]";
    case Determinism::kWallClock: return "[wall-clock]";
  }
  return "";
}

}  // namespace

void WriteMetricsJson(const MetricsView& metrics, std::ostream& os) {
  using util::JsonQuote;
  os << "{\n  \"schema\": \"cldpc-metrics-v1\",\n  \"counters\": {";
  for (std::size_t i = 0; i < metrics.counters.size(); ++i) {
    const auto& c = metrics.counters[i];
    os << (i ? "," : "") << "\n    " << JsonQuote(c.name) << ": " << c.value;
  }
  os << (metrics.counters.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < metrics.histograms.size(); ++i) {
    const auto& h = metrics.histograms[i];
    os << (i ? "," : "") << "\n    " << JsonQuote(h.name) << ": {"
       << "\"unit\": " << JsonQuote(h.unit) << ", \"count\": " << h.count
       << ", \"min\": " << h.min << ", \"max\": " << h.max
       << ", \"mean\": " << FormatJsonDouble(h.mean) << ", \"p50\": " << h.p50
       << ", \"p90\": " << h.p90 << ", \"p99\": " << h.p99 << ", \"bins\": [";
    for (std::size_t b = 0; b < h.bins.size(); ++b) {
      os << (b ? ", " : "") << "[" << h.bins[b].first << ", "
         << h.bins[b].second << "]";
    }
    os << "]}";
  }
  os << (metrics.histograms.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < metrics.gauges.size(); ++i) {
    const auto& g = metrics.gauges[i];
    os << (i ? "," : "") << "\n    " << JsonQuote(g.name) << ": "
       << FormatJsonDouble(g.value);
  }
  os << (metrics.gauges.empty() ? "" : "\n  ") << "},\n  \"nondeterministic\": [";
  bool first = true;
  const auto list = [&](const std::string& name) {
    os << (first ? "" : ", ") << JsonQuote(name);
    first = false;
  };
  for (const auto& c : metrics.counters) {
    if (c.det != Determinism::kStable) list(c.name);
  }
  for (const auto& h : metrics.histograms) {
    if (h.det != Determinism::kStable) list(h.name);
  }
  for (const auto& g : metrics.gauges) list(g.name);
  os << "]\n}\n";
}

std::string RenderMetricsTable(const MetricsView& metrics) {
  std::ostringstream os;
  if (!metrics.counters.empty()) {
    TablePrinter t({"Counter", "Value", ""});
    for (const auto& c : metrics.counters)
      t.AddRow({c.name, FormatCount(c.value), DetTag(c.det)});
    os << t.Render("Counters");
  }
  if (!metrics.histograms.empty()) {
    TablePrinter t(
        {"Histogram", "Count", "Mean", "p50", "p90", "p99", "Unit", ""});
    for (const auto& h : metrics.histograms) {
      t.AddRow({h.name, FormatCount(h.count), FormatDouble(h.mean, 2),
                std::to_string(h.p50), std::to_string(h.p90),
                std::to_string(h.p99), h.unit, DetTag(h.det)});
    }
    os << "\n" << t.Render("Histograms");
  }
  if (!metrics.gauges.empty()) {
    TablePrinter t({"Gauge", "Value"});
    for (const auto& g : metrics.gauges)
      t.AddRow({g.name, FormatDouble(g.value, 3)});
    os << "\n" << t.Render("Gauges (wall-clock)");
  }
  return os.str();
}

void WriteTraceJson(const MetricsRegistry& registry, std::ostream& os) {
  os << "{\"traceEvents\": [\n"
     << "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"tid\": 0, \"args\": {\"name\": \"cldpc\"}}";
  for (std::size_t s = 0; s < registry.shard_count(); ++s) {
    // The last shard is the engine's aggregator by convention; naming
    // is cosmetic, the spans carry their own meaning.
    const std::string label = s + 1 == registry.shard_count() && s > 0
                                  ? "aggregator"
                                  : "worker " + std::to_string(s);
    os << ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"tid\": "
       << s << ", \"args\": {\"name\": \"" << label << "\"}}";
  }
  for (const auto& [tid, ev] : registry.CollectTrace()) {
    os << ",\n  {\"name\": " << util::JsonQuote(ev.name)
       << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid << ", \"ts\": "
       << FormatJsonDouble(static_cast<double>(ev.ts_ns) / 1000.0)
       << ", \"dur\": "
       << FormatJsonDouble(static_cast<double>(ev.dur_ns) / 1000.0);
    if (ev.arg_names[0] != nullptr) {
      os << ", \"args\": {";
      for (int a = 0; a < 3 && ev.arg_names[a] != nullptr; ++a) {
        os << (a ? ", " : "") << util::JsonQuote(ev.arg_names[a]) << ": "
           << ev.arg_values[a];
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace cldpc::obs
