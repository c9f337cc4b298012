// Exporters for the metrics registry: a stable JSON schema for
// tooling (bench/check_bench_regression.py validates it), a human
// table via util/table, and chrome://tracing trace-event JSON.
//
// ## Metrics JSON schema ("cldpc-metrics-v1")
//
//   {
//     "schema": "cldpc-metrics-v1",
//     "counters":   { "<name>": <uint>, ... },
//     "histograms": { "<name>": { "unit": "<str>", "count": <uint>,
//                                 "min": <int>, "max": <int>,
//                                 "mean": <float>, "p50": <int>,
//                                 "p90": <int>, "p99": <int>,
//                                 "bins": [[<value>, <count>], ...] },
//                     ... },
//     "gauges":     { "<name>": <float>, ... },
//     "nondeterministic": [ "<name>", ... ]
//   }
//
// "nondeterministic" lists every metric whose value may legitimately
// differ across thread counts or runs: metrics registered as
// kScheduling or kWallClock, plus every gauge (gauges are run-
// dependent by definition). Everything NOT listed is a pure function
// of (config, seed) — byte-identical for --threads=1 vs --threads=N —
// and tooling may diff that subset hard (the CI does). "bins" are
// [value, count] pairs, exact for |value| < 128; above that a bin's
// value is its bucket's lower bound (32 log-linear buckets per power
// of two, see obs::HistBucket), and p50/p90/p99 are the nearest-rank
// bin values, within 1/32 below the true quantile. The final export
// and the SIGINT emergency flush read the same buckets.
//
// ## Trace JSON
//
// The chrome trace-event format (load in chrome://tracing or
// https://ui.perfetto.dev): one complete "X" event per recorded span,
// tid = shard index (worker), with thread-name metadata. Timestamps
// are microseconds since the registry's construction.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/metrics.hpp"

namespace cldpc::obs {

/// The one cldpc-metrics-v1 writer: the final export writes the
/// quiescent Snapshot() view, the SIGINT emergency flush
/// (SnapshotPublisher) a live one.
void WriteMetricsJson(const MetricsView& metrics, std::ostream& os);

/// Aligned text rendering of every counter, histogram summary and
/// gauge ("[scheduling]" / "[wall-clock]" tags mark the
/// nondeterministic ones).
std::string RenderMetricsTable(const MetricsView& metrics);

void WriteTraceJson(const MetricsRegistry& registry, std::ostream& os);

}  // namespace cldpc::obs
