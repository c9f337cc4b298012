#include "dist/shard_result.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/json.hpp"

namespace cldpc::dist {
namespace {

constexpr const char* kSchema = "cldpc-shard-result-v1";

// The kStable engine metric names carried per shard. engine.points is
// deliberately not here — see the StableCounters doc comment.
constexpr const char* kFrames = "engine.frames";
constexpr const char* kFrameErrors = "engine.frame_errors";
constexpr const char* kBitErrors = "engine.bit_errors";
constexpr const char* kFramesConverged = "engine.frames_converged";
constexpr const char* kFramesAccepted = "engine.frames_accepted";
constexpr const char* kUndetected = "engine.undetected_errors";
constexpr const char* kIterationsHist = "decode.iterations";

util::JsonValue HistToJson(const Histogram& h) {
  // Bins as [value, count] pairs in ascending value order (the map's
  // iteration order) — canonical by construction.
  auto arr = util::JsonValue::Array();
  for (const auto& [value, count] : h.bins()) {
    auto pair = util::JsonValue::Array();
    pair.PushBack(util::JsonValue::Int(value));
    pair.PushBack(util::JsonValue::Uint(count));
    arr.PushBack(std::move(pair));
  }
  return arr;
}

Histogram HistFromJson(const util::JsonValue& v) {
  Histogram h;
  for (const auto& pair : v.AsArray()) {
    const auto& elems = pair.AsArray();
    if (elems.size() != 2)
      throw std::invalid_argument("shard result: histogram bin is not a pair");
    h.Add(elems[0].AsInt(), elems[1].AsUint());
  }
  return h;
}

}  // namespace

util::JsonValue PointStats::ToJson() const {
  auto obj = util::JsonValue::Object();
  obj.Set("ebn0_db", util::JsonValue::Double(ebn0_db));
  obj.Set("frames", util::JsonValue::Uint(frames));
  obj.Set("bit_errors", util::JsonValue::Uint(bit_errors));
  obj.Set("bit_trials", util::JsonValue::Uint(bit_trials));
  obj.Set("frame_errors", util::JsonValue::Uint(frame_errors));
  obj.Set("undetected_errors", util::JsonValue::Uint(undetected_errors));
  obj.Set("undetected_trials", util::JsonValue::Uint(undetected_trials));
  obj.Set("iterations_total", util::JsonValue::Uint(iterations_total));
  return obj;
}

PointStats PointStats::FromJson(const util::JsonValue& v) {
  PointStats p;
  p.ebn0_db = v.At("ebn0_db").AsDouble();
  p.frames = v.At("frames").AsUint();
  p.bit_errors = v.At("bit_errors").AsUint();
  p.bit_trials = v.At("bit_trials").AsUint();
  p.frame_errors = v.At("frame_errors").AsUint();
  p.undetected_errors = v.At("undetected_errors").AsUint();
  p.undetected_trials = v.At("undetected_trials").AsUint();
  p.iterations_total = v.At("iterations_total").AsUint();
  return p;
}

PointStats PointStats::FromBerPoint(const sim::BerPoint& p) {
  PointStats s;
  s.ebn0_db = p.ebn0_db;
  s.frames = p.frames;
  s.bit_errors = p.bit_errors.errors();
  s.bit_trials = p.bit_errors.trials();
  s.frame_errors = p.frame_errors.errors();
  s.undetected_errors = p.undetected_errors.errors();
  s.undetected_trials = p.undetected_errors.trials();
  s.iterations_total = p.iterations_total;
  return s;
}

sim::BerPoint PointStats::ToBerPoint() const {
  sim::BerPoint p;
  p.ebn0_db = ebn0_db;
  p.bit_errors.Add(bit_errors, bit_trials);
  p.frame_errors.Add(frame_errors, frames);
  p.undetected_errors.Add(undetected_errors, undetected_trials);
  p.frames = frames;
  p.iterations_total = iterations_total;
  // Exactly the engine's expression (PointAccumulator::Finish), so a
  // merged point's derived average matches the single run bitwise.
  p.avg_iterations =
      frames > 0
          ? static_cast<double>(iterations_total) / static_cast<double>(frames)
          : 0.0;
  return p;
}

void PointStats::MergeFrom(const PointStats& other) {
  if (ebn0_db != other.ebn0_db)
    throw std::invalid_argument("point merge: Eb/N0 mismatch");
  frames += other.frames;
  bit_errors += other.bit_errors;
  bit_trials += other.bit_trials;
  frame_errors += other.frame_errors;
  undetected_errors += other.undetected_errors;
  undetected_trials += other.undetected_trials;
  iterations_total += other.iterations_total;
}

StableCounters StableCounters::FromRegistry(
    const obs::MetricsRegistry& registry) {
  StableCounters c;
  const auto merged = registry.Snapshot();
  for (const auto& counter : merged.counters) {
    if (counter.name == kFrames) c.frames = counter.value;
    else if (counter.name == kFrameErrors) c.frame_errors = counter.value;
    else if (counter.name == kBitErrors) c.bit_errors = counter.value;
    else if (counter.name == kFramesConverged)
      c.frames_converged = counter.value;
    else if (counter.name == kFramesAccepted)
      c.frames_accepted = counter.value;
    else if (counter.name == kUndetected) c.undetected_errors = counter.value;
  }
  for (const auto& hist : merged.histograms) {
    if (hist.name != kIterationsHist) continue;
    for (const auto& [value, count] : hist.bins) c.iterations.Add(value, count);
  }
  return c;
}

void StableCounters::MergeFrom(const StableCounters& other) {
  frames += other.frames;
  frame_errors += other.frame_errors;
  bit_errors += other.bit_errors;
  frames_converged += other.frames_converged;
  frames_accepted += other.frames_accepted;
  undetected_errors += other.undetected_errors;
  iterations.Merge(other.iterations);
}

std::string ShardResult::ToJson() const {
  auto payload = util::JsonValue::Object();
  payload.Set("unit_crc", util::JsonValue::Uint(unit_crc));
  payload.Set("run_crc", util::JsonValue::Uint(run_crc));
  payload.Set("first_frame", util::JsonValue::Uint(first_frame));
  payload.Set("frames_done", util::JsonValue::Uint(frames_done));
  payload.Set("decoder_name", util::JsonValue::Str(decoder_name));
  payload.Set("has_frame_check", util::JsonValue::Bool(has_frame_check));
  auto pts = util::JsonValue::Array();
  for (const auto& p : points) pts.PushBack(p.ToJson());
  payload.Set("points", std::move(pts));
  auto counters_obj = util::JsonValue::Object();
  counters_obj.Set("frames", util::JsonValue::Uint(counters.frames));
  counters_obj.Set("frame_errors",
                   util::JsonValue::Uint(counters.frame_errors));
  counters_obj.Set("bit_errors", util::JsonValue::Uint(counters.bit_errors));
  counters_obj.Set("frames_converged",
                   util::JsonValue::Uint(counters.frames_converged));
  counters_obj.Set("frames_accepted",
                   util::JsonValue::Uint(counters.frames_accepted));
  counters_obj.Set("undetected_errors",
                   util::JsonValue::Uint(counters.undetected_errors));
  counters_obj.Set("iterations_hist", HistToJson(counters.iterations));
  payload.Set("counters", std::move(counters_obj));

  auto doc = util::JsonValue::Object();
  doc.Set("schema", util::JsonValue::Str(kSchema));
  doc.Set("crc32", util::JsonValue::Uint(util::Crc32(payload.Serialize())));
  doc.Set("payload", std::move(payload));
  return doc.Serialize();
}

ShardResult ShardResult::FromJson(std::string_view text) {
  const auto doc = util::JsonValue::Parse(text);
  if (doc.At("schema").AsString() != kSchema)
    throw std::invalid_argument("shard result: schema is '" +
                                doc.At("schema").AsString() + "', expected '" +
                                kSchema + "'");
  const auto& payload = doc.At("payload");
  if (doc.At("crc32").AsUint() != util::Crc32(payload.Serialize()))
    throw std::invalid_argument("shard result: content CRC mismatch");

  ShardResult r;
  r.unit_crc = static_cast<std::uint32_t>(payload.At("unit_crc").AsUint());
  r.run_crc = static_cast<std::uint32_t>(payload.At("run_crc").AsUint());
  r.first_frame = payload.At("first_frame").AsUint();
  r.frames_done = payload.At("frames_done").AsUint();
  r.decoder_name = payload.At("decoder_name").AsString();
  r.has_frame_check = payload.At("has_frame_check").AsBool();
  for (const auto& p : payload.At("points").AsArray())
    r.points.push_back(PointStats::FromJson(p));
  const auto& c = payload.At("counters");
  r.counters.frames = c.At("frames").AsUint();
  r.counters.frame_errors = c.At("frame_errors").AsUint();
  r.counters.bit_errors = c.At("bit_errors").AsUint();
  r.counters.frames_converged = c.At("frames_converged").AsUint();
  r.counters.frames_accepted = c.At("frames_accepted").AsUint();
  r.counters.undetected_errors = c.At("undetected_errors").AsUint();
  r.counters.iterations = HistFromJson(c.At("iterations_hist"));
  return r;
}

sim::BerCurve ShardResult::ToCurve() const {
  sim::BerCurve curve;
  curve.decoder_name = decoder_name;
  curve.has_frame_check = has_frame_check;
  for (const auto& p : points) curve.points.push_back(p.ToBerPoint());
  return curve;
}

ShardResult MergeShardResults(const std::vector<ShardResult>& shards) {
  if (shards.empty())
    throw std::invalid_argument("shard merge: no shards");

  // Merge in frame order; input order must not matter.
  std::vector<const ShardResult*> ordered;
  ordered.reserve(shards.size());
  for (const auto& s : shards) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const ShardResult* a, const ShardResult* b) {
              return a->first_frame < b->first_frame;
            });

  const ShardResult& head = *ordered.front();
  ShardResult merged;
  merged.unit_crc = 0;  // a merged result answers no single unit
  merged.run_crc = head.run_crc;
  merged.first_frame = head.first_frame;
  merged.decoder_name = head.decoder_name;
  merged.has_frame_check = head.has_frame_check;
  for (const auto& p : head.points) {
    PointStats zero;
    zero.ebn0_db = p.ebn0_db;
    merged.points.push_back(zero);
  }

  std::uint64_t expected_first = head.first_frame;
  for (const ShardResult* s : ordered) {
    if (s->run_crc != head.run_crc)
      throw std::invalid_argument(
          "shard merge: results from different runs (run_crc mismatch)");
    if (s->decoder_name != head.decoder_name)
      throw std::invalid_argument("shard merge: decoder name mismatch");
    if (s->has_frame_check != head.has_frame_check)
      throw std::invalid_argument("shard merge: frame-check flag mismatch");
    if (s->points.size() != merged.points.size())
      throw std::invalid_argument("shard merge: Eb/N0 grid size mismatch");
    // Contiguity: a gap means lost frames (the merged statistics
    // would silently understate the run); an overlap double-counts.
    if (s->first_frame != expected_first)
      throw std::invalid_argument(
          s->first_frame > expected_first
              ? "shard merge: gap in frame coverage"
              : "shard merge: overlapping frame ranges");
    expected_first = s->first_frame + s->frames_done;
    for (std::size_t i = 0; i < merged.points.size(); ++i)
      merged.points[i].MergeFrom(s->points[i]);
    merged.counters.MergeFrom(s->counters);
  }
  merged.frames_done = expected_first - merged.first_frame;
  return merged;
}

void MergedCountersToRegistry(const ShardResult& merged,
                              obs::MetricsRegistry& registry) {
  using D = obs::Determinism;
  const auto frames = registry.Counter(kFrames, D::kStable);
  const auto frame_errors = registry.Counter(kFrameErrors, D::kStable);
  const auto bit_errors = registry.Counter(kBitErrors, D::kStable);
  const auto converged = registry.Counter(kFramesConverged, D::kStable);
  const auto accepted = registry.Counter(kFramesAccepted, D::kStable);
  const auto undetected = registry.Counter(kUndetected, D::kStable);
  const auto points = registry.Counter("engine.points", D::kStable);
  const auto iters = registry.Hist(kIterationsHist, D::kStable, "iterations");
  registry.SetShardCount(1);
  auto& shard = registry.shard(0);
  shard.Add(frames, merged.counters.frames);
  shard.Add(frame_errors, merged.counters.frame_errors);
  shard.Add(bit_errors, merged.counters.bit_errors);
  shard.Add(converged, merged.counters.frames_converged);
  shard.Add(accepted, merged.counters.frames_accepted);
  shard.Add(undetected, merged.counters.undetected_errors);
  // Derived, not summed: every shard visits every point of the grid.
  shard.Add(points, merged.points.size());
  for (const auto& [value, count] : merged.counters.iterations.bins())
    shard.Record(iters, value, count);
}

}  // namespace cldpc::dist
