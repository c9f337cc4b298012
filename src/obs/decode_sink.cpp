#include "obs/decode_sink.hpp"

namespace cldpc::obs {

DecodeMetricIds RegisterDecodeMetrics(MetricsRegistry& registry) {
  using D = Determinism;
  DecodeMetricIds ids;
  ids.lane_groups = registry.Counter("decode.lane_groups", D::kScheduling);
  ids.lanes_filled = registry.Counter("decode.lanes_filled", D::kScheduling);
  ids.lane_capacity = registry.Counter("decode.lane_capacity", D::kScheduling);
  ids.lane_occupancy =
      registry.Hist("decode.lane_occupancy", D::kScheduling, "lanes");
  ids.lane_iterations_run =
      registry.Counter("decode.lane_iterations_run", D::kScheduling);
  ids.lane_iterations_used =
      registry.Counter("decode.lane_iterations_used", D::kScheduling);
  ids.syndrome_bit_scans =
      registry.Counter("decode.syndrome_bit_scans", D::kScheduling);
  ids.syndrome_bit_flips =
      registry.Counter("decode.syndrome_bit_flips", D::kScheduling);
  ids.msg_clamp_events =
      registry.Counter("decode.i8_msg_clamps", D::kScheduling);
  ids.bn_sat_events =
      registry.Counter("decode.i8_bn_saturations", D::kScheduling);
  return ids;
}

}  // namespace cldpc::obs
