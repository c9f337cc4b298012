// A CLDPC_ISA override the lane-kernel dispatcher cannot parse fails
// once, at wiring time: building a batched decoder's factory, a
// SimEngine or a DecodeService throws std::invalid_argument (exit 2
// under util::GuardedMain) before any frame is decoded. The variable
// is read at the dispatcher's first use, so this binary holds only
// this test and sets it before anything touches a lane kernel.
#include <cstdlib>
#include <stdexcept>

#include <gtest/gtest.h>

#include "engine/sim_engine.hpp"
#include "ldpc/core/registry.hpp"
#include "ldpc/encoder.hpp"
#include "qc/small_codes.hpp"
#include "serve/service.hpp"

namespace cldpc {
namespace {

TEST(IsaOverride, UnknownNameFailsAtWiringTime) {
  ASSERT_EQ(setenv("CLDPC_ISA", "avx9", 1), 0);
  const auto qc = qc::MakeSmallQcCode();
  const ldpc::LdpcCode code(qc.Expand(), qc.q());
  const ldpc::Encoder encoder(code);

  EXPECT_THROW(ldpc::MakeDecoderFactory(code, "fixed-layered-nms-i8:batch=32"),
               std::invalid_argument);
  sim::BerConfig config;
  config.ebn0_db = {3.0};
  EXPECT_THROW((void)engine::SimEngine(code, encoder, config),
               std::invalid_argument);
  serve::ServiceConfig service;
  service.decoder_spec = "fixed-layered-nms-i8:batch=32";
  EXPECT_THROW((void)serve::DecodeService(code, service),
               std::invalid_argument);
  // A per-frame decoder runs no lane kernel and still wires up.
  EXPECT_NO_THROW(ldpc::MakeDecoderFactory(code, "layered-nms"));
}

}  // namespace
}  // namespace cldpc
