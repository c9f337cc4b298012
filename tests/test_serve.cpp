// Decode-service robustness contract: admission control rejects (not
// blocks) on a full ring, expired deadlines shed before decode, the
// shedding curve engages at the documented watermarks, accepted
// frames decode byte-identically to the batch path, slow consumers
// are dropped-and-counted, and every frame lands in exactly one
// terminal counter.
#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <string>

#include "channel/awgn.hpp"
#include "codes/catalog.hpp"
#include "ldpc/core/registry.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "serve/ring.hpp"
#include "serve/shed.hpp"
#include "util/contracts.hpp"
#include "util/json.hpp"

namespace cldpc::serve {
namespace {

serve::ServiceClock::time_point FarDeadline() {
  return ServiceClock::now() + std::chrono::hours(1);
}

/// Noisy transmissions of the all-zero codeword (a codeword of every
/// linear code) — realistic LLR frames without an encoder in the
/// test.
std::vector<std::vector<double>> MakeFrames(const ldpc::LdpcCode& code,
                                            std::size_t count,
                                            std::uint64_t seed) {
  std::vector<std::vector<double>> frames;
  const std::vector<std::uint8_t> zeros(code.n(), 0);
  for (std::size_t f = 0; f < count; ++f)
    frames.push_back(
        channel::TransmitBpskAwgn(zeros, 3.0, code.Rate(), seed + f));
  return frames;
}

/// Accounting identities every test can assert after Stop().
void ExpectAccountingExact(const ServiceStats& s) {
  EXPECT_EQ(s.submitted, s.admitted + s.rejected_full + s.rejected_malformed +
                             s.rejected_shutdown);
  EXPECT_EQ(s.admitted, s.ok + s.shed_expired + s.failed + s.shed_shutdown);
}

// --- BoundedRing ----------------------------------------------------

TEST(BoundedRing, RoundsCapacityToPowerOfTwo) {
  EXPECT_EQ(BoundedRing<int>(1).capacity(), 2u);
  EXPECT_EQ(BoundedRing<int>(5).capacity(), 8u);
  EXPECT_EQ(BoundedRing<int>(64).capacity(), 64u);
}

TEST(BoundedRing, FullRingRejectsWithoutBlockingAndPreservesItem) {
  BoundedRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(ring.TryPush(v));
  }
  int extra = 99;
  EXPECT_FALSE(ring.TryPush(extra));  // returns, never blocks
  EXPECT_EQ(extra, 99);               // rejected item untouched
  EXPECT_EQ(ring.SizeApprox(), 4u);
}

TEST(BoundedRing, PopsInFifoOrderAndReportsEmpty) {
  BoundedRing<int> ring(4);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_TRUE(ring.TryPush(v));
  }
  int out = -1;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.TryPop(out));
  // Slots freed by pops are immediately reusable (wraparound).
  for (int i = 10; i < 14; ++i) {
    int v = i;
    EXPECT_TRUE(ring.TryPush(v));
  }
}

// --- Shedding curve -------------------------------------------------

TEST(ShedPolicy, TierEngagesExactlyAtDocumentedWatermarks) {
  const ShedPolicy policy;  // 0.50 / 0.75
  EXPECT_EQ(TierFor(policy, 0, 256), 0);
  EXPECT_EQ(TierFor(policy, 127, 256), 0);  // just below elevated
  EXPECT_EQ(TierFor(policy, 128, 256), 1);  // exactly at 0.50
  EXPECT_EQ(TierFor(policy, 191, 256), 1);  // just below high
  EXPECT_EQ(TierFor(policy, 192, 256), 2);  // exactly at 0.75
  EXPECT_EQ(TierFor(policy, 256, 256), 2);
}

TEST(ShedPolicy, BudgetShrinksPerTierAndNeverBelowOne) {
  const ShedPolicy policy;  // shifts 1 / 2
  EXPECT_EQ(BudgetForTier(policy, 18, 0), 18);
  EXPECT_EQ(BudgetForTier(policy, 18, 1), 9);
  EXPECT_EQ(BudgetForTier(policy, 18, 2), 4);
  EXPECT_EQ(BudgetForTier(policy, 1, 1), 1);
  EXPECT_EQ(BudgetForTier(policy, 1, 2), 1);
}

TEST(ShedPolicy, ValidateRejectsNonsense) {
  ShedPolicy bad;
  bad.elevated_watermark = 0.9;
  bad.high_watermark = 0.5;  // below elevated
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
  ShedPolicy negative;
  negative.elevated_shift = -1;
  EXPECT_THROW(negative.Validate(), std::invalid_argument);
}

// --- Service fixture ------------------------------------------------

class DecodeServiceTest : public ::testing::Test {
 protected:
  DecodeServiceTest() : system_(codes::LoadCode("small")) {}

  ServiceConfig BaseConfig() const {
    ServiceConfig config;
    config.decoder_spec = "layered-nms:batch=4,iters=12";
    config.workers = 1;
    config.queue_capacity = 64;
    config.max_batch = 4;
    return config;
  }

  const ldpc::LdpcCode& code() const { return *system_.code; }

  codes::CatalogCode system_;
};

TEST_F(DecodeServiceTest, RejectsMalformedFramesAtAdmission) {
  DecodeService service(code(), BaseConfig());
  auto& client = service.Connect();
  std::vector<double> truncated(code().n() - 1, 1.0);
  EXPECT_EQ(service.Submit(client, 1, truncated, FarDeadline()),
            Admission::kRejectedMalformed);
  std::vector<double> nan_frame(code().n(), 1.0);
  nan_frame[7] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(service.Submit(client, 2, nan_frame, FarDeadline()),
            Admission::kRejectedMalformed);
  service.Stop();
  const auto stats = service.Stats();
  EXPECT_EQ(stats.rejected_malformed, 2u);
  EXPECT_EQ(stats.admitted, 0u);
  ExpectAccountingExact(stats);
}

TEST_F(DecodeServiceTest, FullRingRejectsInsteadOfBlocking) {
  // Stall every batch long enough that the single worker cannot keep
  // up with a burst: the ring must fill and Submit must come back
  // with kRejectedFull immediately — never block, never queue beyond
  // capacity.
  ServiceConfig config = BaseConfig();
  config.queue_capacity = 4;
  config.max_batch = 1;
  config.faults.stall_permille = 1000;
  config.faults.stall_us = 20000;
  DecodeService service(code(), config);
  auto& client = service.Connect();

  const auto frames = MakeFrames(code(), 32, 1);
  const auto t0 = ServiceClock::now();
  std::uint64_t rejected = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (service.Submit(client, f, frames[f], FarDeadline()) ==
        Admission::kRejectedFull)
      ++rejected;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      ServiceClock::now() - t0);
  // 32 submits against a stalled 4-deep queue: most must bounce, and
  // the whole burst must return in far less time than decoding (or
  // even one stall) would take — proof no Submit ever waited.
  EXPECT_GE(rejected, 16u);
  EXPECT_LT(elapsed.count(), 5000);

  service.Stop();  // drains the admitted remainder
  const auto stats = service.Stats();
  EXPECT_EQ(stats.rejected_full, rejected);
  EXPECT_EQ(stats.admitted, 32u - rejected);
  ExpectAccountingExact(stats);
}

TEST_F(DecodeServiceTest, ExpiredDeadlinesAreShedBeforeDecode) {
  DecodeService service(code(), BaseConfig());
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 8, 2);
  const auto past = ServiceClock::now() - std::chrono::milliseconds(1);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], past),
              Admission::kAdmitted);
  service.Stop();
  const auto stats = service.Stats();
  EXPECT_EQ(stats.shed_expired, 8u);
  EXPECT_EQ(stats.ok, 0u);  // no decode work spent on dead frames
  ExpectAccountingExact(stats);
  // The shed frames still got responses (with the shed status).
  DecodeResponse response;
  std::size_t responses = 0;
  while (client.TryPop(response)) {
    EXPECT_EQ(response.status, Status::kShedExpired);
    ++responses;
  }
  EXPECT_EQ(responses, 8u);
}

TEST_F(DecodeServiceTest, AcceptedFramesDecodeIdenticallyToBatchPath) {
  DecodeService service(code(), BaseConfig());
  auto& client = service.Connect();
  // The reference decode: the service's canonical tier-0 spec, driven
  // directly — what the batch pipeline would produce.
  const auto reference = ldpc::MakeDecoder(code(), service.tier_specs()[0]);

  const auto frames = MakeFrames(code(), 16, 3);
  std::map<std::uint64_t, std::vector<double>> sent;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
    sent.emplace(f, frames[f]);
  }
  service.Stop();
  EXPECT_EQ(service.Stats().ok, 16u);

  DecodeResponse response;
  std::size_t checked = 0;
  while (client.TryPop(response)) {
    ASSERT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.tier, 0);
    const auto expect = reference->DecodeBatch(sent.at(response.id), 1);
    EXPECT_EQ(response.bits, expect[0].bits) << "frame " << response.id;
    EXPECT_EQ(response.iterations, expect[0].iterations_run);
    EXPECT_EQ(response.converged, expect[0].converged);
    ++checked;
  }
  EXPECT_EQ(checked, 16u);
}

TEST_F(DecodeServiceTest, ShedTiersDecodeIdenticallyToTheirCanonicalSpec) {
  // Watermarks at ~0 force the shedding curve to its highest tier for
  // any nonzero occupancy snapshot: the burst below decodes almost
  // entirely at tier 2, and every response must still be
  // byte-identical to its tier's canonical registry decoder.
  ServiceConfig config = BaseConfig();
  config.shed.elevated_watermark = 1e-12;
  config.shed.high_watermark = 1e-9;
  DecodeService service(code(), config);
  auto& client = service.Connect();

  // Tier specs document the budgets: 12 -> 6 -> 3 for iters=12.
  ASSERT_EQ(service.tier_specs().size(), 3u);
  std::vector<std::unique_ptr<ldpc::Decoder>> reference;
  for (const auto& spec : service.tier_specs())
    reference.push_back(ldpc::MakeDecoder(code(), spec));

  const auto frames = MakeFrames(code(), 24, 4);
  std::map<std::uint64_t, std::vector<double>> sent;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
    sent.emplace(f, frames[f]);
  }
  service.Stop();
  const auto stats = service.Stats();
  EXPECT_EQ(stats.ok, 24u);
  EXPECT_GE(stats.tier_frames[2], 1u) << "high tier never engaged";

  DecodeResponse response;
  while (client.TryPop(response)) {
    ASSERT_EQ(response.status, Status::kOk);
    ASSERT_GE(response.tier, 0);
    ASSERT_LT(response.tier, kNumShedTiers);
    const auto expect =
        reference[static_cast<std::size_t>(response.tier)]->DecodeBatch(
            sent.at(response.id), 1);
    EXPECT_EQ(response.bits, expect[0].bits)
        << "frame " << response.id << " tier " << response.tier;
  }
}

TEST_F(DecodeServiceTest, DecoderExceptionIsContainedToThrowingFrames) {
  // ~1 in 4 frames throws mid-decode; the other frames of the same
  // batch must still decode normally (the per-frame fallback), and
  // the service must keep serving afterwards.
  ServiceConfig config = BaseConfig();
  config.faults.seed = 9;
  config.faults.decode_throw_permille = 250;
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const FaultInjector oracle(config.faults);

  const auto frames = MakeFrames(code(), 32, 5);
  std::set<std::uint64_t> expected_failures;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
    if (oracle.ThrowInDecode(f)) expected_failures.insert(f);
  }
  ASSERT_FALSE(expected_failures.empty());
  ASSERT_LT(expected_failures.size(), frames.size());
  service.Stop();

  const auto stats = service.Stats();
  EXPECT_EQ(stats.failed, expected_failures.size());
  EXPECT_EQ(stats.ok, frames.size() - expected_failures.size());
  ExpectAccountingExact(stats);

  DecodeResponse response;
  while (client.TryPop(response)) {
    if (expected_failures.count(response.id)) {
      EXPECT_EQ(response.status, Status::kFailed);
      EXPECT_TRUE(response.bits.empty());
    } else {
      EXPECT_EQ(response.status, Status::kOk);
      EXPECT_EQ(response.bits.size(), code().n());
    }
  }
}

TEST_F(DecodeServiceTest, SlowConsumerIsDroppedAndCountedNeverBlocked) {
  ServiceConfig config = BaseConfig();
  config.client_queue_capacity = 2;
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 10, 6);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
  // The client never drains while the service decodes: deliveries
  // beyond the 2-deep client ring must be dropped and counted, and
  // Stop() must complete anyway (the service never blocks on us).
  service.Stop();
  const auto stats = service.Stats();
  EXPECT_EQ(stats.ok, 10u);  // all frames decoded; only delivery dropped
  EXPECT_EQ(stats.responses_dropped, 8u);
  EXPECT_EQ(client.dropped(), 8u);
  DecodeResponse response;
  std::size_t received = 0;
  while (client.TryPop(response)) ++received;
  EXPECT_EQ(received, 2u);
}

TEST_F(DecodeServiceTest, StopDrainsAdmittedWorkAndRejectsNewFrames) {
  DecodeService service(code(), BaseConfig());
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 12, 7);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
  service.Stop();  // graceful: decodes everything already admitted
  const auto stats = service.Stats();
  EXPECT_EQ(stats.ok, 12u);
  EXPECT_EQ(stats.shed_shutdown, 0u);
  // Admission is closed afterwards.
  EXPECT_EQ(service.Submit(client, 99, frames[0], FarDeadline()),
            Admission::kRejectedShutdown);
  ExpectAccountingExact(service.Stats());
}

TEST_F(DecodeServiceTest, StopWithoutDrainShedsInsteadOfDecoding) {
  ServiceConfig config = BaseConfig();
  config.drain_on_stop = false;
  // Hold the worker so the queue still has undecoded frames when
  // Stop() lands.
  config.faults.stall_permille = 1000;
  config.faults.stall_us = 20000;
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 12, 8);
  std::uint64_t admitted = 0;
  for (std::size_t f = 0; f < frames.size(); ++f)
    if (service.Submit(client, f, frames[f], FarDeadline()) ==
        Admission::kAdmitted)
      ++admitted;
  service.Stop();
  const auto stats = service.Stats();
  EXPECT_EQ(stats.ok + stats.shed_shutdown, admitted);
  EXPECT_GE(stats.shed_shutdown, 1u);
  ExpectAccountingExact(stats);
}

TEST_F(DecodeServiceTest, MetricsExportMatchesStatsExactly) {
  obs::MetricsRegistry registry;
  ServiceConfig config = BaseConfig();
  config.metrics = &registry;
  config.faults.seed = 11;
  config.faults.decode_throw_permille = 200;
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 20, 9);
  for (std::size_t f = 0; f < frames.size(); ++f)
    service.Submit(client, f, frames[f], FarDeadline());
  std::vector<double> bad(3, 1.0);
  service.Submit(client, 777, bad, FarDeadline());
  service.Stop();

  const auto stats = service.Stats();
  ExpectAccountingExact(stats);
  const auto merged = registry.Snapshot();
  std::map<std::string, std::uint64_t> counters;
  for (const auto& c : merged.counters) counters[c.name] = c.value;
  EXPECT_EQ(counters.at("serve.submitted"), stats.submitted);
  EXPECT_EQ(counters.at("serve.admitted"), stats.admitted);
  EXPECT_EQ(counters.at("serve.ok"), stats.ok);
  EXPECT_EQ(counters.at("serve.failed"), stats.failed);
  EXPECT_EQ(counters.at("serve.rejected_malformed"), stats.rejected_malformed);
  EXPECT_EQ(counters.at("serve.rejected_full"), stats.rejected_full);
  EXPECT_EQ(counters.at("serve.shed_expired"), stats.shed_expired);
  EXPECT_EQ(counters.at("serve.shed_shutdown"), stats.shed_shutdown);
  EXPECT_EQ(counters.at("serve.tier0_frames") +
                counters.at("serve.tier1_frames") +
                counters.at("serve.tier2_frames"),
            stats.ok);
  // Latency and iteration histograms sample exactly the decoded
  // frames, those Contain re-decodes after a fault included.
  for (const auto& h : merged.histograms) {
    if (h.name == "serve.decode_us" || h.name == "decode.iterations") {
      EXPECT_EQ(h.count, stats.ok) << h.name;
    }
  }
}

TEST_F(DecodeServiceTest, ConstructorRejectsBadSpecsAsInvalidArgument) {
  ServiceConfig config = BaseConfig();
  config.decoder_spec = "definitely-not-a-decoder";
  EXPECT_THROW(DecodeService(code(), config), std::invalid_argument);
  config = BaseConfig();
  config.decoder_spec = "layered-nms:batch=999";  // out of [1, 32]
  EXPECT_THROW(DecodeService(code(), config), std::invalid_argument);
  config = BaseConfig();
  config.shed.high_watermark = 0.1;  // below elevated watermark
  EXPECT_THROW(DecodeService(code(), config), std::invalid_argument);
  config = BaseConfig();
  config.faults.stall_permille = 1001;
  EXPECT_THROW(DecodeService(code(), config), std::invalid_argument);
}

TEST_F(DecodeServiceTest, WaitPopDeliversAcrossThreadsWithTimeout) {
  DecodeService service(code(), BaseConfig());
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 4, 10);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
  DecodeResponse response;
  std::size_t received = 0;
  while (received < 4 &&
         client.WaitPop(response, std::chrono::microseconds(2000000)))
    ++received;
  EXPECT_EQ(received, 4u);
  // Timeout path: nothing pending, bounded wait, false.
  EXPECT_FALSE(client.WaitPop(response, std::chrono::microseconds(1000)));
}

// --- Observability plane --------------------------------------------

TEST_F(DecodeServiceTest, FrameCheckVerdictsPartitionOkResponses) {
  // Synthetic integrity check (pure function of the bits, like the
  // catalog's CRC hook): every kOk response must carry a verdict, and
  // the verdicts must partition ok exactly.
  ServiceConfig config = BaseConfig();
  config.frame_check = [](std::span<const std::uint8_t> bits) {
    std::uint64_t ones = 0;
    for (const auto b : bits) ones += b;
    return ones % 2 == 0;  // accept even-weight words
  };
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 24, 17);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
  service.Stop();

  const auto stats = service.Stats();
  ExpectAccountingExact(stats);
  EXPECT_EQ(stats.ok, stats.check_accepted + stats.check_rejected);
  std::uint64_t accepted = 0, rejected = 0;
  DecodeResponse response;
  while (client.TryPop(response)) {
    ASSERT_EQ(response.status, Status::kOk);
    EXPECT_TRUE(response.checked);
    // The response's verdict is exactly the check applied to its bits.
    std::uint64_t ones = 0;
    for (const auto b : response.bits) ones += b;
    EXPECT_EQ(response.check_passed, ones % 2 == 0);
    ++(response.check_passed ? accepted : rejected);
  }
  EXPECT_EQ(accepted, stats.check_accepted);
  EXPECT_EQ(rejected, stats.check_rejected);
}

TEST_F(DecodeServiceTest, NoFrameCheckMeansNoVerdicts) {
  DecodeService service(code(), BaseConfig());
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 4, 18);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
  service.Stop();
  EXPECT_EQ(service.Stats().check_accepted, 0u);
  EXPECT_EQ(service.Stats().check_rejected, 0u);
  DecodeResponse response;
  while (client.TryPop(response)) EXPECT_FALSE(response.checked);
}

TEST_F(DecodeServiceTest, TraceIdsAreUniqueMonotonicAndSpansOrdered) {
  // Lifecycle tracing: every admitted request gets a distinct
  // monotonic trace id, and a sampled request's spans reconstruct the
  // stage order submit <= dequeue <= terminal.
  obs::MetricsRegistry registry;
  registry.EnableTracing();
  ServiceConfig config = BaseConfig();
  config.metrics = &registry;
  config.trace_sample_every = 1;  // sample everything
  DecodeService service(code(), config);
  auto& client = service.Connect();
  constexpr std::size_t kFrames = 12;
  const auto frames = MakeFrames(code(), kFrames, 19);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
  service.Stop();

  // One submitting thread, no rejections: ids are assigned in submit
  // order, 1-based, gap-free — so they are unique and monotonic.
  DecodeResponse response;
  std::size_t responses = 0;
  while (client.TryPop(response)) {
    ASSERT_EQ(response.status, Status::kOk);
    EXPECT_EQ(response.trace_id, response.id + 1);
    ++responses;
  }
  EXPECT_EQ(responses, kFrames);

  // Every sampled request emitted exactly one "req.queue" span
  // (submit -> dequeue) and one "req.decode" span (dequeue ->
  // terminal), both on the worker's track.
  struct Span {
    std::uint64_t end_ns = 0;
    std::int64_t status = -2;
    bool seen = false;
  };
  std::map<std::int64_t, Span> queue_spans, decode_spans;
  for (const auto& [shard_index, ev] : registry.CollectTrace()) {
    (void)shard_index;
    const std::string name(ev.name);
    if (name != "req.queue" && name != "req.decode") continue;
    ASSERT_STREQ(ev.arg_names[0], "trace_id");
    auto& span = name == "req.queue" ? queue_spans[ev.arg_values[0]]
                                     : decode_spans[ev.arg_values[0]];
    EXPECT_FALSE(span.seen) << "duplicate span for trace " << ev.arg_values[0];
    span.seen = true;
    span.end_ns = ev.ts_ns + ev.dur_ns;
    span.status = ev.arg_values[2];
  }
  ASSERT_EQ(queue_spans.size(), kFrames);
  ASSERT_EQ(decode_spans.size(), kFrames);
  for (std::size_t f = 0; f < kFrames; ++f) {
    const auto trace_id = static_cast<std::int64_t>(f + 1);
    const auto& queue = queue_spans.at(trace_id);
    const auto& decode = decode_spans.at(trace_id);
    EXPECT_EQ(queue.status, -1);  // proceeded to decode
    EXPECT_EQ(decode.status, static_cast<int>(Status::kOk));
    // Stage ordering: the queue span ends at dequeue, the decode span
    // at the terminal state, and dequeue happens-before terminal.
    EXPECT_LE(queue.end_ns, decode.end_ns) << "trace " << trace_id;
  }
}

TEST_F(DecodeServiceTest, TraceSamplingSelectsSeedDeterministicResidue) {
  obs::MetricsRegistry registry;
  registry.EnableTracing();
  ServiceConfig config = BaseConfig();
  config.metrics = &registry;
  config.trace_sample_every = 4;
  config.faults.seed = 6;  // sampled iff trace_id % 4 == 6 % 4 == 2
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 16, 20);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
  service.Stop();

  std::set<std::int64_t> traced;
  for (const auto& [shard_index, ev] : registry.CollectTrace()) {
    (void)shard_index;
    if (std::string(ev.name) != "req.queue" &&
        std::string(ev.name) != "req.decode")
      continue;
    EXPECT_EQ(ev.arg_values[0] % 4, 2) << ev.name;
    traced.insert(ev.arg_values[0]);
  }
  // Trace ids 1..16, residue 2 mod 4: exactly {2, 6, 10, 14}.
  EXPECT_EQ(traced, (std::set<std::int64_t>{2, 6, 10, 14}));
}

TEST_F(DecodeServiceTest, JournalReplaysFaultOracleExactly) {
  // The journal writes fault events at exactly the counter-increment
  // sites, so (a) journaled fault events == stats.faults_injected and
  // (b) every journaled decision re-derives from the seed's oracle —
  // the post-mortem-without-rerunning contract.
  const std::string path = ::testing::TempDir() + "serve_journal.jsonl";
  ServiceConfig config = BaseConfig();
  config.faults.seed = 23;
  config.faults.stall_permille = 300;
  config.faults.stall_us = 200;
  config.faults.decode_throw_permille = 250;
  obs::EventJournal journal(obs::EventJournalOptions{path});
  config.journal = &journal;
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 48, 21);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
  service.Stop();
  journal.Close();
  const auto stats = service.Stats();
  ExpectAccountingExact(stats);
  EXPECT_GT(stats.faults_injected, 0u);

  const FaultInjector oracle(config.faults);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t fault_events = 0, expected_seq = 0;
  util::JsonValue last = util::JsonValue::Object();
  while (std::getline(in, line)) {
    const auto doc = util::JsonValue::Parse(line);
    EXPECT_EQ(doc.At("schema").AsString(), "cldpc-events-v1");
    EXPECT_EQ(doc.At("seq").AsUint(), expected_seq++);
    EXPECT_EQ(doc.At("source").AsString(), "serve");
    const std::string kind = doc.At("kind").AsString();
    if (kind == "fault_stall") {
      ++fault_events;
      EXPECT_TRUE(oracle.StallBatch(doc.At("args").At("batch_id").AsUint()));
    } else if (kind == "fault_throw") {
      ++fault_events;
      EXPECT_TRUE(oracle.ThrowInDecode(doc.At("args").At("frame_id").AsUint()));
    }
    last = doc;
  }
  EXPECT_EQ(fault_events, stats.faults_injected);
  // The journal's last word is the stop event with the final totals.
  EXPECT_EQ(last.At("kind").AsString(), "service_stop");
  EXPECT_EQ(last.At("args").At("submitted").AsUint(), stats.submitted);
  EXPECT_EQ(last.At("args").At("ok").AsUint(), stats.ok);
  EXPECT_EQ(last.At("args").At("faults_injected").AsUint(),
            stats.faults_injected);
  std::remove(path.c_str());
}

TEST_F(DecodeServiceTest, SyncMetricsCountersIsIdempotentAndExactAtStop) {
  // The snapshot publisher's pre-snapshot hook calls this at an
  // arbitrary rate while the service runs; absolute stores mean the
  // repeated live syncs plus Stop()'s final sync still land on the
  // exact totals.
  obs::MetricsRegistry registry;
  ServiceConfig config = BaseConfig();
  config.metrics = &registry;
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 16, 22);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    service.Submit(client, f, frames[f], FarDeadline());
    service.SyncMetricsCounters();  // live, mid-run, many times
  }
  service.Stop();
  service.SyncMetricsCounters();  // once more after the final sync

  const auto stats = service.Stats();
  // Counter() deduplicates by name; the serve family registers with
  // the kScheduling tag.
  const auto lookup = [&registry](const char* name) {
    return registry.MergedCounter(
        registry.Counter(name, obs::Determinism::kScheduling));
  };
  EXPECT_EQ(lookup("serve.submitted"), stats.submitted);
  EXPECT_EQ(lookup("serve.admitted"), stats.admitted);
  EXPECT_EQ(lookup("serve.ok"), stats.ok);
  EXPECT_EQ(lookup("serve.failed"), stats.failed);
}

TEST_F(DecodeServiceTest, DecodeTelemetryReportsLaneUtilisation) {
  // The decoders' decode.* family rides the service's registry: each
  // worker's stream records lane utilisation into its own shard.
  obs::MetricsRegistry registry;
  ServiceConfig config = BaseConfig();
  config.decoder_spec = "fixed-layered-nms-i8:batch=8,iters=12";
  config.max_batch = 8;
  config.metrics = &registry;
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 24, 23);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
  service.Stop();
  EXPECT_EQ(service.Stats().ok, frames.size());

  std::map<std::string, std::uint64_t> counters;
  for (const auto& c : registry.Snapshot().counters) counters[c.name] = c.value;
  const std::uint64_t run = counters.at("decode.lane_iterations_run");
  const std::uint64_t used = counters.at("decode.lane_iterations_used");
  EXPECT_GT(used, 0u);
  EXPECT_LE(used, run);
  EXPECT_GE(counters.at("decode.lane_groups"), 1u);
  // The i8 saturation counters are registered (their values depend
  // on the frames).
  EXPECT_EQ(counters.count("decode.i8_msg_clamps"), 1u);
  EXPECT_EQ(counters.count("decode.i8_bn_saturations"), 1u);
}

TEST_F(DecodeServiceTest, DecodeIterationsSampleEveryOkFrame) {
  obs::MetricsRegistry registry;
  ServiceConfig config = BaseConfig();
  config.decoder_spec = "fixed-layered-nms-i8:batch=8,iters=12";
  config.max_batch = 8;
  config.workers = 2;
  config.metrics = &registry;
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto frames = MakeFrames(code(), 40, 31);
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_EQ(service.Submit(client, f, frames[f], FarDeadline()),
              Admission::kAdmitted);
  service.Stop();
  const auto stats = service.Stats();
  EXPECT_EQ(stats.ok, frames.size());

  const auto view = registry.Snapshot();
  std::uint64_t ok = 0;
  for (const auto& c : view.counters)
    if (c.name == "serve.ok") ok = c.value;
  EXPECT_EQ(ok, stats.ok);
  const auto it = std::find_if(
      view.histograms.begin(), view.histograms.end(),
      [](const auto& h) { return h.name == "decode.iterations"; });
  ASSERT_NE(it, view.histograms.end());
  EXPECT_EQ(it->count, ok);
  EXPECT_GE(it->min, 1);
  EXPECT_LE(it->max, 12);
  EXPECT_EQ(it->det, obs::Determinism::kScheduling);
  // The responses carry the same iteration counts.
  std::uint64_t sum = 0;
  DecodeResponse response;
  while (client.TryPop(response))
    sum += static_cast<std::uint64_t>(response.iterations);
  EXPECT_NEAR(it->mean * static_cast<double>(it->count),
              static_cast<double>(sum), 1e-6);
}

// --- Lane streams on C2 ---------------------------------------------

/// One worker with a standing 32-lane int8 group on the CCSDS C2 code:
/// the configuration where a batch used to deliver after its slowest
/// lane.
class LaneStreamServiceTest : public ::testing::Test {
 protected:
  LaneStreamServiceTest() : system_(codes::LoadCode("c2")) {}

  ServiceConfig Config() const {
    ServiceConfig config;
    config.decoder_spec = "fixed-layered-nms-i8:batch=32";
    config.workers = 1;
    config.max_batch = 32;
    return config;
  }

  const ldpc::LdpcCode& code() const { return *system_.code; }

  /// A frame far below the waterfall: runs the whole 18-iteration
  /// budget without converging (asserted against the offline decode).
  std::vector<double> SlowFrame(std::uint64_t seed) const {
    const std::vector<std::uint8_t> zeros(code().n(), 0);
    return channel::TransmitBpskAwgn(zeros, -2.0, code().Rate(), seed);
  }

  /// All-zero LLRs: the all-zero hard decision satisfies every check
  /// after the first iteration.
  std::vector<double> QuickFrame() const {
    return std::vector<double>(code().n(), 0.0);
  }

  /// Wait until the worker has popped everything submitted so far,
  /// i.e. those frames are in (or being loaded into) its lanes.
  static void AwaitPopped(const DecodeService& service) {
    const auto give_up = ServiceClock::now() + std::chrono::seconds(30);
    while (service.QueueDepth() != 0 && ServiceClock::now() < give_up)
      std::this_thread::yield();
  }

  /// Every response the client holds, in arrival order.
  static std::vector<DecodeResponse> Drain(DecodeClient& client) {
    std::vector<DecodeResponse> out;
    DecodeResponse response;
    while (client.TryPop(response)) out.push_back(response);
    return out;
  }

  codes::CatalogCode system_;
};

TEST_F(LaneStreamServiceTest, QuickFrameOvertakesSlowLaneNeighbour) {
  // Every pull that takes a frame parks the worker for 100 ms before
  // loading it, so the quick frame is submitted while the slow one
  // waits to start: it cannot find the slow frame already finished,
  // however fast the kernel.
  ServiceConfig config = Config();
  config.faults.stall_permille = 1000;
  config.faults.stall_us = 100000;
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto reference = ldpc::MakeDecoder(code(), service.tier_specs()[0]);
  const std::map<std::uint64_t, std::vector<double>> sent = {
      {1, SlowFrame(31)}, {2, QuickFrame()}};
  const auto slow = reference->DecodeBatch(sent.at(1), 1)[0];
  ASSERT_FALSE(slow.converged);
  ASSERT_EQ(slow.iterations_run, 18);

  ASSERT_EQ(service.Submit(client, 1, sent.at(1), FarDeadline()),
            Admission::kAdmitted);
  AwaitPopped(service);
  ASSERT_EQ(service.Submit(client, 2, sent.at(2), FarDeadline()),
            Admission::kAdmitted);
  service.Stop();

  // The quick frame took a free lane beside the slow one and was
  // answered the moment it converged, 17 iterations before its
  // neighbour.
  const auto responses = Drain(client);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].id, 2u);
  EXPECT_EQ(responses[1].id, 1u);
  for (const auto& response : responses) {
    ASSERT_EQ(response.status, Status::kOk);
    const auto expect = reference->DecodeBatch(sent.at(response.id), 1)[0];
    EXPECT_EQ(response.bits, expect.bits) << "frame " << response.id;
    EXPECT_EQ(response.iterations, expect.iterations_run);
    EXPECT_EQ(response.converged, expect.converged);
  }
  EXPECT_EQ(responses[0].iterations, 1);
}

TEST_F(LaneStreamServiceTest, MidStreamThrowFailsOnlyTheFaultedFrame) {
  ServiceConfig config = Config();
  config.faults.seed = 5;
  config.faults.decode_throw_permille = 500;
  const FaultInjector oracle(config.faults);
  // Ids from the seed's oracle: two clean slow frames, then one that
  // throws when the worker pulls it beside them.
  std::vector<std::uint64_t> clean;
  std::uint64_t faulted = 0;
  for (std::uint64_t id = 0; clean.size() < 3 || faulted == 0; ++id) {
    if (!oracle.ThrowInDecode(id)) {
      if (clean.size() < 3) clean.push_back(id);
    } else if (faulted == 0) {
      faulted = id;
    }
  }
  DecodeService service(code(), config);
  auto& client = service.Connect();
  const auto reference = ldpc::MakeDecoder(code(), service.tier_specs()[0]);
  std::map<std::uint64_t, std::vector<double>> sent;
  sent[clean[0]] = SlowFrame(41);
  sent[clean[1]] = SlowFrame(42);
  sent[faulted] = SlowFrame(43);
  sent[clean[2]] = QuickFrame();

  for (const std::uint64_t id : {clean[0], clean[1]})
    ASSERT_EQ(service.Submit(client, id, sent.at(id), FarDeadline()),
              Admission::kAdmitted);
  AwaitPopped(service);
  // Pulled while the two slow frames sit in lanes: the throw leaves
  // the stream mid-decode.
  ASSERT_EQ(service.Submit(client, faulted, sent.at(faulted), FarDeadline()),
            Admission::kAdmitted);
  AwaitPopped(service);
  // The worker keeps serving after the containment.
  ASSERT_EQ(
      service.Submit(client, clean[2], sent.at(clean[2]), FarDeadline()),
      Admission::kAdmitted);
  service.Stop();

  const auto stats = service.Stats();
  ExpectAccountingExact(stats);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.faults_injected, 1u);
  const auto responses = Drain(client);
  ASSERT_EQ(responses.size(), 4u);
  for (const auto& response : responses) {
    if (response.id == faulted) {
      EXPECT_EQ(response.status, Status::kFailed);
      EXPECT_TRUE(response.bits.empty());
      continue;
    }
    ASSERT_EQ(response.status, Status::kOk) << "frame " << response.id;
    const auto expect = reference->DecodeBatch(sent.at(response.id), 1)[0];
    EXPECT_EQ(response.bits, expect.bits) << "frame " << response.id;
    EXPECT_EQ(response.iterations, expect.iterations_run);
    EXPECT_EQ(response.converged, expect.converged);
  }
}

TEST_F(LaneStreamServiceTest, StopAnswersEveryFrameInTheLanes) {
  DecodeService service(code(), Config());
  auto& client = service.Connect();
  const auto reference = ldpc::MakeDecoder(code(), service.tier_specs()[0]);
  std::map<std::uint64_t, std::vector<double>> sent;
  for (std::uint64_t id = 0; id < 6; ++id) {
    sent[id] = SlowFrame(50 + id);
    ASSERT_EQ(service.Submit(client, id, sent.at(id), FarDeadline()),
              Admission::kAdmitted);
  }
  AwaitPopped(service);
  service.Stop();  // lands while all six still run their iterations

  const auto stats = service.Stats();
  ExpectAccountingExact(stats);
  EXPECT_EQ(stats.ok, 6u);
  EXPECT_EQ(stats.shed_shutdown, 0u);
  const auto responses = Drain(client);
  ASSERT_EQ(responses.size(), 6u);
  for (const auto& response : responses) {
    ASSERT_EQ(response.status, Status::kOk);
    const auto expect = reference->DecodeBatch(sent.at(response.id), 1)[0];
    EXPECT_EQ(response.bits, expect.bits) << "frame " << response.id;
  }
}

}  // namespace
}  // namespace cldpc::serve
