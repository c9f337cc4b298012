// Minimal decode-service client: stand up a DecodeService, feed it
// noisy frames, read the responses back, and prove the service
// decodes exactly what the batch path would.
//
//   ./decode_service [--code=<spec>] [--decoder=<spec>]
//                    [--frames=N] [--ebn0=dB] [--workers=N]
//                    [--queue=N] [--deadline-ms=N] [--seed=N]
//                    [--stall-permille=N] [--throw-permille=N]
//                    [--fault-seed=N]
//                    [--metrics] [--metrics-json=<path>]
//                    [--metrics-interval-ms=N] [--metrics-latest=<path>]
//                    [--snapshots-jsonl=<path>] [--events-jsonl=<path>]
//                    [--trace-json=<path>] [--trace-sample=N] [--live]
//
// Frames are generated like the Monte-Carlo engine generates them
// (encoder + BPSK/AWGN, per-frame DeriveSeed streams), submitted with
// a deadline, and every kOk response is checked byte-for-byte against
// a direct MakeDecoder(...)->DecodeBatch decode under the same tier
// spec — the service's bit-identity guarantee, verified live.
//
// Live observability (see README "Observability"): with
// --metrics-interval-ms > 0 a SnapshotPublisher emits
// cldpc-metrics-snapshot-v1 documents on the interval —
// --metrics-latest gets the newest one atomically renamed into place,
// --snapshots-jsonl the whole history, --live a "top"-style terminal
// table per tick. --events-jsonl appends the cldpc-events-v1 journal
// (tier changes, client drops, injected faults, stop).
// --trace-sample=N traces every Nth request's lifecycle into
// --trace-json (chrome://tracing).
//
// ^C stops submitting; the service drains what was admitted and the
// summary (plus --metrics-json) still comes out, exit 0. If the drain
// itself is interrupted, the publisher's emergency flush has already
// written a valid cldpc-metrics-v1 doc to the --metrics-json path.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/awgn.hpp"
#include "codes/catalog.hpp"
#include "ldpc/core/registry.hpp"
#include "obs/session.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/shutdown.hpp"

namespace {

int RunMain(int argc, char** argv) {
  using namespace cldpc;
  const ArgParser args(argc, argv);

  const auto system = codes::LoadCode(args.GetString("code", "medium"));
  const auto& code = *system.code;
  const std::uint64_t frames = args.GetUint("frames", 64);
  const double ebn0 = args.GetDouble("ebn0", 4.0);
  const std::uint64_t seed = args.GetUint("seed", 1);
  const auto deadline_ms =
      std::chrono::milliseconds(args.GetInt("deadline-ms", 250));

  serve::ServiceConfig config;
  config.decoder_spec = args.GetString("decoder", "layered-nms:batch=8");
  config.workers = static_cast<std::size_t>(args.GetInt("workers", 1));
  config.queue_capacity = static_cast<std::size_t>(args.GetInt("queue", 64));
  config.faults.seed = args.GetUint("fault-seed", seed);
  config.faults.stall_permille =
      static_cast<std::uint32_t>(args.GetInt("stall-permille", 0));
  config.faults.decode_throw_permille =
      static_cast<std::uint32_t>(args.GetInt("throw-permille", 0));

  obs::Session obs_session(
      args, {.trace = true, .live = true, .live_table = true});
  config.metrics = obs_session.metrics();
  config.journal = obs_session.journal();
  config.trace_sample_every = args.GetUint("trace-sample", 0);

  // The catalog's integrity check (CRC codes): every ok decode is
  // checked before delivery and the verdict counted.
  config.frame_check = system.frame_check;

  util::InstallShutdownHandler();

  serve::DecodeService service(code, config);

  // Started after the service registered all its metrics.
  const auto publisher = obs_session.StartPublisher(
      [&service] { service.SyncMetricsCounters(); });
  serve::DecodeClient& client = service.Connect();
  std::printf("Service: code %s (%zu, %zu), decoder %s, %zu worker(s), "
              "queue %zu\n",
              system.name.c_str(), code.n(), code.k(),
              config.decoder_spec.c_str(), config.workers,
              service.config().queue_capacity);

  // Reference decoders, one per shedding tier, built from the
  // service's own canonical tier specs — the offline replay of what
  // the service ran.
  std::vector<std::unique_ptr<ldpc::Decoder>> reference;
  for (const auto& spec : service.tier_specs())
    reference.push_back(ldpc::MakeDecoder(code, spec));

  const double sigma = channel::SigmaForEbN0(ebn0, code.Rate());
  std::map<std::uint64_t, std::vector<double>> sent;  // id -> llrs
  std::uint64_t submitted = 0, rejected = 0, received = 0, ok = 0,
                mismatches = 0;
  std::vector<std::uint8_t> info(code.k());

  for (std::uint64_t f = 0; f < frames; ++f) {
    if (util::ShutdownRequested()) break;
    // Same per-frame stream discipline as the engine: data stream 1,
    // noise stream 2, all derived from (seed, frame). Codes with
    // in-band structure use their frame_source so the frame check
    // sees valid frames.
    std::vector<std::uint8_t> codeword(code.n());
    if (system.frame_source) {
      system.frame_source(DeriveSeed(seed, 0, f, 1), codeword);
    } else {
      Xoshiro256pp data_rng(DeriveSeed(seed, 0, f, 1));
      for (auto& b : info) b = data_rng.NextBit() ? 1 : 0;
      codeword = system.encoder->Encode(info);
    }
    const auto symbols = channel::BpskModulate(codeword);
    channel::AwgnChannel ch(sigma, DeriveSeed(seed, 0, f, 2));
    auto llrs = ch.Transmit(symbols);
    llrs = ch.Llrs(llrs);

    const auto deadline = serve::ServiceClock::now() + deadline_ms;
    ++submitted;
    const auto verdict = service.Submit(client, f, llrs, deadline);
    if (verdict == serve::Admission::kAdmitted) {
      sent.emplace(f, std::move(llrs));
    } else {
      ++rejected;
      std::printf("frame %llu: %s\n", static_cast<unsigned long long>(f),
                  serve::ToString(verdict));
    }

    // Drain opportunistically so the client ring never backs up.
    serve::DecodeResponse response;
    while (client.TryPop(response)) {
      ++received;
      if (response.status != serve::Status::kOk) {
        std::printf("frame %llu: %s (tier %d, %lld us)\n",
                    static_cast<unsigned long long>(response.id),
                    serve::ToString(response.status), response.tier,
                    static_cast<long long>(response.latency_us));
        continue;
      }
      ++ok;
      // Bit-identity check: the service's answer must equal a direct
      // decode of the same LLRs under the tier's canonical spec.
      const auto expect = reference[static_cast<std::size_t>(response.tier)]
                              ->DecodeBatch(sent.at(response.id), 1);
      if (expect[0].bits != response.bits) ++mismatches;
    }
  }

  // Everything admitted gets a response once the service drains.
  service.Stop();
  serve::DecodeResponse response;
  while (client.TryPop(response)) {
    ++received;
    if (response.status == serve::Status::kOk) {
      ++ok;
      const auto expect = reference[static_cast<std::size_t>(response.tier)]
                              ->DecodeBatch(sent.at(response.id), 1);
      if (expect[0].bits != response.bits) ++mismatches;
    }
  }

  const auto stats = service.Stats();
  std::printf("\nSubmitted %llu, rejected %llu, responses %llu "
              "(ok %llu, shed %llu, failed %llu), mismatches %llu\n",
              static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(received),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(stats.shed_expired +
                                              stats.shed_shutdown),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(mismatches));
  if (system.frame_check) {
    std::printf("Frame check: %llu accepted, %llu rejected of %llu ok\n",
                static_cast<unsigned long long>(stats.check_accepted),
                static_cast<unsigned long long>(stats.check_rejected),
                static_cast<unsigned long long>(stats.ok));
  }
  // Final snapshot (exact: the service flushed in Stop()), then the
  // journal's service_stop line is on disk.
  obs_session.Stop();
  if (mismatches != 0) {
    std::fprintf(stderr, "FAIL: service responses diverged from the direct "
                         "batch decode\n");
    return 1;
  }
  std::printf("Every ok response matched the direct batch decode "
              "byte-for-byte.\n");
  obs_session.Export();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
