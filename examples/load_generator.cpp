// Overload soak for the decode service: calibrate the sustainable
// service rate, then hammer it from several client threads at a
// multiple of that rate — with faults injected — and prove the
// robustness contract: no crash, no deadlock, bounded latency, and
// every single frame accounted for in the exported metrics.
//
//   ./load_generator [--code=<spec>] [--decoder=<spec>] [--workers=N]
//                    [--queue=N] [--max-batch=N] [--clients=N]
//                    [--duration-s=S] [--rate-multiplier=X] [--rate=N]
//                    [--deadline-ms=N] [--calibrate-frames=N]
//                    [--ebn0=dB] [--seed=N]
//                    [--fault-seed=N] [--stall-permille=N] [--stall-us=N]
//                    [--malformed-permille=N] [--throw-permille=N]
//                    [--slow-consumer-permille=N] [--slow-consumer-us=N]
//                    [--metrics] [--metrics-json=<path>]
//                    [--metrics-interval-ms=N] [--metrics-latest=<path>]
//                    [--snapshots-jsonl=<path>] [--events-jsonl=<path>]
//                    [--trace-json=<path>] [--trace-sample=N] [--live]
//
// Two phases:
//   1. Calibration: a pipelined closed loop measures the sustainable
//      decode rate (frames/s) of this build on this machine. --rate=N
//      pins it instead (needed when two runs must drive the same
//      load, e.g. the CI telemetry-overhead comparison).
//   2. Soak: --clients threads submit open-loop at
//      rate-multiplier x that rate (default 2x — deliberate overload)
//      for --duration-s, while the fault plan injects worker stalls,
//      malformed frames, decoder exceptions and slow consumers.
//
// Exit status is the verdict: 0 only if the accounting identities
// hold exactly (submitted == admitted + rejects; admitted == ok +
// shed + failed; deliveries + drops == admitted; with a CRC code,
// ok == check_accepted + check_rejected). The fault plan is fully
// determined by --fault-seed (printed), so a failing soak replays
// exactly.
//
// As the sole holder of the ground-truth codewords, the generator
// also measures the UNDETECTED error rate: an ok response whose
// frame check passed but whose bits differ from the transmitted
// codeword increments serve.undetected (exported, with the UER as a
// gauge) — the quantity a CRC exists to bound.
//
// Live observability: --metrics-interval-ms et al. behave exactly as
// in decode_service (snapshots, live table, emergency flush). With
// --events-jsonl the run ends by REPLAYING the journal against the
// fault oracle: every journaled fault decision must re-derive from
// the seed, and the journal must hold exactly faults_injected fault
// events — a failed replay fails the run like a broken identity.
//
// ^C ends the soak early; everything still drains, verifies and
// exports. A second ^C exits 130 immediately.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "channel/awgn.hpp"
#include "codes/catalog.hpp"
#include "obs/session.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/shutdown.hpp"
#include "util/table.hpp"

namespace {

using namespace cldpc;
using Clock = serve::ServiceClock;

/// Pre-generated traffic: a pool of distinct noisy frames the clients
/// cycle through, so the submit loops measure the service, not the
/// channel frontend. The transmitted codewords ride along as the
/// ground truth only this process holds — what the undetected-error
/// accounting compares ok responses against.
struct FramePool {
  std::vector<std::vector<double>> llrs;
  std::vector<std::vector<std::uint8_t>> codewords;
  std::size_t size() const { return llrs.size(); }
};

FramePool MakeFramePool(const codes::CatalogCode& system, double ebn0,
                        std::uint64_t seed, std::size_t count) {
  const auto& code = *system.code;
  const double sigma = channel::SigmaForEbN0(ebn0, code.Rate());
  FramePool pool;
  std::vector<std::uint8_t> info(code.k());
  for (std::size_t f = 0; f < count; ++f) {
    // Protocol-aware generation when the code has in-band structure
    // (FT8's CRC-14 payload): only frame_source frames can PASS the
    // frame check — random info bits would fail it by construction.
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
    std::vector<double> llrs(code.n());
    ch.TransmitLlrsInto(symbols, llrs);
    pool.llrs.push_back(std::move(llrs));
    pool.codewords.push_back(std::move(codeword));
  }
  return pool;
}

/// Phase 1: sustainable rate, measured with a pipelined closed loop
/// (enough frames outstanding to keep every worker busy, never enough
/// to trip admission control).
double CalibrateRate(serve::DecodeService& service, const FramePool& pool,
                     std::uint64_t frames) {
  serve::DecodeClient& client = service.Connect();
  const std::size_t pipeline =
      2 * service.config().workers * service.config().max_batch;
  const auto far_deadline = Clock::now() + std::chrono::hours(1);
  std::uint64_t submitted = 0, done = 0;
  const auto t0 = Clock::now();
  serve::DecodeResponse response;
  while (done < frames && !util::ShutdownRequested()) {
    while (submitted < frames && submitted - done < pipeline) {
      if (service.Submit(client, submitted,
                         pool.llrs[submitted % pool.size()],
                         far_deadline) != serve::Admission::kAdmitted)
        break;  // ring momentarily full: drain first
      ++submitted;
    }
    if (client.WaitPop(response, std::chrono::microseconds(100000))) ++done;
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  // Drain the tail even when interrupted, so the service's counters
  // are settled before the soak's delta accounting snapshots them.
  while (done < submitted &&
         client.WaitPop(response, std::chrono::microseconds(200000)))
    ++done;
  return elapsed > 0.0 && done > 0 ? static_cast<double>(done) / elapsed : 1.0;
}

struct ClientTotals {
  std::uint64_t submitted = 0, admitted = 0, rejected_full = 0,
                rejected_malformed = 0, rejected_shutdown = 0, responses = 0,
                ok = 0, malformed_sent = 0,
                // Frame-check verdicts as DELIVERED to this client
                // (dropped responses are counted service-side only),
                // and the undetected errors among them: check passed
                // but bits != the transmitted codeword.
                checked = 0, check_failed = 0, undetected = 0;
};

/// Satellite: replay the event journal against the seed's fault
/// oracle. Validates the cldpc-events-v1 frame (schema tag,
/// contiguous seq, closed serve kind set), re-derives every journaled
/// fault decision from the oracle, and requires the journal to hold
/// exactly `faults_injected` fault events — bit-exact agreement
/// between what the service says happened and what the seed says must
/// happen.
bool VerifyJournalReplay(const std::string& path,
                         const serve::FaultInjector& faults,
                         std::uint64_t faults_injected) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "JOURNAL FAIL: cannot reopen %s\n", path.c_str());
    return false;
  }
  bool ok = true;
  auto fail = [&ok](const std::string& what) {
    std::fprintf(stderr, "JOURNAL FAIL: %s\n", what.c_str());
    ok = false;
  };
  std::uint64_t expect_seq = 0, fault_events = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    util::JsonValue doc = util::JsonValue::Parse(line);
    if (doc.At("schema").AsString() != "cldpc-events-v1")
      fail("bad schema tag at seq " + std::to_string(expect_seq));
    if (doc.At("seq").AsUint() != expect_seq)
      fail("seq gap: got " + std::to_string(doc.At("seq").AsUint()) +
           ", want " + std::to_string(expect_seq));
    ++expect_seq;
    const std::string& kind = doc.At("kind").AsString();
    const auto& args = doc.At("args");
    if (kind == "fault_stall") {
      ++fault_events;
      if (!faults.StallBatch(args.At("batch_id").AsUint()))
        fail("journaled stall of batch " +
             std::to_string(args.At("batch_id").AsUint()) +
             " not derivable from the fault seed");
    } else if (kind == "fault_throw") {
      ++fault_events;
      if (!faults.ThrowInDecode(args.At("frame_id").AsUint()))
        fail("journaled throw on frame " +
             std::to_string(args.At("frame_id").AsUint()) +
             " not derivable from the fault seed");
    } else if (kind != "tier_change" && kind != "client_drop" &&
               kind != "service_stop") {
      fail("unknown serve event kind '" + kind + "'");
    }
  }
  if (fault_events != faults_injected)
    fail("journaled fault events (" + std::to_string(fault_events) +
         ") != faults_injected (" + std::to_string(faults_injected) + ")");
  if (ok)
    std::printf("Journal replay: %llu events, %llu fault decisions all "
                "re-derived from seed — bit-exact.\n",
                static_cast<unsigned long long>(expect_seq),
                static_cast<unsigned long long>(fault_events));
  return ok;
}

int RunMain(int argc, char** argv) {
  const ArgParser args(argc, argv);

  const auto system = codes::LoadCode(args.GetString("code", "medium"));
  const auto& code = *system.code;
  const std::uint64_t seed = args.GetUint("seed", 1);
  const double ebn0 = args.GetDouble("ebn0", 4.0);
  const std::size_t clients =
      static_cast<std::size_t>(args.GetInt("clients", 2));
  const double duration_s = args.GetDouble("duration-s", 10.0);
  const double multiplier = args.GetDouble("rate-multiplier", 2.0);
  const auto deadline_ms =
      std::chrono::milliseconds(args.GetInt("deadline-ms", 50));

  serve::ServiceConfig config;
  config.decoder_spec = args.GetString("decoder", "layered-nms:batch=8");
  config.workers = static_cast<std::size_t>(args.GetInt("workers", 1));
  config.queue_capacity = static_cast<std::size_t>(args.GetInt("queue", 256));
  config.max_batch = static_cast<std::size_t>(args.GetInt("max-batch", 8));
  config.faults.seed = args.GetUint("fault-seed", seed);
  config.faults.stall_permille =
      static_cast<std::uint32_t>(args.GetInt("stall-permille", 0));
  config.faults.stall_us =
      static_cast<std::uint32_t>(args.GetInt("stall-us", 2000));
  config.faults.malformed_permille =
      static_cast<std::uint32_t>(args.GetInt("malformed-permille", 0));
  config.faults.decode_throw_permille =
      static_cast<std::uint32_t>(args.GetInt("throw-permille", 0));
  config.faults.slow_consumer_permille =
      static_cast<std::uint32_t>(args.GetInt("slow-consumer-permille", 0));
  config.faults.slow_consumer_us =
      static_cast<std::uint32_t>(args.GetInt("slow-consumer-us", 1000));

  obs::Session obs_session(
      args, {.trace = true, .live = true, .live_table = true});
  config.metrics = obs_session.metrics();
  config.journal = obs_session.journal();
  config.trace_sample_every = args.GetUint("trace-sample", 0);
  // The generator holds the ground truth, so it owns the undetected
  // counter. Registered BEFORE the service (and thus before the
  // publisher): registration resizes shard vectors and must never
  // race a live Snapshot().
  obs::MetricsRegistry& registry = obs_session.registry();
  const obs::CounterId undetected_id =
      registry.Counter("serve.undetected", obs::Determinism::kScheduling);
  config.frame_check = system.frame_check;

  util::InstallShutdownHandler();

  std::printf("Code %s (%zu, %zu), decoder %s, %zu worker(s), queue %zu, "
              "fault seed %llu (replay with --fault-seed=%llu)\n",
              system.name.c_str(), code.n(), code.k(),
              config.decoder_spec.c_str(), config.workers,
              config.queue_capacity,
              static_cast<unsigned long long>(config.faults.seed),
              static_cast<unsigned long long>(config.faults.seed));

  const auto pool = MakeFramePool(system, ebn0, seed, 64);
  serve::DecodeService service(code, config);
  // The fault oracle mirrors the service's: generator-side faults
  // (malformed frames, slow consumers) come from the same plan, so
  // one seed reproduces the whole run.
  const serve::FaultInjector faults(config.faults);

  // Started only after every counter (the service's and
  // serve.undetected above) is registered.
  const auto publisher = obs_session.StartPublisher(
      [&service] { service.SyncMetricsCounters(); });

  // --rate pins the offered rate (frames/s, pre-multiplier) instead
  // of calibrating it — required when comparing runs (e.g. the
  // telemetry overhead checks): calibration is wall-clock-sensitive,
  // so two calibrated runs drive different loads.
  const double fixed_rate = args.GetDouble("rate", 0.0);
  double sustainable;
  if (fixed_rate > 0.0) {
    sustainable = fixed_rate;
    std::printf("Pinned rate %.0f frames/s (skipping calibration)\n",
                sustainable);
  } else {
    const std::uint64_t calibrate_frames =
        args.GetUint("calibrate-frames", 256);
    std::printf("Calibrating sustainable rate (%llu frames)...\n",
                static_cast<unsigned long long>(calibrate_frames));
    sustainable = CalibrateRate(service, pool, calibrate_frames);
  }
  // Everything before this snapshot is calibration traffic; the soak
  // accounting below works on deltas against it.
  const auto cal = service.Stats();
  const double target_rate = sustainable * multiplier;
  const double per_client = target_rate / static_cast<double>(clients);
  std::printf("Sustainable %.0f frames/s -> driving %.0f frames/s "
              "(%.1fx) from %zu client(s) for %.1f s\n",
              sustainable, target_rate, multiplier, clients, duration_s);

  // Phase 2: open-loop overload from `clients` threads.
  std::vector<ClientTotals> totals(clients);
  std::vector<std::thread> threads;
  const auto soak_start = Clock::now();
  const auto soak_end =
      soak_start + std::chrono::microseconds(
                       static_cast<std::int64_t>(duration_s * 1e6));
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::DecodeClient& client = service.Connect();
      ClientTotals& t = totals[c];
      const auto interval = std::chrono::nanoseconds(
          static_cast<std::int64_t>(1e9 / per_client));
      auto next = Clock::now();
      std::uint64_t cycle = 0;
      serve::DecodeResponse response;
      // Ids are globally unique and encode the client, so fault
      // decisions stay per-frame reproducible.
      std::uint64_t frame_id = (static_cast<std::uint64_t>(c) + 1) << 32;
      // Terminal accounting for one delivered response, including the
      // ground-truth comparison behind serve.undetected.
      const auto account = [&t, &pool](const serve::DecodeResponse& response) {
        ++t.responses;
        if (response.status != serve::Status::kOk) return;
        ++t.ok;
        if (!response.checked) return;
        ++t.checked;
        if (!response.check_passed) {
          ++t.check_failed;
        } else if (response.bits !=
                   pool.codewords[response.id % pool.size()]) {
          ++t.undetected;  // the check LIED — the quantity UER bounds
        }
      };
      while (Clock::now() < soak_end && !util::ShutdownRequested()) {
        // Open loop: the submit happens on schedule whether or not
        // the service kept up — that is what makes it an overload.
        std::this_thread::sleep_until(next);
        next += interval;
        auto llrs = pool.llrs[frame_id % pool.size()];
        ++t.submitted;
        const bool malformed = faults.MalformFrame(frame_id);
        if (malformed) {
          ++t.malformed_sent;
          llrs.resize(llrs.size() / 2);  // truncated frame
        }
        switch (service.Submit(client, frame_id++, std::move(llrs),
                               Clock::now() + deadline_ms)) {
          case serve::Admission::kAdmitted: ++t.admitted; break;
          case serve::Admission::kRejectedFull: ++t.rejected_full; break;
          case serve::Admission::kRejectedMalformed:
            ++t.rejected_malformed;
            break;
          case serve::Admission::kRejectedShutdown:
            ++t.rejected_shutdown;
            break;
        }
        // Drain whatever is ready; a slow-consumer fault delays the
        // drain cycle, forcing the service down its drop-and-count
        // path instead of blocking.
        if (faults.SlowConsume(c, cycle++))
          std::this_thread::sleep_for(
              std::chrono::microseconds(config.faults.slow_consumer_us));
        while (client.TryPop(response)) account(response);
      }
      // Collect the tail: the service finishes everything admitted.
      while (client.WaitPop(response, std::chrono::microseconds(200000)))
        account(response);
    });
  }
  for (auto& thread : threads) thread.join();
  const double soak_elapsed =
      std::chrono::duration<double>(Clock::now() - soak_start).count();
  service.Stop();

  // The verdict: every frame the clients ever submitted must appear
  // in exactly one service counter, and every admitted frame must
  // have been delivered or counted as dropped.
  ClientTotals sum;
  for (const auto& t : totals) {
    sum.submitted += t.submitted;
    sum.admitted += t.admitted;
    sum.rejected_full += t.rejected_full;
    sum.rejected_malformed += t.rejected_malformed;
    sum.rejected_shutdown += t.rejected_shutdown;
    sum.responses += t.responses;
    sum.ok += t.ok;
    sum.malformed_sent += t.malformed_sent;
    sum.checked += t.checked;
    sum.check_failed += t.check_failed;
    sum.undetected += t.undetected;
  }
  const auto stats = service.Stats();
  bool pass = true;
  auto check = [&pass](bool ok_cond, const char* what) {
    if (!ok_cond) {
      std::fprintf(stderr, "ACCOUNTING FAIL: %s\n", what);
      pass = false;
    }
  };
  check(stats.submitted == stats.admitted + stats.rejected_full +
                               stats.rejected_malformed +
                               stats.rejected_shutdown,
        "submitted != admitted + rejects");
  check(stats.admitted == stats.ok + stats.shed_expired + stats.failed +
                              stats.shed_shutdown,
        "admitted != ok + shed_expired + failed + shed_shutdown");
  check(sum.responses + (stats.responses_dropped - cal.responses_dropped) ==
            stats.admitted - cal.admitted,
        "client deliveries + drops != soak admitted frames");
  check(sum.submitted == stats.submitted - cal.submitted,
        "generator/service submit mismatch");
  check(stats.rejected_malformed == sum.malformed_sent,
        "malformed frames not all rejected at admission");
  if (system.frame_check) {
    // With the CRC armed, every ok decode carries exactly one
    // verdict.
    check(stats.ok == stats.check_accepted + stats.check_rejected,
          "ok != check_accepted + check_rejected");
  }

  TablePrinter table({"Counter", "Value"});
  table.AddRow({"Soak frames submitted", std::to_string(sum.submitted)});
  table.AddRow({"  admitted", std::to_string(sum.admitted)});
  table.AddRow({"  rejected (queue full)", std::to_string(sum.rejected_full)});
  table.AddRow({"  rejected (malformed)",
                std::to_string(sum.rejected_malformed)});
  table.AddRow({"  rejected (shutdown)",
                std::to_string(sum.rejected_shutdown)});
  const std::uint64_t soak_ok = stats.ok - cal.ok;
  table.AddRow({"Decoded ok", std::to_string(soak_ok)});
  table.AddRow({"Shed (deadline expired)",
                std::to_string(stats.shed_expired - cal.shed_expired)});
  table.AddRow({"Failed (decoder fault)",
                std::to_string(stats.failed - cal.failed)});
  table.AddRow({"Shed (shutdown)",
                std::to_string(stats.shed_shutdown - cal.shed_shutdown)});
  table.AddRow({"Responses dropped (slow client)",
                std::to_string(stats.responses_dropped -
                               cal.responses_dropped)});
  table.AddRow({"Tier 0 / 1 / 2 frames",
                std::to_string(stats.tier_frames[0] - cal.tier_frames[0]) +
                    " / " +
                    std::to_string(stats.tier_frames[1] -
                                   cal.tier_frames[1]) +
                    " / " +
                    std::to_string(stats.tier_frames[2] -
                                   cal.tier_frames[2])});
  table.AddRow({"Faults injected",
                std::to_string(stats.faults_injected - cal.faults_injected)});
  if (system.frame_check) {
    table.AddRow({"Checked / check-failed / undetected",
                  std::to_string(sum.checked) + " / " +
                      std::to_string(sum.check_failed) + " / " +
                      std::to_string(sum.undetected)});
  }
  table.AddRow({"Sustained ok rate",
                std::to_string(static_cast<std::uint64_t>(
                    soak_elapsed > 0.0
                        ? static_cast<double>(soak_ok) / soak_elapsed
                        : 0.0)) +
                    " frames/s"});
  std::printf("\n%s", table.Render("Soak results").c_str());

  if (obs_session.metrics() != nullptr) {
    for (const auto& h : registry.Snapshot().histograms) {
      if (h.name != "serve.admission_us" && h.name != "serve.decode_us")
        continue;
      std::printf("%s: p50 %lld us, p99 %lld us (n=%llu)\n", h.name.c_str(),
                  static_cast<long long>(h.p50),
                  static_cast<long long>(h.p99),
                  static_cast<unsigned long long>(h.count));
    }
    registry.SetGauge("serve.soak_elapsed_seconds", soak_elapsed);
    registry.SetGauge("serve.soak_sustained_ok_fps",
                      soak_elapsed > 0.0
                          ? static_cast<double>(soak_ok) / soak_elapsed
                          : 0.0);
    registry.SetGauge("serve.calibrated_sustainable_fps", sustainable);
    // Undetected-error accounting: only this process can compute it
    // (it holds the codewords), so it lands in the registry here —
    // before the publisher's final snapshot, which must include it.
    registry.shard(0).Add(undetected_id, sum.undetected);
    registry.SetGauge("serve.uer",
                      sum.checked > 0
                          ? static_cast<double>(sum.undetected) /
                                static_cast<double>(sum.checked)
                          : 0.0);
  }
  // Final exact snapshot (the service flushed in Stop(); deltas
  // telescope to these totals), the journal closed, then the export.
  obs_session.Export();

  if (const auto* journal = obs_session.journal()) {
    bool replay_ok = false;
    try {
      replay_ok = VerifyJournalReplay(journal->path(), faults,
                                      stats.faults_injected);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "JOURNAL FAIL: %s\n", e.what());
    }
    pass = pass && replay_ok;
  }

  if (!pass) return 1;
  std::printf("\nPASS: every frame accounted for (%llu submitted this soak), "
              "no deadlock, clean shutdown.\n",
              static_cast<unsigned long long>(sum.submitted));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return cldpc::GuardedMain(argc, argv, RunMain);
}
