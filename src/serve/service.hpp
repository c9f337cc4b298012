// Persistent, overload-robust decode service on top of the engine's
// per-worker decoder slots (engine::DecoderPool).
//
// Batch simulation (engine/sim_engine.hpp) owns its frame supply; a
// service does not — traffic arrives when clients feel like it, at
// rates the operator does not control. DecodeService therefore puts
// three robustness mechanisms between the network-facing edge and the
// decoder, in escalating order of pressure (the full curve is
// documented in serve/shed.hpp):
//
//   1. Admission control. Frames enter through a bounded MPMC ring
//      (serve/ring.hpp). A full ring rejects the frame immediately
//      with Admission::kRejectedFull — the service never queues
//      unboundedly and never blocks a client thread.
//   2. Deadline shedding. Every request carries a deadline; a worker
//      drops frames whose deadline already expired when it pops them,
//      before spending any decode work on them (Status::kShedExpired).
//   3. Iteration-budget shedding. Queue occupancy watermarks select a
//      tier (serve/shed.hpp); higher tiers decode with a shrunken
//      IterOptions budget, trading a little BER for service rate so
//      the queue drains instead of collapsing.
//
// ## Workers pull the ring; decode fidelity
//
// Worker w runs its tier decoder's DecodeStream over a FrameFeed on
// the ring: a free lane takes the next admitted frame at the next
// iteration boundary, and each frame is answered the moment its lane
// finishes. A stream runs at one tier; when a pull's occupancy sample
// selects another, the lanes drain and the stream restarts on that
// tier's decoder — the configured registry spec with only `iters=`
// overridden. The DecodeStream contract (ldpc/decoder.hpp) makes a
// frame's result independent of what shares its lanes, so accepted
// frames are byte-identical to MakeDecoder(code, tier_specs()[tier])
// decoding them directly (locked by tests/test_serve.cpp).
//
// ## Accounting
//
// Every submitted frame ends in exactly one terminal state, and the
// counters add up exactly (tests assert the identities):
//
//   submitted == admitted + rejected_full + rejected_malformed
//                + rejected_shutdown
//   admitted  == ok + shed_expired + failed + shed_shutdown
//
// Responses travel to each client through that client's own bounded
// ring; a slow consumer overflows it and the response is dropped and
// counted (responses_dropped) — the frame's accounting state is
// unaffected (it was decoded; delivery failed), and the service never
// blocks on a client.
//
// ## Frame checks (UER)
//
// With ServiceConfig::frame_check set (the catalog CRC hook), every
// kOk decode's hard decisions are checked before delivery; the
// response carries the verdict and the service counts
// serve.check_accepted / serve.check_rejected (ok == accepted +
// rejected when armed). An UNDETECTED error — check passed but bits
// wrong — is only observable by a caller holding the ground truth;
// the load_generator computes serve.undetected and the UER from it.
//
// ## Faults, metrics, shutdown
//
// A FaultPlan (serve/fault.hpp) injects worker stalls and per-frame
// decoder exceptions deterministically from its seed. An injected
// exception throws out of its frame's pull, mid-stream; the worker
// then decodes every frame it still holds on its own, so only
// throwing frames fail (Status::kFailed).
//
// With ServiceConfig::metrics set, the service registers the serve.*
// metric family (counters for every terminal state, tier counters,
// admission/decode latency and queue-depth histograms) and the lane
// decoders' decode.* family — glossary in the README — and exports
// through the standard cldpc-metrics-v1 surface. Counter totals are
// published with SyncMetricsCounters() — absolute, idempotent stores
// the snapshot publisher's pre-snapshot hook calls live and Stop()
// calls once more for the exact finale; live histograms are recorded
// into per-worker shards like the engine's.
//
// ## Lifecycle tracing and the event journal
//
// Every admitted request gets a monotonic trace id (echoed in its
// response). With the registry's tracing enabled and
// trace_sample_every = N, every request whose id satisfies the
// seed-deterministic sampling rule (trace_id % N == faults.seed % N)
// emits request-scoped chrome://tracing spans: "req.queue" (submit ->
// dequeue) and "req.decode" (dequeue -> terminal), both on the
// worker's track, each carrying trace_id / tier / status args.
// Sampling keeps the hot path inside the telemetry overhead budget
// (bench/OBS_OVERHEAD.md). With ServiceConfig::journal set, discrete
// transitions (shed-tier changes, client drops, injected faults,
// stop) are appended as cldpc-events-v1 lines — fault events at
// exactly the counter-increment sites, so the journal replays against
// the FaultInjector oracle bit-exactly.
//
// Stop() (also run by the destructor) is graceful: admission closes,
// the workers finish the frames in their lanes and drain the ring
// (still applying deadline shedding — or discarding it as
// shed_shutdown when drain_on_stop is false), and all counters/metrics
// are final when Stop returns.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/decoder_pool.hpp"
#include "ldpc/code.hpp"
#include "obs/metrics.hpp"
#include "serve/fault.hpp"
#include "serve/ring.hpp"
#include "serve/shed.hpp"
#include "sim/ber_runner.hpp"

namespace cldpc::obs {
class EventJournal;
}

namespace cldpc::serve {

using ServiceClock = std::chrono::steady_clock;

/// Outcome of a Submit call (the admission edge).
enum class Admission : std::uint8_t {
  kAdmitted,           // queued; a response will be produced
  kRejectedFull,       // ring at capacity — retry later or back off
  kRejectedMalformed,  // wrong LLR count or non-finite LLRs
  kRejectedShutdown,   // service is stopping
};
const char* ToString(Admission a);

/// Terminal state of an admitted frame (carried by its response).
enum class Status : std::uint8_t {
  kOk,            // decoded; bits/iterations/converged are valid
  kShedExpired,   // deadline passed before decode started
  kFailed,        // decoder threw (injected or genuine)
  kShedShutdown,  // service stopped with drain_on_stop=false
};
const char* ToString(Status s);

struct DecodeResponse {
  std::uint64_t id = 0;  // echo of the submitted request id
  Status status = Status::kShedShutdown;
  std::vector<std::uint8_t> bits;  // hard decisions (kOk only)
  std::int32_t iterations = 0;
  bool converged = false;
  /// Shedding tier the frame was decoded under (kOk/kFailed).
  std::int32_t tier = 0;
  /// Submit -> response-ready latency.
  std::int64_t latency_us = 0;
  /// Monotonic lifecycle trace id assigned at admission (>= 1).
  std::uint64_t trace_id = 0;
  /// Frame-check verdict (kOk with ServiceConfig::frame_check only).
  bool checked = false;
  bool check_passed = false;
};

struct ServiceConfig {
  /// Registry decoder spec (ldpc/core/registry.hpp grammar). Its
  /// iters= param (default 18) is the tier-0 budget.
  std::string decoder_spec = "layered-nms:batch=8";
  std::size_t workers = 1;
  /// Admission ring capacity (rounded up to a power of two).
  std::size_t queue_capacity = 256;
  /// Max undelivered frames one worker holds (and its lane group's
  /// max width). Batched SIMD specs want this at least their lanes.
  std::size_t max_batch = 8;
  /// Per-client response ring capacity.
  std::size_t client_queue_capacity = 256;
  ShedPolicy shed;
  FaultPlan faults;
  /// Stop(): decode what was admitted (true) or discard it as
  /// shed_shutdown (false).
  bool drain_on_stop = true;
  /// Optional decode telemetry (borrowed; must outlive the service).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional frame integrity check (the catalog CRC hook) applied to
  /// every kOk decode's hard decisions — see the class comment.
  sim::FrameCheck frame_check;
  /// Optional event journal (borrowed; must outlive the service).
  obs::EventJournal* journal = nullptr;
  /// Lifecycle-trace sampling: trace every Nth admitted request
  /// (0 = off). Needs metrics with tracing enabled. Deterministic in
  /// (trace_id, faults.seed), so one seed replays the sampled set.
  std::uint64_t trace_sample_every = 0;
};

/// Totals since construction. Final (and exactly consistent with the
/// accounting identities above) once Stop() has returned; sampled
/// live they can lag by in-flight frames.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t admitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed_expired = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed_shutdown = 0;
  std::uint64_t responses_dropped = 0;
  std::uint64_t tier_frames[kNumShedTiers] = {0, 0, 0};
  std::uint64_t faults_injected = 0;
  /// Frame-check verdicts (ok == check_accepted + check_rejected
  /// when ServiceConfig::frame_check is set; both 0 otherwise).
  std::uint64_t check_accepted = 0;
  std::uint64_t check_rejected = 0;
};

class DecodeService;

/// A client's receive side: every response to frames this client
/// submitted lands in its own bounded ring. Create via
/// DecodeService::Connect; the service owns the object (stable
/// address for the service's lifetime).
class DecodeClient {
 public:
  /// Non-blocking response fetch.
  bool TryPop(DecodeResponse& out) { return ring_.TryPop(out); }

  /// Blocking fetch with timeout; false on timeout or service stop
  /// with nothing pending.
  bool WaitPop(DecodeResponse& out, std::chrono::microseconds timeout);

  /// Responses dropped because this client's ring was full — the
  /// slow-consumer signal.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  std::uint32_t id() const { return id_; }

 private:
  friend class DecodeService;
  DecodeClient(std::uint32_t id, std::size_t capacity)
      : id_(id), ring_(capacity) {}

  /// Service-side delivery: push or drop-and-count, never block.
  /// Returns false iff the response was dropped (slow consumer).
  bool Deliver(DecodeResponse&& response);

  const std::uint32_t id_;
  BoundedRing<DecodeResponse> ring_;
  std::mutex mutex_;                // doorbell for WaitPop
  std::condition_variable ready_;
  std::atomic<std::uint64_t> dropped_{0};
};

class DecodeService {
 public:
  /// Validates the decoder spec and shed policy eagerly (throws
  /// std::invalid_argument via the registry for malformed specs), and
  /// starts the `workers` decode workers. `code` must outlive the
  /// service.
  DecodeService(const ldpc::LdpcCode& code, ServiceConfig config);
  ~DecodeService();

  DecodeService(const DecodeService&) = delete;
  DecodeService& operator=(const DecodeService&) = delete;

  /// Register a client. Thread-safe; the reference stays valid for
  /// the service's lifetime.
  DecodeClient& Connect();

  /// Submit one frame of channel LLRs (length n()) with a deadline.
  /// Never blocks: the result is the admission verdict, the decode
  /// outcome arrives on `client`. `id` is the caller's correlation
  /// id, echoed in the response.
  Admission Submit(DecodeClient& client, std::uint64_t id,
                   std::vector<double> llrs, ServiceClock::time_point deadline);

  /// Graceful shutdown (idempotent; also run by the destructor): see
  /// the class comment. All stats and metrics are final afterwards.
  void Stop();

  ServiceStats Stats() const;

  /// Publish current ServiceStats totals into the metrics registry as
  /// ABSOLUTE stores (obs::Shard::Set) — idempotent, so the snapshot
  /// publisher's pre-snapshot hook may call it live at any rate and
  /// Stop() calling it once more still yields exact finals. No-op
  /// without metrics. Thread-safe.
  void SyncMetricsCounters();

  std::size_t QueueDepth() const { return ring_.SizeApprox(); }
  std::size_t n() const;
  const ServiceConfig& config() const { return config_; }
  /// Canonical tier decoder specs ([0] = the configured spec with its
  /// explicit budget), e.g. for reproducing a decode offline.
  const std::vector<std::string>& tier_specs() const { return tier_specs_; }

 private:
  struct Request {
    std::uint64_t id = 0;
    DecodeClient* client = nullptr;
    std::vector<double> llrs;
    ServiceClock::time_point deadline{};
    ServiceClock::time_point submitted{};
    ServiceClock::time_point dequeued{};
    std::uint64_t trace_id = 0;
    bool trace_sampled = false;
    std::uint64_t seq = 0;  // stream frame number while a worker holds it
  };
  struct Metrics;     // registered ids; definition local to service.cpp
  class WorkerFeed;  // one worker's FrameFeed over the ring: the worker
  /// Answer `request` with its terminal state: counters, the
  /// req.decode span, client delivery. `shard` is the recording
  /// worker's (or null); `decoded` is set for kOk only.
  void Finish(Request& request, Status status, int tier, obs::Shard* shard,
              const ldpc::DecodeResult* decoded = nullptr);
  /// Lifecycle span helper: one complete event ending now, starting
  /// `dur_us` ago, on `shard`'s trace track.
  void EmitSpan(obs::Shard* shard, const char* name, std::int64_t dur_us,
                std::uint64_t trace_id, int tier, int status);

  const ldpc::LdpcCode& code_;
  ServiceConfig config_;
  std::vector<std::string> tier_specs_;
  // One lazily-filled decoder pool per shedding tier; worker w uses
  // slot w of its current stream's tier.
  std::vector<std::unique_ptr<engine::DecoderPool>> tier_pools_;
  FaultInjector faults_;

  BoundedRing<Request> ring_;
  std::mutex doorbell_mutex_;
  std::condition_variable doorbell_;

  std::atomic<bool> accepting_{true};
  std::atomic<bool> stopping_{false};

  mutable std::mutex clients_mutex_;
  std::vector<std::unique_ptr<DecodeClient>> clients_;

  // Terminal-state accounting (relaxed atomics: totals only, no
  // ordering dependencies; exactness comes from every frame touching
  // exactly one terminal counter).
  std::atomic<std::uint64_t> submitted_{0}, rejected_full_{0},
      rejected_malformed_{0}, rejected_shutdown_{0}, admitted_{0}, ok_{0},
      shed_expired_{0}, failed_{0}, shed_shutdown_{0}, faults_injected_{0},
      check_accepted_{0}, check_rejected_{0};
  std::atomic<std::uint64_t> tier_frames_[kNumShedTiers] = {};
  std::atomic<std::uint64_t> pull_counter_{0};  // StallBatch key
  std::atomic<std::uint64_t> trace_counter_{0};
  /// Last journaled shed tier (-1 = none).
  std::atomic<int> journal_last_tier_{-1};

  std::unique_ptr<Metrics> metrics_;  // null = disabled
  std::vector<std::thread> workers_;
  std::once_flag stop_once_;
};

}  // namespace cldpc::serve
