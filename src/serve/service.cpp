#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ldpc/core/registry.hpp"
#include "obs/decode_sink.hpp"
#include "obs/journal.hpp"
#include "util/contracts.hpp"

namespace cldpc::serve {
namespace {

/// The configured spec with its iters= param forced to `budget` —
/// the only knob shedding is allowed to touch, so every tier decoder
/// stays a plain registry decoder anyone can reconstruct offline.
std::string SpecWithBudget(const ldpc::DecoderSpec& base, int budget) {
  ldpc::DecoderSpec spec = base;
  bool replaced = false;
  for (auto& [key, value] : spec.params) {
    if (key == "iters") {
      value = std::to_string(budget);
      replaced = true;
    }
  }
  if (!replaced) spec.params.emplace_back("iters", std::to_string(budget));
  return spec.ToString();
}

std::int64_t ElapsedUs(ServiceClock::time_point since,
                       ServiceClock::time_point now) {
  return std::chrono::duration_cast<std::chrono::microseconds>(now - since)
      .count();
}

/// "req.queue" span status for a request proceeding to decode (the
/// terminal statuses reuse the Status enum's values 0..3).
constexpr int kSpanProceed = -1;

}  // namespace

const char* ToString(Admission a) {
  switch (a) {
    case Admission::kAdmitted: return "admitted";
    case Admission::kRejectedFull: return "rejected-full";
    case Admission::kRejectedMalformed: return "rejected-malformed";
    case Admission::kRejectedShutdown: return "rejected-shutdown";
  }
  return "?";
}

const char* ToString(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kShedExpired: return "shed-expired";
    case Status::kFailed: return "failed";
    case Status::kShedShutdown: return "shed-shutdown";
  }
  return "?";
}

bool DecodeClient::WaitPop(DecodeResponse& out,
                           std::chrono::microseconds timeout) {
  const auto deadline = ServiceClock::now() + timeout;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!ring_.TryPop(out)) {
    if (ready_.wait_until(lock, deadline) == std::cv_status::timeout)
      return ring_.TryPop(out);
  }
  return true;
}

bool DecodeClient::Deliver(DecodeResponse&& response) {
  if (!ring_.TryPush(response)) {
    // Slow consumer: the client's ring is full. Drop and count — the
    // service must never block on (or buffer unboundedly for) a
    // client that stopped draining.
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  {
    // Empty critical section: serializes with WaitPop's empty-check
    // so the notify below cannot slip between its TryPop and wait.
    std::lock_guard<std::mutex> lock(mutex_);
  }
  ready_.notify_one();
  return true;
}

// Registered ids of the serve.* metric family. Every value is
// traffic- and timing-dependent, so everything is tagged kScheduling
// or kWallClock (the exporter lists them as nondeterministic).
struct DecodeService::Metrics {
  obs::MetricsRegistry* reg;
  obs::CounterId submitted, rejected_full, rejected_malformed,
      rejected_shutdown, admitted, ok, shed_expired, failed, shed_shutdown,
      responses_dropped, faults_injected, check_accepted, check_rejected;
  obs::CounterId tiers[kNumShedTiers];
  obs::HistogramId admission_us, decode_us, queue_depth, iterations;
  obs::DecodeMetricIds decode;

  Metrics(obs::MetricsRegistry& r, std::size_t workers) : reg(&r) {
    using D = obs::Determinism;
    submitted = r.Counter("serve.submitted", D::kScheduling);
    rejected_full = r.Counter("serve.rejected_full", D::kScheduling);
    rejected_malformed = r.Counter("serve.rejected_malformed", D::kScheduling);
    rejected_shutdown = r.Counter("serve.rejected_shutdown", D::kScheduling);
    admitted = r.Counter("serve.admitted", D::kScheduling);
    ok = r.Counter("serve.ok", D::kScheduling);
    shed_expired = r.Counter("serve.shed_expired", D::kScheduling);
    failed = r.Counter("serve.failed", D::kScheduling);
    shed_shutdown = r.Counter("serve.shed_shutdown", D::kScheduling);
    responses_dropped = r.Counter("serve.responses_dropped", D::kScheduling);
    faults_injected = r.Counter("serve.faults_injected", D::kScheduling);
    check_accepted = r.Counter("serve.check_accepted", D::kScheduling);
    check_rejected = r.Counter("serve.check_rejected", D::kScheduling);
    tiers[0] = r.Counter("serve.tier0_frames", D::kScheduling);
    tiers[1] = r.Counter("serve.tier1_frames", D::kScheduling);
    tiers[2] = r.Counter("serve.tier2_frames", D::kScheduling);
    admission_us = r.Hist("serve.admission_us", D::kWallClock, "us");
    decode_us = r.Hist("serve.decode_us", D::kWallClock, "us");
    queue_depth = r.Hist("serve.queue_depth", D::kScheduling, "frames");
    // Which frames are decoded (rather than shed) depends on timing,
    // so unlike the engine's this decode.iterations is not kStable.
    iterations = r.Hist("decode.iterations", D::kScheduling, "iterations");
    decode = obs::RegisterDecodeMetrics(r);
    // Worker w records into shard w; the counter flush
    // (SyncMetricsCounters) stores into shard `workers`, behind them.
    r.SetShardCount(workers + 1);
  }
};

// One worker's FrameFeed over the admission ring. A pull pops what
// the worker has room for, does the pop-time work on each frame
// (occupancy sample, admission latency, deadline and shutdown
// shedding, the req.queue span, the fault oracle), and stages the
// surviving frames for the lanes in one chunk — one lane load per
// refill, however many lanes it fills. Each frame is held until
// Deliver answers it.
class DecodeService::WorkerFeed final : public ldpc::FrameFeed {
 public:
  WorkerFeed(DecodeService& service, std::size_t worker)
      : svc_(service),
        worker_(worker),
        shard_(service.metrics_ ? &service.metrics_->reg->shard(worker)
                                : nullptr) {}

  ldpc::FrameChunk Pull(std::size_t max_frames, bool idle) override {
    const std::size_t first = held_.size();
    const std::size_t room =
        std::min(max_frames, svc_.config_.max_batch - first);
    Request request;
    std::size_t occupancy = 0;
    while (!switching_ && held_.size() - first < room) {
      occupancy = svc_.ring_.SizeApprox();
      const int tier =
          TierFor(svc_.config_.shed, occupancy, svc_.ring_.capacity());
      if (tier != tier_) {
        // A stream runs at one tier: stop pulling, let the lanes
        // drain, and restart on the new tier's decoder.
        switching_ = true;
        next_tier_ = tier;
      } else if (svc_.ring_.TryPop(request)) {
        Take(request, occupancy);
      } else if (held_.size() != first || !idle) {
        break;  // frames in lanes never block: stage what there is
      } else if (svc_.stopping_.load(std::memory_order_acquire) &&
                 svc_.ring_.SizeApprox() == 0) {
        finished_ = true;  // idle, stopping and drained: end the stream
        break;
      } else {
        std::unique_lock<std::mutex> lock(svc_.doorbell_mutex_);
        svc_.doorbell_.wait_for(lock, std::chrono::milliseconds(10), [this] {
          return svc_.stopping_.load(std::memory_order_relaxed) ||
                 svc_.ring_.SizeApprox() != 0;
        });
      }
    }
    const std::size_t count = held_.size() - first;
    if (count == 0) return {};
    const ServiceConfig& config = svc_.config_;
    if (config.journal != nullptr &&
        svc_.journal_last_tier_.exchange(tier_) != tier_)
      config.journal->Append(
          "tier_change", "serve",
          {{"tier", tier_},
           {"occupancy", static_cast<std::int64_t>(occupancy)}});
    const std::uint64_t pull_id =
        svc_.pull_counter_.fetch_add(1, std::memory_order_relaxed);
    if (svc_.faults_.StallBatch(pull_id)) {
      svc_.faults_injected_.fetch_add(1, std::memory_order_relaxed);
      if (config.journal != nullptr)
        config.journal->Append(
            "fault_stall", "serve",
            {{"batch_id", pull_id},
             {"stall_us",
              static_cast<std::int64_t>(config.faults.stall_us)}});
      std::this_thread::sleep_for(
          std::chrono::microseconds(config.faults.stall_us));
    }
    const std::size_t n = svc_.code_.n();
    if (staged_.size() < count * n) staged_.resize(count * n);
    for (std::size_t i = 0; i < count; ++i)
      std::copy(held_[first + i].llrs.begin(), held_[first + i].llrs.end(),
                staged_.begin() + static_cast<std::ptrdiff_t>(i * n));
    return {{staged_.data(), count * n}, count};
  }

  bool Deliver(std::uint64_t seq, const ldpc::DecodeResult& result) override {
    const auto it =
        std::find_if(held_.begin(), held_.end(),
                     [seq](const Request& r) { return r.seq == seq; });
    CLDPC_EXPECTS(it != held_.end(), "delivered a frame never pulled");
    svc_.Finish(*it, Status::kOk, tier_, shard_, &result);
    *it = std::move(held_.back());
    held_.pop_back();
    return true;
  }

  std::uint64_t Remaining() const override {
    return svc_.config_.max_batch - held_.size();
  }

  /// After a stream threw: decode every held frame on its own, so
  /// only frames whose own decode throws fail.
  void Contain(ldpc::Decoder& decoder) {
    for (Request& request : std::exchange(held_, {})) {
      std::vector<ldpc::DecodeResult> single;
      try {
        // The oracle is re-checked without re-counting: the fault was
        // counted and journaled once, where its frame was pulled.
        if (!svc_.faults_.ThrowInDecode(request.id))
          single = decoder.DecodeBatch(request.llrs, 1);
      } catch (...) {
        single.clear();
      }
      svc_.Finish(request, single.empty() ? Status::kFailed : Status::kOk,
                  tier_, shard_, single.empty() ? nullptr : &single[0]);
    }
  }

  /// The worker: stream after stream, until Stop has drained the ring.
  void Run() {
    // The decoders' lane probes report through this thread-local sink.
    obs::ScopedDecodeSink sink(
        shard_, svc_.metrics_ ? &svc_.metrics_->decode : nullptr);
    while (!finished_) {
      ldpc::Decoder& decoder =
          svc_.tier_pools_[static_cast<std::size_t>(tier_)]->Get(worker_);
      try {
        decoder.DecodeStream(*this);
      } catch (...) {
        // Containment: a throwing stream must not take down its
        // innocent lane neighbours (or the worker). A stream that
        // threw before holding a frame still takes one (or sees Stop),
        // so a decoder that cannot even start never wedges the worker.
        try {
          if (held_.empty()) Pull(1, /*idle=*/true);
        } catch (...) {
        }
        Contain(decoder);
      }
      // The next stream numbers its frames from 0 again, at the tier
      // this one switched to.
      if (switching_) tier_ = next_tier_;
      switching_ = false;
      next_seq_ = 0;
    }
  }

 private:
  /// Pop-time work on a frame just taken from the ring: shed it, or
  /// hold it. An injected fault throws here, mid-stream, once its
  /// frame is held (so Contain answers it).
  void Take(Request& request, std::size_t occupancy) {
    const ServiceConfig& config = svc_.config_;
    const auto now = ServiceClock::now();
    const std::int64_t waited = ElapsedUs(request.submitted, now);
    if (shard_ != nullptr) {
      shard_->Record(svc_.metrics_->queue_depth,
                     static_cast<std::int64_t>(occupancy));
      shard_->Record(svc_.metrics_->admission_us, waited);
    }
    request.dequeued = now;
    // Deadline shedding spends no decode work and ignores the tier;
    // under drain-on-stop it keeps applying, so a backed-up ring
    // drains at shed speed, not decode speed.
    Status shed = Status::kOk;
    if (now >= request.deadline)
      shed = Status::kShedExpired;
    else if (svc_.stopping_.load(std::memory_order_acquire) &&
             !config.drain_on_stop)
      shed = Status::kShedShutdown;
    if (request.trace_sampled)
      svc_.EmitSpan(shard_, "req.queue", waited, request.trace_id, tier_,
                    shed == Status::kOk ? kSpanProceed
                                        : static_cast<int>(shed));
    if (shed != Status::kOk) {
      svc_.Finish(request, shed, tier_, shard_);
      return;
    }
    const std::uint64_t id = request.id;
    request.seq = next_seq_++;
    held_.push_back(std::move(request));
    if (svc_.faults_.ThrowInDecode(id)) {
      svc_.faults_injected_.fetch_add(1, std::memory_order_relaxed);
      // Journaled here and ONLY here, so journaled fault events equal
      // stats.faults_injected exactly.
      if (config.journal != nullptr)
        config.journal->Append("fault_throw", "serve", {{"frame_id", id}});
      throw InjectedDecodeError(id);
    }
  }

  DecodeService& svc_;
  const std::size_t worker_;
  obs::Shard* const shard_;
  std::vector<Request> held_;  // pulled, not yet answered
  std::vector<double> staged_;  // the last chunk, <= max_batch frames
  std::uint64_t next_seq_ = 0;
  int tier_ = 0;
  int next_tier_ = 0;
  bool switching_ = false;  // tier changed: drain, then restart
  bool finished_ = false;   // stopping and drained: the worker exits
};

DecodeService::DecodeService(const ldpc::LdpcCode& code, ServiceConfig config)
    : code_(code),
      config_(std::move(config)),
      ring_(config_.queue_capacity) {
  CLDPC_EXPECTS(config_.workers >= 1, "service needs at least one worker");
  CLDPC_EXPECTS(config_.max_batch >= 1, "max_batch must be >= 1");
  config_.shed.Validate();
  faults_ = FaultInjector(config_.faults);

  // Resolve the tier specs eagerly: a malformed decoder spec must
  // fail the constructor (catchable std::invalid_argument), never a
  // worker thread mid-traffic.
  const auto base = ldpc::DecoderSpec::Parse(config_.decoder_spec);
  const int base_iters = base.GetInt("iters", ldpc::IterOptions{}.max_iterations);
  CLDPC_EXPECTS(base_iters >= 1, "decoder spec: iters must be >= 1");
  for (int tier = 0; tier < kNumShedTiers; ++tier) {
    tier_specs_.push_back(
        SpecWithBudget(base, BudgetForTier(config_.shed, base_iters, tier)));
  }
  for (const auto& spec : tier_specs_) {
    // The factory validates kind/params/code compatibility now; the
    // per-worker instances are still constructed lazily by the pools.
    tier_pools_.push_back(std::make_unique<engine::DecoderPool>(
        ldpc::MakeDecoderFactory(code_, spec), config_.workers));
  }

  if (config_.metrics != nullptr)
    metrics_ = std::make_unique<Metrics>(*config_.metrics, config_.workers);

  for (std::size_t w = 0; w < config_.workers; ++w)
    workers_.emplace_back([this, w] { WorkerFeed(*this, w).Run(); });
}

DecodeService::~DecodeService() { Stop(); }

std::size_t DecodeService::n() const { return code_.n(); }

DecodeClient& DecodeService::Connect() {
  std::lock_guard<std::mutex> lock(clients_mutex_);
  const auto id = static_cast<std::uint32_t>(clients_.size());
  clients_.emplace_back(
      new DecodeClient(id, config_.client_queue_capacity));
  return *clients_.back();
}

Admission DecodeService::Submit(DecodeClient& client, std::uint64_t id,
                                std::vector<double> llrs,
                                ServiceClock::time_point deadline) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (!accepting_.load(std::memory_order_acquire)) {
    rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
    return Admission::kRejectedShutdown;
  }
  // Client data is validated at the edge: a malformed frame is a
  // caller error to report, never something to hand a decoder.
  if (llrs.size() != code_.n() ||
      !std::all_of(llrs.begin(), llrs.end(),
                   [](double v) { return std::isfinite(v); })) {
    rejected_malformed_.fetch_add(1, std::memory_order_relaxed);
    return Admission::kRejectedMalformed;
  }
  Request request;
  request.id = id;
  request.client = &client;
  request.llrs = std::move(llrs);
  request.deadline = deadline;
  request.submitted = ServiceClock::now();
  // Lifecycle trace id: monotonic, assigned before the push (the ring
  // owns the request afterwards). A rejected-full push burns its id —
  // ids stay unique and ordered, with gaps at rejections.
  request.trace_id = trace_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t every = config_.trace_sample_every;
  request.trace_sampled =
      every != 0 && metrics_ != nullptr &&
      request.trace_id % every == config_.faults.seed % every;
  if (!ring_.TryPush(request)) {
    // Admission control: the ring is the ONLY queue, and it is full.
    // Reject now — the client learns immediately and can back off;
    // latency for already-admitted frames stays bounded.
    rejected_full_.fetch_add(1, std::memory_order_relaxed);
    return Admission::kRejectedFull;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(doorbell_mutex_);
  }
  doorbell_.notify_one();
  return Admission::kAdmitted;
}

void DecodeService::Finish(Request& request, Status status, int tier,
                           obs::Shard* shard,
                           const ldpc::DecodeResult* decoded) {
  DecodeResponse response;
  response.id = request.id;
  response.status = status;
  response.tier = tier;
  response.trace_id = request.trace_id;
  if (status == Status::kOk) {
    response.bits = decoded->bits;
    response.iterations = decoded->iterations_run;
    response.converged = decoded->converged;
    if (config_.frame_check) {
      // The catalog CRC hook: an ok decode whose check fails is still
      // delivered (the caller decides what a failed CRC means), but
      // both verdicts are counted so UER is computable downstream.
      response.checked = true;
      response.check_passed = config_.frame_check(response.bits);
      (response.check_passed ? check_accepted_ : check_rejected_)
          .fetch_add(1, std::memory_order_relaxed);
    }
    tier_frames_[static_cast<std::size_t>(tier)].fetch_add(
        1, std::memory_order_relaxed);
    if (shard) {
      shard->Record(metrics_->decode_us,
                    ElapsedUs(request.submitted, ServiceClock::now()));
      shard->Record(metrics_->iterations, decoded->iterations_run);
      shard->Add(metrics_->tiers[static_cast<std::size_t>(tier)]);
    }
  }
  (status == Status::kOk            ? ok_
   : status == Status::kFailed      ? failed_
   : status == Status::kShedExpired ? shed_expired_
                                    : shed_shutdown_)
      .fetch_add(1, std::memory_order_relaxed);
  const auto now = ServiceClock::now();
  // Decode outcomes close the "req.decode" span; a shed frame's only
  // span is its "req.queue".
  if (request.trace_sampled &&
      (status == Status::kOk || status == Status::kFailed))
    EmitSpan(shard, "req.decode", ElapsedUs(request.dequeued, now),
             request.trace_id, tier, static_cast<int>(status));
  response.latency_us = ElapsedUs(request.submitted, now);
  const std::uint64_t id = request.id;
  const std::uint32_t client_id = request.client->id();
  if (!request.client->Deliver(std::move(response)) &&
      config_.journal != nullptr) {
    config_.journal->Append(
        "client_drop", "serve",
        {{"client", static_cast<std::int64_t>(client_id)}, {"frame_id", id}});
  }
}

void DecodeService::EmitSpan(obs::Shard* shard, const char* name,
                             std::int64_t dur_us, std::uint64_t trace_id,
                             int tier, int status) {
  if (shard == nullptr || !shard->tracing()) return;
  obs::TraceEvent ev;
  ev.name = name;
  ev.dur_ns = dur_us > 0 ? static_cast<std::uint64_t>(dur_us) * 1000 : 0;
  const std::uint64_t now_ns = shard->NowNs();
  ev.ts_ns = now_ns > ev.dur_ns ? now_ns - ev.dur_ns : 0;
  ev.arg_names[0] = "trace_id";
  ev.arg_values[0] = static_cast<std::int64_t>(trace_id);
  ev.arg_names[1] = "tier";
  ev.arg_values[1] = tier;
  ev.arg_names[2] = "status";
  ev.arg_values[2] = status;
  shard->PushEvent(ev);
}

void DecodeService::Stop() {
  std::call_once(stop_once_, [this] {
    accepting_.store(false, std::memory_order_release);
    stopping_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(doorbell_mutex_);
    }
    doorbell_.notify_all();
    for (auto& worker : workers_) worker.join();
    // Sweep frames a racing Submit slipped in after the workers'
    // final empty check: they were admitted, so they must reach a
    // terminal state for the accounting identities to hold.
    Request request;
    while (ring_.TryPop(request))
      Finish(request, Status::kShedShutdown, 0, nullptr);
    SyncMetricsCounters();
    if (config_.journal != nullptr) {
      const ServiceStats s = Stats();
      config_.journal->Append("service_stop", "serve",
                              {{"submitted", s.submitted},
                               {"ok", s.ok},
                               {"faults_injected", s.faults_injected}});
    }
  });
}

ServiceStats DecodeService::Stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
  s.rejected_malformed = rejected_malformed_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.shed_expired = shed_expired_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.shed_shutdown = shed_shutdown_.load(std::memory_order_relaxed);
  s.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  s.check_accepted = check_accepted_.load(std::memory_order_relaxed);
  s.check_rejected = check_rejected_.load(std::memory_order_relaxed);
  for (int t = 0; t < kNumShedTiers; ++t)
    s.tier_frames[t] = tier_frames_[t].load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(clients_mutex_);
    for (const auto& client : clients_)
      s.responses_dropped += client->dropped();
  }
  return s;
}

void DecodeService::SyncMetricsCounters() {
  if (!metrics_) return;
  // Absolute stores into the flush shard (whose counter cells
  // nothing else writes): idempotent, so this runs safely both live
  // (snapshot publisher's pre-snapshot hook) and at Stop(). The tier
  // counters are excluded — workers Add those live in their own
  // shards.
  const ServiceStats s = Stats();
  auto& shard = metrics_->reg->shard(config_.workers);
  shard.Set(metrics_->submitted, s.submitted);
  shard.Set(metrics_->rejected_full, s.rejected_full);
  shard.Set(metrics_->rejected_malformed, s.rejected_malformed);
  shard.Set(metrics_->rejected_shutdown, s.rejected_shutdown);
  shard.Set(metrics_->admitted, s.admitted);
  shard.Set(metrics_->ok, s.ok);
  shard.Set(metrics_->shed_expired, s.shed_expired);
  shard.Set(metrics_->failed, s.failed);
  shard.Set(metrics_->shed_shutdown, s.shed_shutdown);
  shard.Set(metrics_->responses_dropped, s.responses_dropped);
  shard.Set(metrics_->faults_injected, s.faults_injected);
  shard.Set(metrics_->check_accepted, s.check_accepted);
  shard.Set(metrics_->check_rejected, s.check_rejected);
}

}  // namespace cldpc::serve
