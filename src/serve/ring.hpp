// Bounded lock-free ring buffer for the decode service's admission
// queue (Vyukov's bounded MPMC algorithm: many client threads push,
// the service's decode workers pop).
//
// The ring is the service's admission-control seam: capacity is fixed
// at construction and TryPush FAILS — immediately, without blocking —
// when the ring is full. There is deliberately no blocking push and
// no unbounded fallback: a producer that cannot enqueue gets a
// rejection it must surface to the caller, which is what keeps queue
// depth (and therefore queueing delay) bounded under overload. See
// serve/service.hpp for the policy built on top.
//
// Concurrency: any number of threads may call TryPush concurrently
// with each other and with TryPop; TryPop may also be called from
// several threads (full MPMC) — every decode worker is a consumer.
// Each cell carries a sequence counter; a producer claims a slot with
// one CAS on the tail and publishes the value with a release store of
// the sequence, which the consumer acquires before reading — no
// locks, no spurious blocking, TSan-clean.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace cldpc::serve {

template <typename T>
class BoundedRing {
 public:
  /// Capacity is rounded up to the next power of two (>= 2); the
  /// rounded value is what capacity() reports and what admission
  /// control watermarks are measured against.
  explicit BoundedRing(std::size_t capacity) {
    CLDPC_EXPECTS(capacity >= 1, "ring capacity must be >= 1");
    CLDPC_EXPECTS(capacity <= (std::size_t{1} << 31),
                  "ring capacity is unreasonably large");
    std::size_t pow2 = 2;
    while (pow2 < capacity) pow2 <<= 1;
    cells_ = std::vector<Cell>(pow2);
    mask_ = pow2 - 1;
    for (std::size_t i = 0; i < pow2; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  BoundedRing(const BoundedRing&) = delete;
  BoundedRing& operator=(const BoundedRing&) = delete;

  /// Enqueue by move. Returns false — leaving `item` untouched — when
  /// the ring is full: the caller owns the rejection.
  bool TryPush(T& item) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t diff =
          static_cast<std::ptrdiff_t>(seq) - static_cast<std::ptrdiff_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = std::move(item);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded `pos`; retry with the fresh tail.
      } else if (diff < 0) {
        return false;  // full: the slot still holds an unconsumed value
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Dequeue into `out`. Returns false when the ring is empty.
  bool TryPop(T& out) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::ptrdiff_t diff = static_cast<std::ptrdiff_t>(seq) -
                                  static_cast<std::ptrdiff_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          out = std::move(cell.value);
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // empty
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Occupancy snapshot. Racy by nature (producers and the consumer
  /// move concurrently) but never off by more than the number of
  /// in-flight operations — good enough for shedding watermarks,
  /// which only need a coarse pressure signal.
  std::size_t SizeApprox() const {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_relaxed);
    return tail >= head ? std::min(tail - head, capacity()) : 0;
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  // Separate cache lines so producers hammering the tail do not
  // false-share with the consumer's head.
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
};

}  // namespace cldpc::serve
