// Bounded lock-free MPSC inbox for control-plane events.
//
// The queue core is the classic sequence-stamped ring (Vyukov's bounded
// MPMC queue, used here as multi-producer single-consumer): each cell
// carries an atomic sequence number that encodes whether it is free for the
// enqueuer of position `pos` (seq == pos), holds a value for the dequeuer
// (seq == pos + 1), or is still in use from a previous lap. Producers and
// the consumer each touch one cell per operation with one CAS/FAA — no
// locks, no allocation, and a full queue is reported (TryPush → false)
// rather than waited on, so producers shed load instead of blocking.
//
// Threading contract: any number of producers may call TryPush
// concurrently; DrainInto is single-consumer and never blocks. Counters
// are relaxed atomics, exact but only eventually consistent across threads.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "svc/control_event.h"

namespace mwp {

class EventInbox {
 public:
  /// `capacity` is rounded up to the next power of two (minimum 2).
  explicit EventInbox(std::size_t capacity);

  EventInbox(const EventInbox&) = delete;
  EventInbox& operator=(const EventInbox&) = delete;

  /// Producer: enqueue `event`. Returns false — without blocking — when
  /// the ring is full; the event is counted as dropped and the caller
  /// sheds it (the next full cycle re-reads ground truth anyway).
  bool TryPush(const ControlEvent& event);

  /// Consumer: pop up to `max` events into `out` (appended). Returns the
  /// number drained. Never blocks.
  std::size_t DrainInto(std::vector<ControlEvent>& out, std::size_t max);

  std::size_t capacity() const { return buffer_.size(); }
  /// Approximate number of queued events (exact when quiescent).
  std::size_t size() const;

  /// Events accepted / rejected by TryPush since construction.
  std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq;
    ControlEvent event;
  };

  static std::size_t RoundUpPow2(std::size_t n);

  /// Cells are protected per-slot by their seq counters (Vyukov protocol):
  /// a producer owns a cell between claiming it (CAS on enqueue_pos_) and
  /// bumping seq; the consumer owns it between observing seq and bumping it
  /// past the lap. The vector itself never reallocates after construction.
  std::vector<Cell> buffer_;
  const std::size_t mask_;
  /// Producers claim ring positions from enqueue_pos_; the consumer owns
  /// dequeue_pos_ exclusively but it is atomic so size() can read it.
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace mwp
