#include "svc/event_inbox.h"

namespace mwp {

std::size_t EventInbox::RoundUpPow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

EventInbox::EventInbox(std::size_t capacity)
    : buffer_(RoundUpPow2(capacity)), mask_(buffer_.size() - 1) {
  for (std::size_t i = 0; i < buffer_.size(); ++i) {
    buffer_[i].seq.store(i, std::memory_order_relaxed);
  }
}

bool EventInbox::TryPush(const ControlEvent& event) {
  std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = buffer_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const std::ptrdiff_t diff =
        static_cast<std::ptrdiff_t>(seq) - static_cast<std::ptrdiff_t>(pos);
    if (diff == 0) {
      // Cell free for this position: claim it with one CAS.
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.event = event;
        cell.seq.store(pos + 1, std::memory_order_release);
        pushed_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // Lost the race for this position; `pos` was reloaded by the CAS.
    } else if (diff < 0) {
      // A full lap behind: the ring is full. Shed.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    } else {
      // Another producer claimed this position; advance past it.
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

std::size_t EventInbox::DrainInto(std::vector<ControlEvent>& out,
                                  std::size_t max) {
  std::size_t drained = 0;
  while (drained < max) {
    const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    Cell& cell = buffer_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const std::ptrdiff_t diff = static_cast<std::ptrdiff_t>(seq) -
                                static_cast<std::ptrdiff_t>(pos + 1);
    if (diff != 0) break;  // cell not yet published: ring is empty
    out.push_back(cell.event);
    // Mark the cell free for the producer one lap ahead.
    cell.seq.store(pos + buffer_.size(), std::memory_order_release);
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    ++drained;
  }
  return drained;
}

std::size_t EventInbox::size() const {
  const std::size_t enq = enqueue_pos_.load(std::memory_order_seq_cst);
  const std::size_t deq = dequeue_pos_.load(std::memory_order_seq_cst);
  return enq >= deq ? enq - deq : 0;
}

}  // namespace mwp
