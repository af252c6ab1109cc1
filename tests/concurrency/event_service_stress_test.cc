// Concurrency stress for the event-driven controller service's inbox
// (src/svc/event_inbox.h) — the TSan lane's coverage of the one piece of
// the service that crosses threads: ControllerService::Publish may be
// called from any thread, so the lock-free MPSC ring is raced by several
// producers against a draining consumer, both with room to spare and while
// shedding on overflow.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "svc/event_inbox.h"

namespace mwp {
namespace {

TEST(EventInboxStressTest, ManyProducersNoLossNoDuplication) {
  // 4 producers push disjoint job-id ranges through a ring big enough to
  // never overflow; the consumer drains concurrently. Every event must
  // come out exactly once, and each producer's events in its push order.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5'000;
  EventInbox inbox(1 << 15);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&inbox, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ControlEvent e;
        e.kind = ControlEventKind::kJobArrival;
        e.job = p * kPerProducer + i;
        while (!inbox.TryPush(e)) std::this_thread::yield();
      }
    });
  }

  std::vector<int> seen_count(kProducers * kPerProducer, 0);
  std::vector<int> last_per_producer(kProducers, -1);
  std::vector<ControlEvent> batch;
  std::size_t drained = 0;
  while (drained < static_cast<std::size_t>(kProducers * kPerProducer)) {
    batch.clear();
    if (inbox.DrainInto(batch, 256) == 0) {
      std::this_thread::yield();
      continue;
    }
    for (const ControlEvent& e : batch) {
      const int producer = e.job / kPerProducer;
      const int index = e.job % kPerProducer;
      ++seen_count[static_cast<std::size_t>(e.job)];
      // Per-producer FIFO: a producer's events drain in push order.
      EXPECT_GT(index, last_per_producer[static_cast<std::size_t>(producer)]);
      last_per_producer[static_cast<std::size_t>(producer)] = index;
    }
    drained += batch.size();
  }
  for (std::thread& t : producers) t.join();

  for (int count : seen_count) EXPECT_EQ(count, 1);
  EXPECT_EQ(inbox.pushed(), static_cast<std::uint64_t>(kProducers) *
                                static_cast<std::uint64_t>(kPerProducer));
  EXPECT_EQ(inbox.size(), 0u);
}

TEST(EventInboxStressTest, TinyRingUnderContentionAccountsEveryEvent) {
  // A deliberately overflowing ring: pushed + dropped must equal attempts,
  // and exactly the accepted events come out — shedding loses events, never
  // corrupts the ring.
  constexpr int kProducers = 4;
  constexpr int kAttemptsPer = 20'000;
  EventInbox inbox(8);
  std::atomic<bool> done{false};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&inbox, p] {
      for (int i = 0; i < kAttemptsPer; ++i) {
        ControlEvent e;
        e.kind = ControlEventKind::kNodeFault;
        e.node = p;
        inbox.TryPush(e);  // shedding is expected and fine
      }
    });
  }

  std::atomic<std::uint64_t> drained{0};
  std::thread consumer([&] {
    std::vector<ControlEvent> batch;
    while (!done.load(std::memory_order_acquire)) {
      batch.clear();
      drained.fetch_add(inbox.DrainInto(batch, 64),
                        std::memory_order_relaxed);
    }
    batch.clear();
    drained.fetch_add(inbox.DrainInto(batch, 1 << 20),
                      std::memory_order_relaxed);
  });

  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(inbox.pushed() + inbox.dropped(),
            static_cast<std::uint64_t>(kProducers) * kAttemptsPer);
  EXPECT_EQ(drained.load(), inbox.pushed());
  EXPECT_EQ(inbox.size(), 0u);
}

}  // namespace
}  // namespace mwp
