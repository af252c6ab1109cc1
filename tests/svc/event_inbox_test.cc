#include "svc/event_inbox.h"

#include <gtest/gtest.h>

#include <vector>

namespace mwp {
namespace {

ControlEvent Arrival(AppId job, Seconds time = 0.0) {
  ControlEvent e;
  e.kind = ControlEventKind::kJobArrival;
  e.job = job;
  e.time = time;
  return e;
}

TEST(EventInboxTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventInbox(1).capacity(), 2u);
  EXPECT_EQ(EventInbox(2).capacity(), 2u);
  EXPECT_EQ(EventInbox(3).capacity(), 4u);
  EXPECT_EQ(EventInbox(4096).capacity(), 4096u);
  EXPECT_EQ(EventInbox(4097).capacity(), 8192u);
}

TEST(EventInboxTest, DrainPreservesFifoOrder) {
  EventInbox inbox(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(inbox.TryPush(Arrival(i)));
  EXPECT_EQ(inbox.size(), 5u);

  std::vector<ControlEvent> out;
  EXPECT_EQ(inbox.DrainInto(out, 64), 5u);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].job, i);
  EXPECT_EQ(inbox.size(), 0u);
}

TEST(EventInboxTest, DrainRespectsMaxAndAppends) {
  EventInbox inbox(8);
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(inbox.TryPush(Arrival(i)));

  std::vector<ControlEvent> out;
  EXPECT_EQ(inbox.DrainInto(out, 4), 4u);
  EXPECT_EQ(inbox.DrainInto(out, 4), 2u);  // appended after the first four
  ASSERT_EQ(out.size(), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].job, i);
}

TEST(EventInboxTest, FullRingShedsWithoutBlocking) {
  EventInbox inbox(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(inbox.TryPush(Arrival(i)));
  EXPECT_FALSE(inbox.TryPush(Arrival(4)));
  EXPECT_FALSE(inbox.TryPush(Arrival(5)));
  EXPECT_EQ(inbox.pushed(), 4u);
  EXPECT_EQ(inbox.dropped(), 2u);

  // Draining frees cells for the next lap.
  std::vector<ControlEvent> out;
  EXPECT_EQ(inbox.DrainInto(out, 64), 4u);
  EXPECT_TRUE(inbox.TryPush(Arrival(6)));
  out.clear();
  ASSERT_EQ(inbox.DrainInto(out, 64), 1u);
  EXPECT_EQ(out[0].job, 6);
}

TEST(EventInboxTest, RingSurvivesManyLaps) {
  EventInbox inbox(4);
  std::vector<ControlEvent> out;
  for (int lap = 0; lap < 100; ++lap) {
    EXPECT_TRUE(inbox.TryPush(Arrival(lap)));
    out.clear();
    ASSERT_EQ(inbox.DrainInto(out, 64), 1u);
    EXPECT_EQ(out[0].job, lap);
  }
  EXPECT_EQ(inbox.pushed(), 100u);
  EXPECT_EQ(inbox.dropped(), 0u);
}

TEST(EventInboxTest, EventKindNamesAreStable) {
  // The names feed metric labels and log lines; renaming one is a schema
  // change, not a refactor.
  EXPECT_STREQ(ControlEventKindName(ControlEventKind::kJobArrival),
               "job_arrival");
  EXPECT_STREQ(ControlEventKindName(ControlEventKind::kJobCompletion),
               "job_completion");
  EXPECT_STREQ(ControlEventKindName(ControlEventKind::kNodeFault),
               "node_fault");
  EXPECT_STREQ(ControlEventKindName(ControlEventKind::kNodeRestore),
               "node_restore");
  EXPECT_STREQ(ControlEventKindName(ControlEventKind::kTxLoadShift),
               "tx_load_shift");
  EXPECT_STREQ(ControlEventKindName(ControlEventKind::kTimerTick),
               "timer_tick");
}

}  // namespace
}  // namespace mwp
