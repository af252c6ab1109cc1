#include "batch/job_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "common/rng.h"

namespace mwp {
namespace {

std::unique_ptr<Job> MakeJob(AppId id, Seconds submit = 0.0) {
  JobProfile p = JobProfile::SingleStage(1'000.0, 1'000.0, 100.0);
  return std::make_unique<Job>(id, "job-" + std::to_string(id), p,
                               JobGoal::FromFactor(submit, 3.0, 1.0));
}

TEST(JobQueueTest, SubmitAndFind) {
  JobQueue q;
  Job& j = q.Submit(MakeJob(7));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.Find(7), &j);
  EXPECT_EQ(q.Find(8), nullptr);
}

TEST(JobQueueTest, DuplicateIdThrows) {
  JobQueue q;
  q.Submit(MakeJob(1));
  EXPECT_THROW(q.Submit(MakeJob(1)), std::logic_error);
}

TEST(JobQueueTest, SubmissionOrderPreserved) {
  JobQueue q;
  q.Submit(MakeJob(3));
  q.Submit(MakeJob(1));
  q.Submit(MakeJob(2));
  const auto all = q.All();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->id(), 3);
  EXPECT_EQ(all[1]->id(), 1);
  EXPECT_EQ(all[2]->id(), 2);
}

TEST(JobQueueTest, ViewsReflectStatus) {
  JobQueue q;
  Job& running = q.Submit(MakeJob(1));
  Job& queued = q.Submit(MakeJob(2));
  Job& suspended = q.Submit(MakeJob(3));
  Job& done = q.Submit(MakeJob(4));

  running.Place(0, 0.0, 0.0);
  running.SetAllocation(500.0);
  suspended.Place(1, 0.0, 0.0);
  suspended.SetAllocation(500.0);
  suspended.Suspend(0.5);
  done.Place(2, 0.0, 0.0);
  done.SetAllocation(1'000.0);
  done.AdvanceTo(0.0, 10.0);
  ASSERT_TRUE(done.completed());

  EXPECT_EQ(q.Incomplete().size(), 3u);
  EXPECT_EQ(q.Placed().size(), 1u);
  EXPECT_EQ(q.Placed()[0], &running);
  const auto awaiting = q.AwaitingPlacement();
  ASSERT_EQ(awaiting.size(), 2u);
  EXPECT_EQ(awaiting[0], &queued);
  EXPECT_EQ(awaiting[1], &suspended);
  EXPECT_EQ(q.Completed().size(), 1u);
  EXPECT_EQ(q.num_completed(), 1u);
}

TEST(JobQueueTest, BulkSubmitFindsEveryJob) {
  // Submit O(n) exercises the id → index map (Submit/Find used to scan the
  // whole vector, making experiment setup quadratic in job count).
  JobQueue q;
  constexpr AppId kCount = 500;
  for (AppId id = 1; id <= kCount; ++id) q.Submit(MakeJob(id * 3));
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kCount));
  for (AppId id = 1; id <= kCount; ++id) {
    const Job* job = q.Find(id * 3);
    ASSERT_NE(job, nullptr) << "id " << id * 3;
    EXPECT_EQ(job->id(), id * 3);
  }
  EXPECT_EQ(q.Find(2), nullptr);  // never submitted (ids are multiples of 3)
}

TEST(JobQueueTest, DuplicateRejectedAfterBulkSubmit) {
  JobQueue q;
  for (AppId id = 1; id <= 100; ++id) q.Submit(MakeJob(id));
  EXPECT_THROW(q.Submit(MakeJob(57)), std::logic_error);
  // The failed submit must not have corrupted the queue or the index.
  EXPECT_EQ(q.size(), 100u);
  ASSERT_NE(q.Find(57), nullptr);
  EXPECT_EQ(q.Find(57)->id(), 57);
}

TEST(JobQueueTest, NullSubmitThrows) {
  JobQueue q;
  EXPECT_THROW(q.Submit(nullptr), std::logic_error);
}

TEST(JobQueueTest, ConstFind) {
  JobQueue q;
  q.Submit(MakeJob(5));
  const JobQueue& cq = q;
  EXPECT_NE(cq.Find(5), nullptr);
  EXPECT_EQ(cq.Find(6), nullptr);
}

// --- live-list views vs. a reference filter over All() ---------------------

// The views read a pruned list of live jobs, not the whole history; these
// reference filters over All() are what they must equal, job for job and in
// the same order.
std::vector<Job*> Filter(JobQueue& q, const std::function<bool(Job*)>& keep) {
  std::vector<Job*> out;
  for (Job* j : q.All()) {
    if (keep(j)) out.push_back(j);
  }
  return out;
}

void ExpectViewsMatchReference(JobQueue& q, const std::string& where) {
  SCOPED_TRACE(where);
  const std::size_t ref_completed =
      Filter(q, [](Job* j) { return j->completed(); }).size();
  // num_completed() first, so it also runs before the views prune jobs that
  // completed since the last view call.
  EXPECT_EQ(q.num_completed(), ref_completed);
  EXPECT_EQ(q.Incomplete(), Filter(q, [](Job* j) { return !j->completed(); }));
  EXPECT_EQ(q.Placed(), Filter(q, [](Job* j) { return j->placed(); }));
  EXPECT_EQ(q.AwaitingPlacement(), Filter(q, [](Job* j) {
              return j->status() == JobStatus::kNotStarted ||
                     j->status() == JobStatus::kSuspended;
            }));
  EXPECT_EQ(q.num_completed(), ref_completed);
  EXPECT_EQ(q.Completed().size(), ref_completed);
}

TEST(JobQueueViewsPropertyTest, ViewsEqualReferenceFilterOverRandomHistories) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    JobQueue q;
    AppId next_id = 1;
    Seconds now = 0.0;
    for (int step = 0; step < 120; ++step) {
      const std::vector<Job*> all = q.All();
      Job* pick = all.empty() ? nullptr
                              : all[static_cast<std::size_t>(rng.UniformInt(
                                    0, static_cast<std::int64_t>(all.size()) -
                                           1))];
      const std::int64_t op = all.empty() ? 0 : rng.UniformInt(0, 7);
      const bool placed = pick != nullptr && pick->placed();
      const bool completed = pick != nullptr && pick->completed();
      switch (op) {
        case 0:  // Submit: 0.5 s to 5 s of work at full speed.
          q.Submit(std::make_unique<Job>(
              next_id, "job-" + std::to_string(next_id),
              JobProfile::SingleStage(rng.Uniform(500.0, 5'000.0), 1'000.0,
                                      100.0),
              JobGoal::FromFactor(now, 3.0, 5.0)));
          ++next_id;
          break;
        case 1:  // Place (boot overhead sometimes) — never a completed job.
          if (!placed && !completed) {
            pick->Place(static_cast<NodeId>(rng.UniformInt(0, 3)), now,
                        rng.Uniform01() < 0.5 ? 0.0 : rng.Uniform(0.0, 1.0));
          }
          break;
        case 2:  // SetAllocation, including 0 (pauses the job).
          if (placed) {
            pick->SetAllocation(rng.Uniform01() < 0.2
                                    ? 0.0
                                    : rng.Uniform(100.0, 1'500.0));
          }
          break;
        case 3:
          if (placed) pick->Pause(now);
          break;
        case 4:
          if (placed) pick->Suspend(now);
          break;
        case 5:
          if (placed) pick->Crash(now);
          break;
        case 6:  // One job runs, often long enough to complete.
          if (placed) pick->AdvanceTo(now, now + rng.Uniform(0.0, 6.0));
          break;
        default: {  // The clock advances every placed job at once.
          const Seconds to = now + rng.Uniform(0.0, 3.0);
          for (Job* j : all) {
            if (j->placed()) j->AdvanceTo(now, to);
          }
          now = to;
          break;
        }
      }
      ExpectViewsMatchReference(q, "step " + std::to_string(step) + " op " +
                                       std::to_string(op));
      if (HasFailure()) return;
    }
  }
}

// Runs a placed job at full speed until it completes.
void RunToCompletion(Job& job) {
  job.SetAllocation(1'000.0);
  ASSERT_TRUE(job.AdvanceTo(0.0, 10.0));
  ASSERT_TRUE(job.completed());
}

TEST(JobQueueViewsPropertyTest, MiddleJobCompletesWhileLaterOnesStayLive) {
  JobQueue q;
  Job& first = q.Submit(MakeJob(1));
  Job& middle = q.Submit(MakeJob(2));
  Job& third = q.Submit(MakeJob(3));
  Job& fourth = q.Submit(MakeJob(4));
  first.Place(0, 0.0, 0.0);
  first.SetAllocation(500.0);
  middle.Place(1, 0.0, 0.0);
  third.Place(2, 0.0, 0.0);
  third.SetAllocation(500.0);
  ExpectViewsMatchReference(q, "before completion");

  RunToCompletion(middle);
  EXPECT_EQ(q.num_completed(), 1u);  // counted before any view prunes it
  EXPECT_EQ(q.Incomplete(), (std::vector<Job*>{&first, &third, &fourth}));
  EXPECT_EQ(q.Placed(), (std::vector<Job*>{&first, &third}));
  EXPECT_EQ(q.AwaitingPlacement(), (std::vector<Job*>{&fourth}));
  ExpectViewsMatchReference(q, "after middle completes");

  // A later job keeps moving through states after the prune.
  third.Suspend(1.0);
  EXPECT_EQ(q.AwaitingPlacement(), (std::vector<Job*>{&third, &fourth}));
  ExpectViewsMatchReference(q, "after later suspend");
}

TEST(JobQueueViewsPropertyTest, CompletedJobNeverReappearsInAView) {
  JobQueue q;
  Job& done = q.Submit(MakeJob(1));
  Job& other = q.Submit(MakeJob(2));
  done.Place(0, 0.0, 0.0);
  RunToCompletion(done);
  const auto contains = [&](const std::vector<Job*>& view) {
    return std::find(view.begin(), view.end(), &done) != view.end();
  };
  for (int round = 0; round < 3; ++round) {
    q.Submit(MakeJob(10 + round));
    // Completion is terminal: the job cannot be placed again.
    EXPECT_THROW(done.Place(0, 1.0, 0.0), std::logic_error);
    EXPECT_THROW(done.SetAllocation(100.0), std::logic_error);
    EXPECT_FALSE(contains(q.Incomplete()));
    EXPECT_FALSE(contains(q.Placed()));
    EXPECT_FALSE(contains(q.AwaitingPlacement()));
    EXPECT_EQ(q.num_completed(), 1u);
    ExpectViewsMatchReference(q, "round " + std::to_string(round));
  }
  // All(), Completed() and Find() still see it.
  EXPECT_EQ(q.All().front(), &done);
  ASSERT_EQ(q.Completed().size(), 1u);
  EXPECT_EQ(q.Completed().front(), &done);
  EXPECT_EQ(q.Find(1), &done);
  EXPECT_EQ(q.Incomplete().front(), &other);
}

}  // namespace
}  // namespace mwp
