// Job queue: ownership and bookkeeping of every job submitted to the system.
//
// The job scheduler in the paper (§3.1) accepts submissions, keeps jobs in a
// queue, dispatches them according to the placement controller's decisions
// and reports completions. This class is that queue: it owns Job objects for
// their whole lifetime and offers the views the controllers need (incomplete
// jobs, placed jobs, pending jobs in submission order).
//
// Cost contract. The controller reads these views on every decision, while
// the queue keeps every job ever submitted, so a view that walked the whole
// history would make a decision's cost grow with the run's length. The
// views Incomplete(), Placed(), AwaitingPlacement() and num_completed() are
// therefore O(live jobs): they read a list of the jobs not yet completed,
// kept in submission order. All() and Completed() are O(history); Find() is
// O(1) expected.
//
// Pruning the live list is safe because completion is terminal: Job::Place
// refuses a completed job, and every other transition (Suspend, Pause,
// SetAllocation, Crash) requires a placed one, so no job ever leaves
// kCompleted. A job that completes therefore belongs in no view again, and
// the non-const views drop it from the live list the next time they run.
// They change only that private list, never a Job, and return exactly the
// jobs and order a filter over All() would. Because they write, they are
// not safe to call concurrently; the controller reads the queue from its
// control thread only.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "batch/job.h"

namespace mwp {

class JobQueue {
 public:
  JobQueue() = default;
  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Transfer ownership of a job into the queue. Ids must be unique;
  /// duplicate submission throws. O(1) expected — bulk submission of n jobs
  /// is O(n) overall (the id index makes the duplicate check a hash lookup,
  /// not a scan).
  Job& Submit(std::unique_ptr<Job> job);

  std::size_t size() const { return jobs_.size(); }

  /// O(1) expected lookup by id; null when unknown.
  Job* Find(AppId id);
  const Job* Find(AppId id) const;

  /// All jobs ever submitted, in submission order.
  std::vector<Job*> All();
  std::vector<const Job*> All() const;

  /// Jobs not yet completed, in submission order — the management entities a
  /// placement controller reasons about each cycle.
  std::vector<Job*> Incomplete();

  /// Placed (running or paused) jobs.
  std::vector<Job*> Placed();

  /// Jobs waiting for placement (not-started or suspended), submission order.
  std::vector<Job*> AwaitingPlacement();

  /// Completed jobs, in submission order. O(history).
  std::vector<const Job*> Completed() const;

  /// O(live jobs).
  std::size_t num_completed() const;

 private:
  /// Drops completed jobs from live_ (stable) and returns it.
  const std::vector<Job*>& PruneCompleted();

  std::vector<std::unique_ptr<Job>> jobs_;
  /// id → index into jobs_. Jobs are never removed, so the map only grows
  /// in Submit and stays in sync by construction.
  std::unordered_map<AppId, std::size_t> index_;
  /// Every job not yet completed, in submission order, plus any that
  /// completed since the last PruneCompleted(). Points into jobs_.
  std::vector<Job*> live_;
};

}  // namespace mwp
