#include "batch/job_queue.h"

#include <algorithm>

#include "common/check.h"

namespace mwp {

Job& JobQueue::Submit(std::unique_ptr<Job> job) {
  MWP_CHECK(job != nullptr);
  const auto [it, inserted] = index_.emplace(job->id(), jobs_.size());
  MWP_CHECK_MSG(inserted, "duplicate job id " << job->id());
  jobs_.push_back(std::move(job));
  live_.push_back(jobs_.back().get());
  return *jobs_.back();
}

Job* JobQueue::Find(AppId id) {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : jobs_[it->second].get();
}

const Job* JobQueue::Find(AppId id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : jobs_[it->second].get();
}

std::vector<Job*> JobQueue::All() {
  std::vector<Job*> out;
  out.reserve(jobs_.size());
  for (auto& j : jobs_) out.push_back(j.get());
  return out;
}

std::vector<const Job*> JobQueue::All() const {
  std::vector<const Job*> out;
  out.reserve(jobs_.size());
  for (const auto& j : jobs_) out.push_back(j.get());
  return out;
}

const std::vector<Job*>& JobQueue::PruneCompleted() {
  std::erase_if(live_, [](const Job* j) { return j->completed(); });
  return live_;
}

std::vector<Job*> JobQueue::Incomplete() { return PruneCompleted(); }

std::vector<Job*> JobQueue::Placed() {
  std::vector<Job*> out;
  for (Job* j : PruneCompleted()) {
    if (j->placed()) out.push_back(j);
  }
  return out;
}

std::vector<Job*> JobQueue::AwaitingPlacement() {
  std::vector<Job*> out;
  for (Job* j : PruneCompleted()) {
    if (j->status() == JobStatus::kNotStarted ||
        j->status() == JobStatus::kSuspended) {
      out.push_back(j);
    }
  }
  return out;
}

std::vector<const Job*> JobQueue::Completed() const {
  std::vector<const Job*> out;
  for (const auto& j : jobs_) {
    if (j->completed()) out.push_back(j.get());
  }
  return out;
}

std::size_t JobQueue::num_completed() const {
  // Every job outside live_ has completed; live_ may still hold jobs that
  // completed since the last prune.
  return jobs_.size() -
         static_cast<std::size_t>(std::count_if(
             live_.begin(), live_.end(),
             [](const Job* j) { return !j->completed(); }));
}

}  // namespace mwp
