#include "svc/controller_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "obs/stopwatch.h"

namespace mwp {

ControllerService::ControllerService(ApcController* controller, Config config)
    : controller_(controller),
      config_(std::move(config)),
      inbox_(config_.inbox_capacity) {
  MWP_CHECK(controller_ != nullptr);
  MWP_CHECK(config_.max_drain_batch > 0);
  if (config_.async_full_solve) {
    MWP_CHECK_MSG(config_.solver_pool != nullptr,
                  "async_full_solve requires a solver_pool");
  }
}

ControllerService::~ControllerService() { Stop(); }

bool ControllerService::Publish(ControlEvent event) {
  event.publish_ns = obs::Stopwatch::NowNs();
  return inbox_.TryPush(event);
}

void ControllerService::Pump(Simulation& sim) {
  drain_buffer_.clear();
  inbox_.DrainInto(drain_buffer_,
                   static_cast<std::size_t>(config_.max_drain_batch));
  if (drain_buffer_.empty()) return;
  HandleBatch(drain_buffer_, &sim);
}

ControllerService::Batch ControllerService::Summarize(
    const std::vector<ControlEvent>& events) {
  Batch b;
  b.stamps.reserve(events.size());
  for (const ControlEvent& e : events) {
    b.time = std::max(b.time, e.time);
    b.stamps.push_back(e.publish_ns);
    switch (e.kind) {
      case ControlEventKind::kJobArrival:
        ++b.arrivals;
        break;
      case ControlEventKind::kJobCompletion:
        ++b.completions;
        break;
      case ControlEventKind::kNodeFault:
        // N faults of one node in one batch are one repair, not N.
        if (std::find(b.fault_nodes.begin(), b.fault_nodes.end(), e.node) ==
            b.fault_nodes.end()) {
          b.fault_nodes.push_back(e.node);
        } else {
          ++b.deduped;
        }
        break;
      case ControlEventKind::kNodeRestore:
        if (std::find(b.restore_nodes.begin(), b.restore_nodes.end(),
                      e.node) == b.restore_nodes.end()) {
          b.restore_nodes.push_back(e.node);
        } else {
          ++b.deduped;
        }
        break;
      case ControlEventKind::kTxLoadShift:
        // Only the newest shift per app matters; earlier ones are stale.
        if (std::find(b.tx_shifts.begin(), b.tx_shifts.end(), e.tx_index) ==
            b.tx_shifts.end()) {
          b.tx_shifts.push_back(e.tx_index);
        } else {
          ++b.deduped;
        }
        break;
      case ControlEventKind::kTimerTick:
        // Coalesce ticks: one cycle serves any number of pending ticks.
        if (b.tick) ++b.deduped;
        b.tick = true;
        break;
    }
  }
  const std::uint64_t dropped = inbox_.dropped();
  b.overflow = dropped != last_dropped_;
  if (config_.metrics != nullptr && dropped != last_dropped_) {
    config_.metrics->counter("svc.events_shed")
        .Increment(dropped - last_dropped_);
  }
  last_dropped_ = dropped;
  return b;
}

ControllerService::Decision ControllerService::Classify(
    const Batch& batch) const {
  // Large drift first: a periodic tick always means a full cycle (the
  // paper's baseline semantics); restores and load shifts change where
  // capacity/demand lives, which only the optimizer can re-balance; an
  // overflowed inbox means shed events — the ground truth must be re-read.
  if (batch.tick || !batch.restore_nodes.empty() || !batch.tx_shifts.empty() ||
      batch.overflow) {
    return Decision::kFullCycle;
  }
  if (!batch.fault_nodes.empty()) {
    return static_cast<int>(batch.fault_nodes.size()) <=
                   config_.max_fault_repairs
               ? Decision::kRepair
               : Decision::kFullCycle;
  }
  // Pure arrival/completion traffic: small batches ride the quick-dispatch
  // path; a flood of them is drift worth a full solve.
  return batch.arrivals + batch.completions <= config_.small_batch_events
             ? Decision::kQuickDispatch
             : Decision::kFullCycle;
}

void ControllerService::HandleBatch(const std::vector<ControlEvent>& events,
                                    Simulation* sim) {
  Batch b = Summarize(events);
  now_ = std::max(now_, sim != nullptr ? sim->now() : b.time);
  obs::MetricsRegistry* m = config_.metrics;

  // Threaded mode: world mutations are serialized with solves. A batch
  // carrying structural events while a solve is in flight is deferred
  // whole and replayed right after the commit — and counted then, so every
  // accepted event is accounted exactly once.
  const bool structural = !b.fault_nodes.empty() || !b.restore_nodes.empty();
  if (sim == nullptr && structural &&
      solve_in_flight_.load(std::memory_order_relaxed)) {
    deferred_.insert(deferred_.end(), events.begin(), events.end());
    ++counters_.deferrals;
    if (m != nullptr) m->counter("svc.structural_deferrals").Increment();
    return;
  }

  ++counters_.batches;
  counters_.deduped += static_cast<std::uint64_t>(b.deduped);
  if (m != nullptr) {
    m->counter("svc.events").Increment(events.size());
    if (b.deduped > 0) {
      m->counter("svc.events_deduped")
          .Increment(static_cast<std::uint64_t>(b.deduped));
    }
    m->gauge("svc.inbox_depth").Set(static_cast<double>(inbox_.size()));
  }
  if (sim == nullptr && config_.apply_event) {
    for (const ControlEvent& e : events) {
      if (e.kind == ControlEventKind::kJobArrival ||
          e.kind == ControlEventKind::kNodeFault ||
          e.kind == ControlEventKind::kNodeRestore) {
        config_.apply_event(e);
      }
    }
  }

  switch (Classify(b)) {
    case Decision::kQuickDispatch:
      if (sim != nullptr) {
        controller_->OnJobSubmitted(*sim);
      } else {
        controller_->QuickDispatchAt(now_);
      }
      ++counters_.quick_dispatches;
      if (m != nullptr) m->counter("svc.decisions.quick_dispatch").Increment();
      ObserveLatencies(b.stamps);
      break;
    case Decision::kRepair:
      if (sim != nullptr) {
        controller_->OnNodeFault(*sim);
      } else {
        controller_->OnNodeFaultAt(now_);
      }
      ++counters_.repairs;
      if (m != nullptr) m->counter("svc.decisions.repair").Increment();
      ObserveLatencies(b.stamps);
      break;
    case Decision::kFullCycle: {
      // Tick cycles stay untagged so service traces match periodic ones.
      const bool async = sim == nullptr && !b.tick &&
                         config_.async_full_solve &&
                         config_.solver_pool != nullptr;
      if (async) {
        // Stage the freshest state (latest-wins) for the solver; the
        // batch's latency stamps ride along to the eventual commit.
        staged_.Publish(controller_->CaptureCycle(now_));
        staged_stamps_.insert(staged_stamps_.end(), b.stamps.begin(),
                              b.stamps.end());
        if (solve_in_flight_.load(std::memory_order_relaxed)) {
          ++counters_.deferrals;
          if (m != nullptr) {
            m->counter("svc.solver_busy_deferrals").Increment();
          }
        } else {
          LaunchAsyncSolve();
        }
        break;
      }
      controller_->set_next_cycle_trigger(b.tick ? "" : "event");
      if (sim != nullptr) {
        controller_->RunCycle(*sim);
      } else {
        controller_->RunCycleAt(now_);
      }
      ++counters_.full_cycles;
      if (m != nullptr) m->counter("svc.decisions.cycle").Increment();
      ObserveLatencies(b.stamps);
      break;
    }
  }
}

void ControllerService::LaunchAsyncSolve() {
  if (solve_in_flight_.load(std::memory_order_relaxed)) return;
  if (!staged_.has_latest()) return;
  inflight_stamps_ = std::move(staged_stamps_);
  staged_stamps_.clear();
  solve_done_.store(false, std::memory_order_relaxed);
  solve_in_flight_.store(true, std::memory_order_relaxed);
  const bool accepted = config_.solver_pool->TrySubmit([this] {
    // Solver task: reads only the frozen capture; hands the result back
    // via the release-store on solve_done_.
    solving_ = staged_.Acquire();
    if (solving_ != nullptr) {
      solution_ = controller_->SolveCycle(solving_->snapshot);
    }
    solve_done_.store(true, std::memory_order_release);
  });
  if (accepted) {
    if (config_.metrics != nullptr) {
      config_.metrics->counter("svc.async_solves").Increment();
    }
    return;
  }
  // Pool saturated: shed the async attempt and solve inline — a bounded
  // synchronous decision beats blocking the control thread on the pool.
  solve_in_flight_.store(false, std::memory_order_relaxed);
  if (config_.metrics != nullptr) {
    config_.metrics->counter("svc.pool_saturated_fallbacks").Increment();
  }
  const CycleCapture* capture = staged_.Acquire();
  MWP_CHECK(capture != nullptr);
  CycleSolution solution = controller_->SolveCycle(capture->snapshot);
  controller_->set_next_cycle_trigger("event");
  controller_->CommitCycle(*capture, std::move(solution),
                           std::max(now_, capture->now), nullptr);
  staged_.Release();
  ++counters_.full_cycles;
  if (config_.metrics != nullptr) {
    config_.metrics->counter("svc.decisions.cycle").Increment();
  }
  ObserveLatencies(inflight_stamps_);
  inflight_stamps_.clear();
}

void ControllerService::CheckAsyncCompletion() {
  if (!solve_in_flight_.load(std::memory_order_relaxed)) return;
  if (!solve_done_.load(std::memory_order_acquire)) return;
  if (solving_ != nullptr) {
    controller_->set_next_cycle_trigger("event");
    controller_->CommitCycle(*solving_, std::move(solution_),
                             std::max(now_, solving_->now), nullptr);
    staged_.Release();
    solving_ = nullptr;
    ++counters_.full_cycles;
    if (config_.metrics != nullptr) {
      config_.metrics->counter("svc.decisions.cycle").Increment();
    }
    ObserveLatencies(inflight_stamps_);
  }
  inflight_stamps_.clear();
  solve_in_flight_.store(false, std::memory_order_relaxed);
  // The world may mutate again: replay structural batches deferred during
  // the solve, then start the next staged solve if drift accumulated.
  if (!deferred_.empty()) {
    const std::vector<ControlEvent> replay = std::move(deferred_);
    deferred_.clear();
    HandleBatch(replay, nullptr);
  }
  LaunchAsyncSolve();
}

void ControllerService::RunLoop(const std::stop_token& stop) {
  while (!stop.stop_requested()) {
    CheckAsyncCompletion();
    drain_buffer_.clear();
    inbox_.DrainInto(drain_buffer_,
                     static_cast<std::size_t>(config_.max_drain_batch));
    if (drain_buffer_.empty()) {
      if (solve_in_flight_.load(std::memory_order_relaxed)) {
        // Poll for solver completion at a fine grain; the inbox doorbell
        // cannot signal it.
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        inbox_.WaitNonEmpty(config_.idle_wait_ns);
      }
      continue;
    }
    HandleBatch(drain_buffer_, nullptr);
  }
  FinishOutstanding();
}

void ControllerService::FinishOutstanding() {
  // Quiesce deterministically: wait out the in-flight solve, then handle
  // everything left synchronously (no new async solves).
  config_.async_full_solve = false;
  for (;;) {
    while (solve_in_flight_.load(std::memory_order_relaxed) &&
           !solve_done_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    CheckAsyncCompletion();
    drain_buffer_.clear();
    if (inbox_.DrainInto(drain_buffer_, static_cast<std::size_t>(
                                            config_.max_drain_batch)) == 0) {
      break;
    }
    HandleBatch(drain_buffer_, nullptr);
  }
  // A solve staged but never launched (async was just disabled): commit it
  // through the synchronous path so no decision is lost.
  if (staged_.has_latest()) {
    const CycleCapture* capture = staged_.Acquire();
    CycleSolution solution = controller_->SolveCycle(capture->snapshot);
    controller_->set_next_cycle_trigger("event");
    controller_->CommitCycle(*capture, std::move(solution),
                             std::max(now_, capture->now), nullptr);
    staged_.Release();
    ++counters_.full_cycles;
    ObserveLatencies(staged_stamps_);
    staged_stamps_.clear();
  }
}

void ControllerService::Start() {
  MWP_CHECK_MSG(!thread_.joinable(), "service already started");
  thread_ = std::jthread([this](std::stop_token stop) { RunLoop(stop); });
}

void ControllerService::Stop() {
  if (!thread_.joinable()) return;
  thread_.request_stop();
  thread_.join();
  thread_ = std::jthread();
}

void ControllerService::ObserveLatencies(
    const std::vector<std::uint64_t>& stamps) {
  if (config_.metrics == nullptr || stamps.empty()) return;
  obs::Histogram& h =
      config_.metrics->histogram("svc.event_to_decision_seconds");
  const std::uint64_t end = obs::Stopwatch::NowNs();
  for (const std::uint64_t start : stamps) {
    h.Observe(start < end ? static_cast<double>(end - start) * 1e-9 : 0.0);
  }
}

}  // namespace mwp
