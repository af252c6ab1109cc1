#include "svc/controller_service.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "obs/stopwatch.h"

namespace mwp {

ControllerService::ControllerService(ApcController* controller, Config config)
    : controller_(controller),
      config_(std::move(config)),
      inbox_(config_.inbox_capacity) {
  MWP_CHECK(controller_ != nullptr);
  MWP_CHECK(config_.max_drain_batch > 0);
}

bool ControllerService::Publish(ControlEvent event) {
  event.publish_ns = obs::Stopwatch::NowNs();
  return inbox_.TryPush(event);
}

void ControllerService::Pump(Simulation& sim) {
  drain_buffer_.clear();
  inbox_.DrainInto(drain_buffer_,
                   static_cast<std::size_t>(config_.max_drain_batch));
  if (drain_buffer_.empty()) return;
  HandleBatch(drain_buffer_, sim);
}

ControllerService::Batch ControllerService::Summarize(
    const std::vector<ControlEvent>& events) {
  Batch b;
  b.stamps.reserve(events.size());
  for (const ControlEvent& e : events) {
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
                                    Simulation& sim) {
  const Batch b = Summarize(events);
  obs::MetricsRegistry* m = config_.metrics;

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

  switch (Classify(b)) {
    case Decision::kQuickDispatch:
      controller_->OnJobSubmitted(sim);
      ++counters_.quick_dispatches;
      if (m != nullptr) m->counter("svc.decisions.quick_dispatch").Increment();
      break;
    case Decision::kRepair:
      controller_->OnNodeFault(sim);
      ++counters_.repairs;
      if (m != nullptr) m->counter("svc.decisions.repair").Increment();
      break;
    case Decision::kFullCycle:
      // Tick cycles stay untagged so service traces match periodic ones.
      controller_->set_next_cycle_trigger(b.tick ? "" : "event");
      controller_->RunCycle(sim);
      ++counters_.full_cycles;
      if (m != nullptr) m->counter("svc.decisions.cycle").Increment();
      break;
  }
  ObserveLatencies(b.stamps);
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
