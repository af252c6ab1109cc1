// Event-driven controller service: ApcController as a long-running service.
//
// The paper's controller wakes on a fixed periodic cycle (§3.1). This
// service turns it event-driven: producers publish typed ControlEvents
// (job arrival/completion, node fault/restore, tx load shift, timer tick)
// into a bounded lock-free MPSC inbox; Pump drains batches, deduplicates
// them, and classifies each batch:
//
//   * small perturbation — a modest batch of arrivals/completions, or a
//     bounded set of faulted nodes — is answered sub-cycle by the
//     incremental machinery (quick dispatch / the PR-2 bounded-churn
//     repair), without a full solve;
//   * large drift — a timer tick, node restores, tx load shifts past the
//     producer's threshold, oversized batches, or inbox overflow (shed
//     events mean the inbox no longer reflects ground truth) — triggers a
//     full control cycle.
//
// The service is driven from inside a simulation: event adapters
// (svc/event_adapters.h) publish and then Pump from simulation events, and
// each decision runs synchronously through the controller's RunCycle /
// OnJobSubmitted / OnNodeFault, the paper's periodic loop with the job
// scheduler acting between cycles (§3.1). A service driven only by timer
// ticks is therefore bit-identical to the periodic controller (the
// quiescent-equivalence test pins this down).
//
// Observability (optional MetricsRegistry): the event-to-decision latency
// histogram (p50/p95/p99 via the obs quantile export), inbox depth gauge,
// decisions-by-kind counters and shed/dedup counters. Event-triggered
// full cycles tag their CycleTrace record with trigger="event"; tick
// cycles stay untagged so traces remain byte-identical to
// periodic-controller recordings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/apc_controller.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "svc/control_event.h"
#include "svc/event_inbox.h"

namespace mwp {

class ControllerService {
 public:
  struct Config {
    /// Inbox ring capacity (rounded up to a power of two). Producers shed
    /// beyond this; overflow forces the next decision to be a full cycle.
    std::size_t inbox_capacity = 4096;
    /// Events drained per decision batch.
    int max_drain_batch = 256;
    /// Classification: a deduplicated batch of at most this many pure
    /// arrival/completion events is a small perturbation (quick dispatch).
    int small_batch_events = 8;
    /// Classification: at most this many distinct faulted nodes per batch
    /// are handled by the bounded-churn repair path; more is large drift.
    int max_fault_repairs = 4;
    /// Optional metrics sink (svc.* instruments). Non-owning.
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Per-kind decision counters (also exported as svc.decisions.*).
  struct Counters {
    std::uint64_t full_cycles = 0;      ///< full solves committed
    std::uint64_t repairs = 0;          ///< bounded-churn repair decisions
    std::uint64_t quick_dispatches = 0; ///< arrival/completion fast path
    std::uint64_t batches = 0;          ///< decision batches handled
    std::uint64_t deduped = 0;          ///< redundant events dropped in drain
  };

  ControllerService(ApcController* controller, Config config);

  ControllerService(const ControllerService&) = delete;
  ControllerService& operator=(const ControllerService&) = delete;

  /// Producer API, callable from any thread: stamp and enqueue. Returns
  /// false when the inbox sheds the event (bounded, never blocks).
  bool Publish(ControlEvent event);

  /// Drain the inbox and decide at sim.now(). Called by the event
  /// adapters right after they publish, from simulation events.
  void Pump(Simulation& sim);

  const EventInbox& inbox() const { return inbox_; }
  const Counters& counters() const { return counters_; }

 private:
  /// One drained batch, deduplicated into decision-relevant aggregates.
  struct Batch {
    int arrivals = 0;
    int completions = 0;
    std::vector<NodeId> fault_nodes;    ///< distinct
    std::vector<NodeId> restore_nodes;  ///< distinct
    std::vector<int> tx_shifts;         ///< distinct tx indices
    bool tick = false;
    bool overflow = false;              ///< inbox shed events since last batch
    int deduped = 0;
    std::vector<std::uint64_t> stamps;  ///< publish stamps of every event
  };

  enum class Decision { kQuickDispatch, kRepair, kFullCycle };

  Batch Summarize(const std::vector<ControlEvent>& events);
  Decision Classify(const Batch& batch) const;
  /// Decide and execute one batch at sim.now().
  void HandleBatch(const std::vector<ControlEvent>& events, Simulation& sim);
  void ObserveLatencies(const std::vector<std::uint64_t>& stamps);

  ApcController* controller_;
  Config config_;
  EventInbox inbox_;
  Counters counters_;
  std::uint64_t last_dropped_ = 0;
  std::vector<ControlEvent> drain_buffer_;
};

}  // namespace mwp
