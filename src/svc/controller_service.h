// Event-driven controller service: ApcController as a long-running service.
//
// The paper's controller wakes on a fixed periodic cycle (§3.1). This
// service turns it event-driven: producers publish typed ControlEvents
// (job arrival/completion, node fault/restore, tx load shift, timer tick)
// into a bounded lock-free MPSC inbox; the control side drains batches,
// deduplicates them, and classifies each batch:
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
// Two driving modes share that decision logic:
//
//   * Sim mode (Pump): event adapters publish and pump from inside
//     simulation events. Decisions run synchronously through the exact
//     RunCycle / OnJobSubmitted / OnNodeFault entry points, so a service
//     driven only by timer ticks is bit-identical to the periodic
//     controller (the quiescent-equivalence test pins this down).
//   * Threaded mode (Start/Stop): a dedicated control thread drains the
//     inbox. Full solves can run asynchronously: the capture is staged in
//     a core::DoubleBuffer (latest-wins) and solved on a ThreadPool via
//     non-blocking TrySubmit, so state ingestion and sub-cycle repairs
//     continue while the solver runs; the commit happens back on the
//     control thread. Structural events (fault/restore) are deferred while
//     a solve is in flight so world mutations never race the solver.
//
// Observability (optional MetricsRegistry): the event-to-decision latency
// histogram (p50/p95/p99 via the obs quantile export), inbox depth gauge,
// decisions-by-kind counters, shed/dedup counters, and async-solve
// deferral counters. Event-triggered full cycles tag their CycleTrace
// record with trigger="event"; tick cycles stay untagged so traces remain
// byte-identical to periodic-controller recordings.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/apc_controller.h"
#include "core/double_buffer.h"
#include "core/thread_pool.h"
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
    /// Threaded mode: run full solves asynchronously on `solver_pool`
    /// (requires a pool with >= 1 worker). Sim mode ignores this.
    bool async_full_solve = false;
    ThreadPool* solver_pool = nullptr;
    /// Threaded mode: how long the control thread parks when idle.
    std::int64_t idle_wait_ns = 1'000'000;
    /// Threaded mode: applies an event's world mutation on the control
    /// thread before the batch is classified — create and submit the Job
    /// for a kJobArrival, flip cluster health for kNodeFault/kNodeRestore.
    /// Runs serialized with solves (structural events are deferred while a
    /// solve is in flight). Sim mode leaves this unset: the simulation's
    /// own actors (workload source, fault injector) mutate the world.
    std::function<void(const ControlEvent&)> apply_event;
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
    std::uint64_t deferrals = 0;        ///< solves/batches deferred (busy)
  };

  ControllerService(ApcController* controller, Config config);
  ~ControllerService();

  ControllerService(const ControllerService&) = delete;
  ControllerService& operator=(const ControllerService&) = delete;

  /// Producer API, callable from any thread: stamp and enqueue. Returns
  /// false when the inbox sheds the event (bounded, never blocks).
  bool Publish(ControlEvent event);

  /// Sim mode: drain the inbox and decide at sim.now(). Called by the
  /// event adapters right after they publish, from simulation events.
  void Pump(Simulation& sim);

  /// Threaded mode: start/stop the control thread. Stop drains the inbox,
  /// waits out an in-flight solve and commits it, then joins.
  void Start();
  void Stop();

  const EventInbox& inbox() const { return inbox_; }
  const Counters& counters() const { return counters_; }
  /// Largest event/decision time seen so far (threaded mode's clock).
  Seconds now() const { return now_; }

 private:
  /// One drained batch, deduplicated into decision-relevant aggregates.
  struct Batch {
    Seconds time = 0.0;                 ///< max event time in the batch
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
  /// Decide and execute one batch. `sim` null = threaded mode.
  void HandleBatch(const std::vector<ControlEvent>& events, Simulation* sim);

  // Threaded-mode internals (control thread only unless noted).
  void RunLoop(const std::stop_token& stop);
  void LaunchAsyncSolve();
  /// Commits a finished async solve, replays deferred structural batches,
  /// and launches the next staged solve. No-op while the solve runs.
  void CheckAsyncCompletion();
  void FinishOutstanding();
  void ObserveLatencies(const std::vector<std::uint64_t>& stamps);

  ApcController* controller_;
  Config config_;
  EventInbox inbox_;
  Counters counters_;
  Seconds now_ = 0.0;
  std::uint64_t last_dropped_ = 0;

  // Async full-solve state. The double buffer stages captures (written by
  // the control thread, read by the solver task); `solving_`/`solution_`
  // hand the result back, published by the release-store to `solve_done_`.
  DoubleBuffer<CycleCapture> staged_;
  std::vector<std::uint64_t> staged_stamps_;
  std::atomic<bool> solve_in_flight_{false};
  std::atomic<bool> solve_done_{false};
  const CycleCapture* solving_ = nullptr;
  CycleSolution solution_;
  std::vector<std::uint64_t> inflight_stamps_;

  /// Structural batches deferred while a solve is in flight (events kept
  /// verbatim; replayed through HandleBatch after the commit).
  std::vector<ControlEvent> deferred_;

  std::vector<ControlEvent> drain_buffer_;
  std::jthread thread_;
};

}  // namespace mwp
