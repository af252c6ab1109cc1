// Typed control-plane events for the event-driven controller service.
//
// Producers (workload sources, fault detectors, load watchers, timers)
// describe *what happened* in one of these records and push it into the
// service's bounded inbox; the service drains, deduplicates and classifies
// them into placement decisions (see svc/controller_service.h).
// Events are plain values — trivially copyable, no ownership — so the
// lock-free inbox can move them between threads without allocation.
#pragma once

#include <cstdint>

#include "common/units.h"

namespace mwp {

enum class ControlEventKind : std::uint8_t {
  kJobArrival = 0,    ///< a batch job entered the queue
  kJobCompletion,     ///< a placed batch job finished (freed capacity)
  kNodeFault,         ///< a node went offline/degraded
  kNodeRestore,       ///< a node came back online
  kTxLoadShift,       ///< a tx app's arrival rate moved past the threshold
  kTimerTick,         ///< periodic control-cycle tick (paper baseline)
};

/// Number of distinct ControlEventKind values (array sizing).
inline constexpr int kNumControlEventKinds = 6;

const char* ControlEventKindName(ControlEventKind kind);

struct ControlEvent {
  ControlEventKind kind = ControlEventKind::kTimerTick;
  /// Simulation time at which the event happened. Decisions are made at
  /// the simulation's current instant when the service pumps.
  Seconds time = 0.0;
  /// Subject of the event: the job for arrival/completion, the node for
  /// fault/restore, the registration index of the tx app for a load shift.
  AppId job = kInvalidApp;
  NodeId node = kInvalidNode;
  int tx_index = -1;
  /// New observed arrival rate (kTxLoadShift only).
  double arrival_rate = 0.0;
  /// Monotonic publish stamp in nanoseconds, written by
  /// ControllerService::Publish when the event enters the inbox; the
  /// event-to-decision latency histogram is (decision stamp − this).
  std::uint64_t publish_ns = 0;
};

}  // namespace mwp
