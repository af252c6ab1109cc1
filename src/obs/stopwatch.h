// Host wall-time stopwatch: the one place the tree reads a real clock.
//
// Simulated time is the only time decisions see. The few host-time
// measurements the system keeps — the controller's solver_seconds, the
// sharded optimizer's per-cell solve seconds, the service's event-to-decision
// latency — measure the implementation itself and feed metrics and traces
// only, never a decision or the simulation clock. They all read the clock
// through this header, so the determinism auditor allowlists exactly one
// clock read (tools/analysis/determinism_audit.py, AUD-D3).
#pragma once

#include <chrono>
#include <cstdint>

#include "common/units.h"

namespace mwp::obs {

/// Monotonic stopwatch, started on construction.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(NowNs()) {}

  /// Host seconds since construction.
  Seconds Elapsed() const {
    return std::chrono::duration<double>(
               std::chrono::nanoseconds(NowNs() - start_ns_))
        .count();
  }

  /// Monotonic host clock in nanoseconds (arbitrary epoch); differences of
  /// two reads are latencies.
  static std::uint64_t NowNs() {
    // audit: wall-clock-ok(host-time metrics and traces only)
    const auto now = std::chrono::steady_clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
  }

 private:
  std::uint64_t start_ns_;
};

}  // namespace mwp::obs
