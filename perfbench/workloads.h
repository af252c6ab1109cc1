// The benchmark's three workloads, each run as one "pass": set up (generate
// the inputs, build the controller), then run the simulation to its end.
//
//   exp1-paper   Experiment One at the paper's full size (25 nodes, 800
//                identical jobs, Poisson mean 260 s, 600 s cycle, monolithic
//                max-min solver), driven through the event-driven
//                ControllerService in sim mode. Decisions are identical to
//                the direct periodic drive (the quiescent-equivalence test
//                pins this down); the service lets the benchmark time every
//                decision from Publish to the return of Pump.
//   storm-25     ControllerService in sim mode on 25 nodes: Poisson
//                arrivals 0.5 s apart, two fault/restore episodes, one
//                sinusoidal transactional app with load-shift watching, and
//                periodic ticks. Closed loop: each event is published and
//                pumped before the next.
//   alibaba-100  AlibabaScenarioSpec at 100 nodes in APC mode, sharded with
//                25-node cells, through workload::RunScenario. Runnable by
//                hand; not in BENCHMARK.json (see README.md).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "layers.h"
#include "obs/cycle_trace.h"

namespace perfbench {

/// Host seconds on the steady clock.
double NowSeconds();

/// Optimizer search lanes of the service-driven workloads. Decisions are
/// identical for every lane count; one lane keeps the timings independent
/// of how many cores the host has, and of how many of them are busy.
inline constexpr int kSearchLanes = 1;

/// Hardware threads of the host (std::thread::hardware_concurrency). The
/// sharded solver of alibaba-100 runs its cells on that many threads, as
/// ScenarioSpec has no cell-thread setting.
int HardwareThreads();

bool KnownWorkload(const std::string& name);

/// Per-event timing of the service-driven workloads, taken by the
/// benchmark around ControllerService::Publish and ::Pump.
struct DecisionTiming {
  std::vector<double> decide_us;   ///< Publish call to Pump return, per event
  std::vector<double> publish_ns;  ///< Publish alone
  /// Pump time split by the decision the service took (counter deltas).
  std::vector<double> quick_us;
  std::vector<double> repair_us;
  std::vector<double> full_ms;
  std::uint64_t published = 0;
  std::uint64_t shed = 0;     ///< events the inbox refused
  std::uint64_t decided = 0;  ///< events drained and decided
};

struct PassOptions {
  std::uint64_t seed = 42;
  /// Receives one CycleTrace per control cycle (never null in a pass: the
  /// per-cycle solver times are read from it).
  mwp::obs::TraceRecorder* recorder = nullptr;
  /// Record the full optimizer input and decision for replay.
  bool trace_full = false;
  std::string run_id;
  /// Optional span log: the pass records its setup and run, and every
  /// Publish and Pump of a service-driven workload.
  SpanLog* spans = nullptr;
};

struct PassResult {
  double setup_s = 0.0;  ///< host time before the first simulated event
  double run_s = 0.0;    ///< host time of the simulation after setup
  std::uint64_t workload_hash = 0;
  /// End-state fingerprint "id:status:node:work;" in submission order.
  std::string fingerprint;
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;
  std::vector<double> job_rp;  ///< achieved RP per completed job
  int tx_samples = 0;
  int tx_over_goal = 0;
  int placement_changes = 0;
  int disruptive_changes = 0;  ///< suspends + resumes + migrations
  /// Highest per-cycle average hypothetical RP (exp1-paper's 0.63 ceiling).
  double max_hypothetical_rp = -std::numeric_limits<double>::infinity();
  int cycles = 0;  ///< control cycles run (full solves, shortcut or not)
  DecisionTiming decisions;
  double peak_rss_mb = 0.0;  ///< process high-water mark after the pass
  /// Per control cycle, from the recorder: solver host time of cycles that
  /// ran the search (not the shortcut), and totals over all cycles.
  std::vector<double> cycle_ms;
  double solver_s = 0.0;
  std::uint64_t evaluations = 0;
};

/// Sets up and runs one pass of `workload`.
PassResult RunPass(const std::string& workload, const PassOptions& options);

/// Host seconds of `workload`'s setup alone (built, then discarded).
double SetupOnly(const std::string& workload, std::uint64_t seed);

/// Host seconds of workload::GenerateWorkload on alibaba-100's spec for
/// `seed` — the workload layer's generator, timed in every traced run.
double GenerateAlibaba(std::uint64_t seed);

}  // namespace perfbench
