#include "replay/replay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "exp/experiment1.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"
#include "replay/trace_reader.h"

namespace mwp::replay {
namespace {

// Records a scaled-down Experiment 1 with --trace-full semantics, exports it
// through the real JSONL writer and parses it back — the exact pipeline
// `bench_fig2_exp1 --trace-out x.jsonl --trace-full` + `replay_apc` uses.
ParsedTrace RecordExperiment1FullTrace() {
  obs::TraceRecorder recorder;
  Experiment1Config config;
  config.num_jobs = 12;
  config.num_nodes = 4;
  config.trace = &recorder;
  config.trace_run_id = "selftest";
  config.trace_full = true;
  const Experiment1Result result = RunExperiment1(config);
  EXPECT_EQ(result.completed, 12u);

  std::ostringstream os;
  obs::WriteTraceJsonl(
      os,
      obs::MakeTraceContext("experiment1", config.seed, config.control_cycle,
                            "selftest"),
      recorder.Traces());
  std::string error;
  auto parsed = ParseTraceJsonl(os.str(), &error);
  EXPECT_TRUE(parsed.has_value()) << error;
  return std::move(*parsed);
}

// One recording serves every test below; replay never mutates it.
const ParsedTrace& FullTrace() {
  static const ParsedTrace trace = RecordExperiment1FullTrace();
  return trace;
}

// Index of a replayed cycle whose decision has at least one placement cell
// and a non-empty rp_after (i.e. a cycle where the solver actually placed
// jobs).
std::size_t BusyCycleIndex(const ParsedTrace& trace) {
  for (std::size_t i = 0; i < trace.cycles.size(); ++i) {
    const obs::CycleTrace& t = trace.cycles[i];
    if (t.input.has_value() && !t.decision->placement.empty() &&
        !t.rp_after.empty()) {
      return i;
    }
  }
  ADD_FAILURE() << "no busy cycle in recorded trace";
  return 0;
}

TEST(ReplayTest, RecordThenReplayIsBitExact) {
  // Same build, same inputs: the optimizer is deterministic, so every cycle
  // must replay to the identical placement with zero RP drift — not merely
  // within tolerance.
  const ReplayOptions options;
  const ReplayReport report = ReplayTrace(FullTrace(), options);
  EXPECT_GT(report.total_cycles, 0);
  EXPECT_EQ(report.replayed_cycles, report.total_cycles);
  EXPECT_EQ(report.skipped_cycles, 0);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.regressed_cycles, 0);
  EXPECT_EQ(report.cycles_with_placement_diff, 0);
  EXPECT_EQ(report.max_rp_drift, 0.0);
  EXPECT_EQ(report.max_allocation_drift, 0.0);
  EXPECT_EQ(report.better_cycles, 0);
  EXPECT_EQ(report.worse_cycles, 0);
  for (const CycleReplayDiff& diff : report.cycles) {
    EXPECT_EQ(diff.total_change_delta(), 0) << "cycle " << diff.cycle;
    EXPECT_EQ(diff.run_id, "selftest");
  }
}

TEST(ReplayTest, ReplayIsThreadCountInvariant) {
  // The parallel candidate search must commit the same decisions as the
  // sequential one; replaying with more lanes stays bit-exact.
  ReplayOptions options;
  options.search_threads = 4;
  const ReplayReport report = ReplayTrace(FullTrace(), options);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cycles_with_placement_diff, 0);
  EXPECT_EQ(report.max_rp_drift, 0.0);
}

TEST(ReplayTest, CyclesWithoutInputAreSkippedNotFailed) {
  ParsedTrace trace;
  trace.schema_version = obs::kTraceSchemaVersion;
  obs::CycleTrace bare;  // v1-style record: no input/decision
  bare.cycle = 0;
  trace.cycles.push_back(bare);

  const ReplayOptions options;
  const ReplayReport report = ReplayTrace(trace, options);
  EXPECT_EQ(report.total_cycles, 1);
  EXPECT_EQ(report.replayed_cycles, 0);
  EXPECT_EQ(report.skipped_cycles, 1);
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.cycles[0].replayed);
}

TEST(ReplayTest, CorruptedPlacementCellIsDetected) {
  // Bump one recorded placement count: the replayed decision no longer
  // matches, which must regress the cycle even though the solver's own
  // objective is unchanged (verdict stays within tie tolerance).
  obs::CycleTrace cycle = FullTrace().cycles[BusyCycleIndex(FullTrace())];
  cycle.decision->placement[0].count += 1;

  const ReplayOptions options;
  const CycleReplayDiff diff = ReplayCycle(cycle, options);
  EXPECT_TRUE(diff.replayed);
  EXPECT_FALSE(diff.shape_mismatch);
  EXPECT_GE(diff.placement_cell_diffs, 1);
  EXPECT_GE(diff.total_change_delta(), 1);
  EXPECT_TRUE(diff.Regressed(options));
  EXPECT_FALSE(diff.details.empty());
}

TEST(ReplayTest, RecordedRpDriftIsDetected) {
  obs::CycleTrace cycle = FullTrace().cycles[BusyCycleIndex(FullTrace())];
  cycle.rp_after[0] += 0.5;  // pretend the recorded run did much better

  const ReplayOptions options;
  const CycleReplayDiff diff = ReplayCycle(cycle, options);
  EXPECT_TRUE(diff.replayed);
  EXPECT_GT(diff.rp_drift, options.rp_tolerance);
  EXPECT_TRUE(diff.Regressed(options));
  // 0.5 exceeds any tie tolerance: the replayed decision scores worse than
  // the (doctored) recorded one.
  EXPECT_EQ(diff.verdict, Verdict::kWorse);
}

TEST(ReplayTest, MalformedDecisionShapeIsRegressionNotCrash) {
  obs::CycleTrace cycle = FullTrace().cycles[BusyCycleIndex(FullTrace())];
  cycle.decision->allocations.pop_back();  // length != entity count

  const ReplayOptions options;
  const CycleReplayDiff diff = ReplayCycle(cycle, options);
  EXPECT_TRUE(diff.replayed);
  EXPECT_TRUE(diff.shape_mismatch);
  EXPECT_TRUE(diff.Regressed(options));

  obs::CycleTrace bad_cell = FullTrace().cycles[BusyCycleIndex(FullTrace())];
  bad_cell.decision->placement[0].node = 99;  // out of range
  const CycleReplayDiff cell_diff = ReplayCycle(bad_cell, options);
  EXPECT_TRUE(cell_diff.shape_mismatch);
  EXPECT_TRUE(cell_diff.Regressed(options));
}

TEST(ReplayTest, HostileInputIsRejectedNotCrash) {
  // Each row edits the busiest cycle of a golden trace the way a hand edit
  // or a buggy exporter might, then takes it through the CLI's path: export,
  // parse + ValidateTrace (`replay_apc --validate`), replay (`--trace`).
  // Out-of-range enums must fail the reader. Every other edit passes the
  // schema but breaks a library contract or would compare as agreement, so
  // replay must report a shape mismatch instead of aborting through an
  // MWP_CHECK or calling the cycle "equal".
  std::string error;
  const auto golden = ParseTraceFile(
      std::string(MWP_GOLDEN_TRACE_DIR) + "/exp1_small.jsonl", &error);
  ASSERT_TRUE(golden.has_value()) << error;
  std::size_t busy = 0;
  int most_placed = 0;
  for (std::size_t i = 0; i < golden->cycles.size(); ++i) {
    if (!golden->cycles[i].input.has_value()) continue;
    int placed = 0;
    for (const obs::TraceJobInput& job : golden->cycles[i].input->jobs) {
      if (job.current_node >= 0) ++placed;
    }
    if (placed > most_placed) {
      busy = i;
      most_placed = placed;
    }
  }
  ASSERT_GE(most_placed, 2);
  const auto placed_job = [](obs::CycleInputRecord& in) -> obs::TraceJobInput& {
    return *std::find_if(in.jobs.begin(), in.jobs.end(),
                         [](const obs::TraceJobInput& j) {
                           return j.current_node >= 0;
                         });
  };
  const auto degrade = [](double factor) {
    return [factor](obs::CycleTrace& t) {
      t.input->nodes[0].state = static_cast<int>(NodeState::kDegraded);
      t.input->nodes[0].speed_factor = factor;
    };
  };
  struct Mutant {
    const char* name;
    std::function<void(obs::CycleTrace&)> edit;
    bool reader_rejects = false;
  };
  const std::vector<Mutant> mutants = {
      {"job node -5",
       [&](obs::CycleTrace& t) { placed_job(*t.input).current_node = -5; }},
      {"job memory 1e9",
       [&](obs::CycleTrace& t) { placed_job(*t.input).memory = 1e9; }},
      {"every job on one node",
       [](obs::CycleTrace& t) {
         for (obs::TraceJobInput& job : t.input->jobs) {
           if (job.current_node >= 0) job.current_node = 0;
         }
       }},
      {"stage work -1",
       [&](obs::CycleTrace& t) {
         placed_job(*t.input).stages[0].work = -1.0;
       }},
      {"stage max_speed -5",
       [&](obs::CycleTrace& t) {
         placed_job(*t.input).stages[0].max_speed = -5.0;
       }},
      {"stage min_speed above max_speed",
       [&](obs::CycleTrace& t) {
         obs::TraceStageInput& stage = placed_job(*t.input).stages[0];
         stage.min_speed = stage.max_speed * 2.0;
       }},
      {"degraded node speed_factor 0", degrade(0.0)},
      {"degraded node speed_factor 2", degrade(2.0)},
      {"node speed -100",
       [](obs::CycleTrace& t) { t.input->nodes[0].cpu_speed = -100.0; }},
      {"bisection_iters 0",
       [](obs::CycleTrace& t) { t.input->options.bisection_iters = 0; }},
      {"work_done -1",
       [&](obs::CycleTrace& t) { placed_job(*t.input).work_done = -1.0; }},
      {"work_done past the job's total work",
       [&](obs::CycleTrace& t) { placed_job(*t.input).work_done = 1e12; }},
      {"now NaN",
       [](obs::CycleTrace& t) {
         t.input->now = std::numeric_limits<double>::quiet_NaN();
       }},
      {"app separated from itself",
       [&](obs::CycleTrace& t) {
         const AppId id = placed_job(*t.input).id;
         t.input->separations.emplace_back(id, id);
       }},
      {"job memory -1",
       [&](obs::CycleTrace& t) { placed_job(*t.input).memory = -1.0; }},
      {"job max_speed -1",
       [&](obs::CycleTrace& t) { placed_job(*t.input).max_speed = -1.0; }},
      {"decision lists a cell twice",
       [](obs::CycleTrace& t) {
         t.decision->placement.push_back(t.decision->placement[0]);
       }},
      {"rp_after NaN",
       [](obs::CycleTrace& t) {
         t.rp_after[0] = std::numeric_limits<double>::quiet_NaN();
       }},
      {"node state 9", [](obs::CycleTrace& t) { t.input->nodes[0].state = 9; },
       true},
      {"job status 7",
       [&](obs::CycleTrace& t) { placed_job(*t.input).status = 7; }, true},
  };
  const ReplayOptions options;
  for (const Mutant& mutant : mutants) {
    SCOPED_TRACE(mutant.name);
    std::vector<obs::CycleTrace> cycles = golden->cycles;
    mutant.edit(cycles[busy]);
    std::ostringstream os;
    obs::WriteTraceJsonl(os, golden->context, cycles);
    std::string parse_error;
    const auto parsed = ParseTraceJsonl(os.str(), &parse_error);
    if (mutant.reader_rejects) {
      EXPECT_FALSE(parsed.has_value());
      EXPECT_NE(parse_error.find("is outside 0.."), std::string::npos)
          << parse_error;
      continue;
    }
    ASSERT_TRUE(parsed.has_value()) << parse_error;
    EXPECT_EQ(ValidateTrace(*parsed, 1), "");
    const CycleReplayDiff diff = ReplayCycle(parsed->cycles[busy], options);
    EXPECT_TRUE(diff.shape_mismatch);
    EXPECT_TRUE(diff.Regressed(options));
    EXPECT_FALSE(diff.details.empty());
  }
}

TEST(ReplayTest, ReportNamesRegressedCycles) {
  ParsedTrace tampered;
  tampered.schema_version = obs::kTraceSchemaVersion;
  tampered.context = FullTrace().context;
  tampered.cycles = FullTrace().cycles;
  const std::size_t busy = BusyCycleIndex(tampered);
  tampered.cycles[busy].decision->placement[0].count += 1;

  const ReplayOptions options;
  const ReplayReport report = ReplayTrace(tampered, options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressed_cycles, 1);
  EXPECT_EQ(report.cycles_with_placement_diff, 1);

  std::ostringstream os;
  WriteReport(os, report, options);
  EXPECT_NE(os.str().find("REGRESSED"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("regressed cycle"), std::string::npos) << os.str();
}

TEST(ReplayTest, OverridesNeverRegressOnlyReport) {
  // An overridden re-run (offline tuning: different sweep budget and tie
  // tolerance) may legitimately pick different placements; the diff must be
  // reported but never fail the replay.
  ReplayOptions options;
  options.override_sweeps = 1;
  options.override_tie_tolerance = 0.5;
  ASSERT_TRUE(options.has_overrides());
  const ReplayReport report = ReplayTrace(FullTrace(), options);
  EXPECT_EQ(report.replayed_cycles, report.total_cycles);
  EXPECT_TRUE(report.ok()) << "override diffs must not count as regressions";
  EXPECT_EQ(report.regressed_cycles, 0);

  std::ostringstream os;
  WriteReport(os, report, options);
  EXPECT_NE(os.str().find("overrides"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("sweeps=1"), std::string::npos) << os.str();
}

TEST(ReplayTest, CellSizeOverrideResolvesSharded) {
  // Forcing a sharded re-solve of a monolithic recording: decisions may
  // move (cells solve locally), drift is report-only, and the replay still
  // completes every cycle feasibly.
  ReplayOptions options;
  options.override_cell_size = 2;
  const ReplayReport report = ReplayTrace(FullTrace(), options);
  EXPECT_EQ(report.replayed_cycles, report.total_cycles);
  EXPECT_TRUE(report.ok());

  // Whole-cluster cell: bit-exact with the recorded monolithic decisions,
  // even though the override makes the run report-only.
  ReplayOptions identity;
  identity.override_cell_size = 64;  // >= any recorded cluster: one cell
  const ReplayReport exact = ReplayTrace(FullTrace(), identity);
  EXPECT_TRUE(exact.ok());
  EXPECT_EQ(exact.cycles_with_placement_diff, 0);
  EXPECT_EQ(exact.max_rp_drift, 0.0);
}

TEST(ReplayTest, ShapeMismatchStillRegressesUnderOverrides) {
  // Overrides relax decision diffs, not trace integrity.
  obs::CycleTrace cycle = FullTrace().cycles[BusyCycleIndex(FullTrace())];
  cycle.decision->allocations.pop_back();
  ReplayOptions options;
  options.override_sweeps = 1;
  const CycleReplayDiff diff = ReplayCycle(cycle, options);
  EXPECT_TRUE(diff.shape_mismatch);
  EXPECT_TRUE(diff.Regressed(options));
}

TEST(ReplayTest, ShardedRecordingRoundTripsThroughReader) {
  // A trace recorded with sharding on carries the optional schema fields;
  // the reader must surface them and a plain replay must re-solve sharded
  // (bit-exact in the same build).
  obs::TraceRecorder recorder;
  Experiment1Config config;
  config.num_jobs = 12;
  config.num_nodes = 4;
  config.trace = &recorder;
  config.trace_run_id = "sharded";
  config.trace_full = true;
  config.shard_cell_size = 2;
  const Experiment1Result result = RunExperiment1(config);
  EXPECT_EQ(result.completed, 12u);

  std::ostringstream os;
  obs::WriteTraceJsonl(
      os,
      obs::MakeTraceContext("experiment1", config.seed, config.control_cycle,
                            "sharded"),
      recorder.Traces());
  std::string error;
  const auto parsed = ParseTraceJsonl(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  bool saw_sharded_cycle = false;
  for (const obs::CycleTrace& t : parsed->cycles) {
    if (t.num_cells > 0) saw_sharded_cycle = true;
    if (t.input.has_value()) {
      EXPECT_EQ(t.input->options.cell_size, 2);
    }
  }
  EXPECT_TRUE(saw_sharded_cycle);

  const ReplayOptions options;
  const ReplayReport report = ReplayTrace(*parsed, options);
  EXPECT_EQ(report.replayed_cycles, report.total_cycles);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cycles_with_placement_diff, 0);
  EXPECT_EQ(report.max_rp_drift, 0.0);
}

TEST(GoldenTraceTest, CheckedInTracesReplayWithoutPlacementDrift) {
  // Cross-commit gate: the golden traces were recorded at a known-good
  // commit; any placement difference on replay is a solver behaviour
  // change. FP tolerance is loose (goldens may be replayed by a different
  // compiler) but placement diffs must be exactly zero.
  const std::string dir = MWP_GOLDEN_TRACE_DIR;
  for (const char* name : {"exp1_small.jsonl", "node_failure.jsonl"}) {
    SCOPED_TRACE(name);
    std::string error;
    const auto trace = ParseTraceFile(dir + "/" + name, &error);
    ASSERT_TRUE(trace.has_value()) << error;
    ReplayOptions options;
    options.rp_tolerance = 1e-6;
    const ReplayReport report = ReplayTrace(*trace, options);
    EXPECT_GT(report.replayed_cycles, 0);
    EXPECT_EQ(report.cycles_with_placement_diff, 0);
    std::ostringstream os;
    WriteReport(os, report, options);
    EXPECT_TRUE(report.ok()) << os.str();
  }
}

}  // namespace
}  // namespace mwp::replay
