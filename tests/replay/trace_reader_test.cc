#include "replay/trace_reader.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

namespace mwp::replay {
namespace {

// The schema-v1 wire format, frozen when kTraceSchemaVersion was bumped to 2:
// archived traces must keep parsing (with empty run ids and no input).
constexpr const char* kV1Trace =
    R"({"record":"header","schema_version":1,"experiment":"golden","seed":7,"control_cycle":600,"build_type":"Release","git_sha":"deadbeef","num_cycles":2}
{"record":"cycle","cycle":0,"time":0,"avg_job_rp":0.75,"min_job_rp":0.5,"num_jobs":2,"running_jobs":2,"queued_jobs":0,"suspended_jobs":0,"batch_allocation":1024,"tx_allocation":512,"cluster_utilization":0.75,"starts":2,"stops":0,"suspends":0,"resumes":0,"migrations":0,"failed_operations":0,"evaluations":3,"shortcut":false,"solver_seconds":0.25,"cache_hits":4,"cache_misses":2,"distribute_calls":6,"nodes_online":2,"nodes_degraded":1,"nodes_offline":0,"available_cpu":3000,"nominal_cpu":3200,"rp_before":[0.5,0.75],"rp_after":[0.5,0.75,0.75],"tx_utilities":[0.5],"tx_allocations":[512]}
{"record":"cycle","cycle":1,"time":600,"avg_job_rp":null,"min_job_rp":null,"num_jobs":0,"running_jobs":0,"queued_jobs":0,"suspended_jobs":0,"batch_allocation":0,"tx_allocation":0,"cluster_utilization":0,"starts":0,"stops":0,"suspends":0,"resumes":0,"migrations":0,"failed_operations":0,"evaluations":0,"shortcut":true,"solver_seconds":0,"cache_hits":0,"cache_misses":0,"distribute_calls":0,"nodes_online":3,"nodes_degraded":0,"nodes_offline":0,"available_cpu":3200,"nominal_cpu":3200,"rp_before":[],"rp_after":[],"tx_utilities":[],"tx_allocations":[]}
)";

TEST(TraceReaderTest, ParsesArchivedV1Trace) {
  std::string error;
  const auto trace = ParseTraceJsonl(kV1Trace, &error);
  ASSERT_TRUE(trace.has_value()) << error;
  EXPECT_EQ(trace->schema_version, 1);
  EXPECT_EQ(trace->context.experiment, "golden");
  EXPECT_EQ(trace->context.seed, 7u);
  EXPECT_TRUE(trace->context.run_id.empty());
  ASSERT_EQ(trace->cycles.size(), 2u);

  const obs::CycleTrace& a = trace->cycles[0];
  EXPECT_TRUE(a.run_id.empty());
  EXPECT_EQ(a.cycle, 0);
  EXPECT_EQ(a.num_jobs, 2);
  EXPECT_DOUBLE_EQ(a.avg_job_rp, 0.75);
  EXPECT_EQ(a.rp_before, (std::vector<Utility>{0.5, 0.75}));
  EXPECT_EQ(a.node_health.degraded, 1);
  EXPECT_FALSE(a.input.has_value());
  EXPECT_FALSE(a.decision.has_value());

  const obs::CycleTrace& b = trace->cycles[1];
  EXPECT_TRUE(std::isnan(b.avg_job_rp));
  EXPECT_TRUE(b.shortcut);
  EXPECT_TRUE(b.rp_after.empty());

  EXPECT_EQ(ValidateTrace(*trace, 2), "");
}

TEST(TraceReaderTest, V1CyclesCarryNoV2Keys) {
  // run_id, trigger, the sharded stats and input/decision arrived with v2.
  for (const char* key : {R"("run_id":"r",)", R"("trigger":"event",)",
                          R"("num_cells":0,)", R"("input":{},)"}) {
    std::string text = kV1Trace;
    const std::size_t at = text.find(R"("time":600)");
    text.insert(at, key);
    std::string error;
    EXPECT_FALSE(ParseTraceJsonl(text, &error).has_value()) << key;
    EXPECT_EQ(error.rfind("line 3: unknown key", 0), 0u) << error;
  }
}

TEST(TraceReaderTest, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ParseTraceJsonl("", &error).has_value());
  EXPECT_FALSE(ParseTraceJsonl("garbage\n", &error).has_value());

  // Unsupported schema version.
  EXPECT_FALSE(
      ParseTraceJsonl(
          R"({"record":"header","schema_version":3,"run_id":"","experiment":"x","seed":1,"control_cycle":1,"build_type":"b","git_sha":"g","num_cycles":0})"
          "\n",
          &error)
          .has_value());
  EXPECT_NE(error.find("schema"), std::string::npos) << error;

  // Header promises more cycles than the file contains (truncated export).
  EXPECT_FALSE(
      ParseTraceJsonl(
          R"({"record":"header","schema_version":2,"run_id":"","experiment":"x","seed":1,"control_cycle":1,"build_type":"b","git_sha":"g","num_cycles":2})"
          "\n",
          &error)
          .has_value());
}

TEST(TraceReaderTest, ReportsLineNumbersInErrors) {
  std::string error;
  const std::string text =
      R"({"record":"header","schema_version":2,"run_id":"","experiment":"x","seed":1,"control_cycle":1,"build_type":"b","git_sha":"g","num_cycles":1})"
      "\nnot json\n";
  EXPECT_FALSE(ParseTraceJsonl(text, &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// --- strict integers in arrays ---------------------------------------------

/// A one-cycle v2 trace whose input and decision hold one of each integer
/// array: tx nodes [3], pin nodes [4], separations [[8,9]] and placement
/// [[0,6,2]].
std::string TraceWithIntegerArrays() {
  obs::CycleInputRecord in;
  in.control_cycle = 600.0;
  in.nodes.push_back({/*num_cpus=*/4, /*cpu_speed=*/3000.0,
                      /*memory=*/8192.0, /*state=*/0, /*speed_factor=*/1.0});
  obs::TraceTxInput tx;
  tx.id = 7;
  tx.name = "web";
  tx.current_nodes = {3};
  in.tx_apps.push_back(tx);
  in.pins.push_back({/*app=*/5, /*nodes=*/{4}});
  in.separations.emplace_back(8, 9);
  obs::CycleTrace t;
  t.run_id = "r";
  t.rp_after = {0.5};
  t.tx_utilities = {0.5};
  t.tx_allocations = {100.0};
  t.input = in;
  t.decision = obs::CycleDecisionRecord{{{0, 6, 2}}, {100.0}};
  std::ostringstream os;
  obs::WriteTraceJsonl(os, obs::TraceContext{}, std::vector<obs::CycleTrace>{t});
  return os.str();
}

/// The reader's error for TraceWithIntegerArrays() with `from` replaced by
/// `to`.
std::string ErrorAfterEdit(std::string_view from, std::string_view to) {
  std::string text = TraceWithIntegerArrays();
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
  std::string error;
  EXPECT_FALSE(ParseTraceJsonl(text, &error).has_value());
  return error;
}

TEST(TraceReaderTest, IntegerArraysRoundTrip) {
  std::string error;
  const auto trace = ParseTraceJsonl(TraceWithIntegerArrays(), &error);
  ASSERT_TRUE(trace.has_value()) << error;
  const obs::CycleInputRecord& in = *trace->cycles[0].input;
  EXPECT_EQ(in.tx_apps[0].current_nodes, std::vector<NodeId>{3});
  EXPECT_EQ(in.pins[0].nodes, std::vector<NodeId>{4});
  EXPECT_EQ(in.separations[0], (std::pair<AppId, AppId>{8, 9}));
  EXPECT_EQ(trace->cycles[0].decision->placement[0],
            (obs::TracePlacementCell{0, 6, 2}));
  EXPECT_EQ(ValidateTrace(*trace, 1), "");
}

TEST(TraceReaderTest, RejectsFractionalPlacementCount) {
  EXPECT_EQ(ErrorAfterEdit("[[0,6,2]]", "[[0,6,1.5]]"),
            "line 2: key 'placement' is not an in-range integer");
}

TEST(TraceReaderTest, RejectsOutOfRangePlacementNode) {
  EXPECT_EQ(ErrorAfterEdit("[[0,6,2]]", "[[0,1e300,2]]"),
            "line 2: key 'placement' is not an in-range integer");
}

TEST(TraceReaderTest, RejectsFractionalTxNode) {
  EXPECT_EQ(ErrorAfterEdit(R"("nodes":[3])", R"("nodes":[3.5])"),
            "line 2: key 'nodes' is not an in-range integer");
}

TEST(TraceReaderTest, RejectsOutOfRangePinNode) {
  EXPECT_EQ(ErrorAfterEdit(R"("nodes":[4])", R"("nodes":[2147483648])"),
            "line 2: key 'nodes' is not an in-range integer");
}

TEST(TraceReaderTest, RejectsFractionalSeparation) {
  EXPECT_EQ(ErrorAfterEdit("[[8,9]]", "[[8,9.5]]"),
            "line 2: key 'separations' is not an in-range integer");
}

// --- serialize → parse → serialize byte-stability property --------------

std::vector<Utility> RandomVector(Rng& rng, int max_len) {
  std::vector<Utility> v(static_cast<std::size_t>(rng.UniformInt(0, max_len)));
  for (Utility& u : v) u = rng.Uniform(-2.0, 2.0);
  return v;
}

obs::CycleInputRecord RandomInput(Rng& rng) {
  obs::CycleInputRecord in;
  in.now = rng.Uniform(0.0, 1e6);
  in.control_cycle = rng.Uniform(1.0, 1000.0);
  const int num_nodes = static_cast<int>(rng.UniformInt(1, 3));
  for (int n = 0; n < num_nodes; ++n) {
    obs::TraceNodeInput node;
    node.num_cpus = static_cast<int>(rng.UniformInt(1, 4));
    node.cpu_speed = rng.Uniform(500.0, 4000.0);
    node.memory = rng.Uniform(1024.0, 16384.0);
    node.state = static_cast<int>(rng.UniformInt(0, 2));
    node.speed_factor = rng.Uniform(0.1, 1.0);
    in.nodes.push_back(node);
  }
  const int num_jobs = static_cast<int>(rng.UniformInt(0, 2));
  for (int j = 0; j < num_jobs; ++j) {
    obs::TraceJobInput job;
    job.id = static_cast<AppId>(rng.UniformInt(1, 100));
    job.submit_time = rng.Uniform(0.0, 1e5);
    job.desired_start = rng.Uniform(0.0, 1e5);
    job.completion_goal = rng.Uniform(0.0, 1e6);
    job.work_done = rng.Uniform(0.0, 1e6);
    job.status = static_cast<int>(rng.UniformInt(0, 4));
    job.current_node =
        static_cast<NodeId>(rng.UniformInt(-1, num_nodes - 1));
    job.overhead_until = rng.Uniform(0.0, 100.0);
    job.place_overhead = rng.Uniform(0.0, 100.0);
    job.migrate_overhead = rng.Uniform(0.0, 100.0);
    job.memory = rng.Uniform(128.0, 8192.0);
    job.max_speed = rng.Uniform(100.0, 4000.0);
    job.min_speed = rng.Uniform(0.0, 100.0);
    const int num_stages = static_cast<int>(rng.UniformInt(1, 2));
    for (int s = 0; s < num_stages; ++s) {
      job.stages.push_back({rng.Uniform(1.0, 1e6), rng.Uniform(100.0, 4000.0),
                            rng.Uniform(0.0, 100.0),
                            rng.Uniform(128.0, 8192.0)});
    }
    in.jobs.push_back(std::move(job));
  }
  if (rng.Uniform01() < 0.5) {
    obs::TraceTxInput tx;
    tx.id = static_cast<AppId>(rng.UniformInt(101, 200));
    tx.name = "tx" + std::to_string(rng.UniformInt(0, 9));
    tx.memory = rng.Uniform(128.0, 4096.0);
    tx.response_time_goal = rng.Uniform(0.01, 2.0);
    tx.demand_per_request = rng.Uniform(0.1, 20.0);
    tx.min_response_time = rng.Uniform(0.001, 0.01);
    tx.saturation = rng.Uniform(0.1, 1.0);
    tx.max_instances = static_cast<int>(rng.UniformInt(1, 5));
    tx.arrival_rate = rng.Uniform(0.0, 2000.0);
    for (int n = 0; n < num_nodes; ++n) {
      if (rng.Uniform01() < 0.5) tx.current_nodes.push_back(n);
    }
    in.tx_apps.push_back(std::move(tx));
  }
  in.options.max_sweeps = static_cast<int>(rng.UniformInt(1, 4));
  in.options.tie_tolerance = rng.Uniform(0.0, 0.1);
  in.options.batch_aggregate = rng.Uniform01() < 0.5;
  if (rng.Uniform01() < 0.5) {
    obs::TracePin pin;
    pin.app = static_cast<AppId>(rng.UniformInt(1, 100));
    pin.nodes.push_back(static_cast<NodeId>(rng.UniformInt(0, num_nodes - 1)));
    in.pins.push_back(std::move(pin));
  }
  if (rng.Uniform01() < 0.5) {
    in.separations.push_back({static_cast<AppId>(rng.UniformInt(1, 100)),
                              static_cast<AppId>(rng.UniformInt(101, 200))});
  }
  return in;
}

obs::CycleDecisionRecord RandomDecision(Rng& rng) {
  obs::CycleDecisionRecord d;
  const int cells = static_cast<int>(rng.UniformInt(0, 3));
  for (int c = 0; c < cells; ++c) {
    d.placement.push_back({static_cast<int>(rng.UniformInt(0, 5)),
                           static_cast<int>(rng.UniformInt(0, 3)),
                           static_cast<int>(rng.UniformInt(1, 2))});
  }
  const int allocs = static_cast<int>(rng.UniformInt(0, 4));
  for (int a = 0; a < allocs; ++a) {
    d.allocations.push_back(rng.Uniform(0.0, 10000.0));
  }
  return d;
}

obs::CycleTrace RandomCycle(Rng& rng, int cycle) {
  obs::CycleTrace t;
  if (rng.Uniform01() < 0.7) {
    t.run_id = "run" + std::to_string(rng.UniformInt(0, 9));
  }
  t.cycle = cycle;
  t.time = rng.Uniform(0.0, 1e6);
  t.avg_job_rp = rng.Uniform01() < 0.2
                     ? std::numeric_limits<double>::quiet_NaN()
                     : rng.Uniform(0.0, 1.0);
  t.min_job_rp = rng.Uniform(0.0, 1.0);
  t.num_jobs = static_cast<int>(rng.UniformInt(0, 50));
  t.running_jobs = static_cast<int>(rng.UniformInt(0, 50));
  t.queued_jobs = static_cast<int>(rng.UniformInt(0, 50));
  t.suspended_jobs = static_cast<int>(rng.UniformInt(0, 50));
  t.batch_allocation = rng.Uniform(0.0, 1e5);
  t.tx_allocation = rng.Uniform(0.0, 1e5);
  t.cluster_utilization = rng.Uniform01();
  t.starts = static_cast<int>(rng.UniformInt(0, 10));
  t.stops = static_cast<int>(rng.UniformInt(0, 10));
  t.suspends = static_cast<int>(rng.UniformInt(0, 10));
  t.resumes = static_cast<int>(rng.UniformInt(0, 10));
  t.migrations = static_cast<int>(rng.UniformInt(0, 10));
  t.failed_operations = static_cast<int>(rng.UniformInt(0, 3));
  t.evaluations = static_cast<int>(rng.UniformInt(0, 1000));
  t.shortcut = rng.Uniform01() < 0.3;
  t.solver_seconds = rng.Uniform(0.0, 10.0);
  t.cache_hits = static_cast<std::uint64_t>(rng.UniformInt(0, 1000));
  t.cache_misses = static_cast<std::uint64_t>(rng.UniformInt(0, 1000));
  t.distribute_calls = static_cast<std::uint64_t>(rng.UniformInt(0, 1000));
  t.node_health = {static_cast<int>(rng.UniformInt(0, 10)),
                   static_cast<int>(rng.UniformInt(0, 10)),
                   static_cast<int>(rng.UniformInt(0, 10)),
                   rng.Uniform(0.0, 1e5), rng.Uniform(0.0, 1e5)};
  t.rp_before = RandomVector(rng, 4);
  t.rp_after = RandomVector(rng, 4);
  t.tx_utilities = RandomVector(rng, 2);
  t.tx_allocations.resize(t.tx_utilities.size());
  for (MHz& alloc : t.tx_allocations) alloc = rng.Uniform(0.0, 1e4);
  if (rng.Uniform01() < 0.6) {
    t.input = RandomInput(rng);
    t.decision = RandomDecision(rng);
  }
  return t;
}

TEST(TraceReaderTest, SerializeParseSerializeIsByteStable) {
  // The exporter writes shortest-round-trip doubles and the reader parses
  // them back with from_chars; re-serializing a parsed trace must reproduce
  // the input byte for byte, for arbitrary (not hand-friendly) values.
  Rng rng(20260806);
  for (int iteration = 0; iteration < 50; ++iteration) {
    obs::TraceContext context;
    context.experiment = "prop" + std::to_string(iteration);
    context.seed = static_cast<std::uint64_t>(rng.UniformInt(0, 1 << 30));
    context.control_cycle = rng.Uniform(1.0, 1000.0);
    context.build_type = "Release";
    context.git_sha = "cafef00d";
    if (rng.Uniform01() < 0.5) {
      context.run_id = "sweep" + std::to_string(rng.UniformInt(0, 99));
    }
    std::vector<obs::CycleTrace> cycles;
    const int num_cycles = static_cast<int>(rng.UniformInt(0, 3));
    for (int c = 0; c < num_cycles; ++c) cycles.push_back(RandomCycle(rng, c));

    std::ostringstream first;
    obs::WriteTraceJsonl(first, context, cycles);

    std::string error;
    const auto parsed = ParseTraceJsonl(first.str(), &error);
    ASSERT_TRUE(parsed.has_value()) << "iteration " << iteration << ": "
                                    << error << "\n" << first.str();
    EXPECT_EQ(parsed->schema_version, obs::kTraceSchemaVersion);
    ASSERT_EQ(parsed->cycles.size(), cycles.size());

    std::ostringstream second;
    obs::WriteTraceJsonl(second, parsed->context, parsed->cycles);
    EXPECT_EQ(first.str(), second.str()) << "iteration " << iteration;
  }
}

TEST(TraceReaderTest, ParsedStructsCompareEqualToOriginals) {
  // Beyond byte stability, the parsed structs must equal the originals via
  // operator== whenever no NaN is involved (NaN breaks == by design).
  Rng rng(7);
  obs::TraceContext context;
  context.experiment = "eq";
  context.seed = 1;
  context.control_cycle = 600.0;
  context.build_type = "Release";
  context.git_sha = "cafef00d";
  context.run_id = "r";
  obs::CycleTrace cycle = RandomCycle(rng, 0);
  cycle.avg_job_rp = 0.5;  // keep NaN out so operator== is meaningful
  cycle.input = RandomInput(rng);
  cycle.decision = RandomDecision(rng);

  std::ostringstream os;
  obs::WriteTraceJsonl(os, context, std::vector<obs::CycleTrace>{cycle});
  std::string error;
  const auto parsed = ParseTraceJsonl(os.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->cycles.size(), 1u);
  EXPECT_EQ(parsed->cycles[0].input, cycle.input);
  EXPECT_EQ(parsed->cycles[0].decision, cycle.decision);
  EXPECT_EQ(parsed->cycles[0].run_id, cycle.run_id);
}

}  // namespace
}  // namespace mwp::replay
