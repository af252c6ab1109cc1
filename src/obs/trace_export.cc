#include "obs/trace_export.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <ostream>
#include <utility>

#include "common/check.h"
#include "common/log.h"
#include "obs/build_info.h"

namespace mwp::obs {
namespace {

/// JSON has no NaN/Infinity literals; non-finite doubles become null.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  return FormatDouble(value);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  out += '"';
  return out;
}

template <typename T>
std::string JsonArray(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonNumber(static_cast<double>(values[i]));
  }
  out += ']';
  return out;
}

template <typename T>
std::string JoinedCell(const std::vector<T>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ';';
    out += FormatDouble(static_cast<double>(values[i]));
  }
  return out;
}

void WriteHeaderRecord(std::ostream& os, const TraceContext& context,
                       std::size_t num_cycles) {
  os << "{\"record\":\"header\",\"schema_version\":" << kTraceSchemaVersion
     << ",\"run_id\":" << JsonString(context.run_id)
     << ",\"experiment\":" << JsonString(context.experiment)
     << ",\"seed\":" << context.seed
     << ",\"control_cycle\":" << JsonNumber(context.control_cycle)
     << ",\"build_type\":" << JsonString(context.build_type)
     << ",\"git_sha\":" << JsonString(context.git_sha);
  if (!context.scenario.empty()) {
    os << ",\"scenario\":{";
    for (std::size_t i = 0; i < context.scenario.size(); ++i) {
      if (i > 0) os << ',';
      os << JsonString(context.scenario[i].first) << ':'
         << JsonNumber(context.scenario[i].second);
    }
    os << '}';
  }
  os << ",\"num_cycles\":" << num_cycles << "}\n";
}

/// Serializes the full optimizer input of one cycle (schema v2 "input" key).
/// Key order is part of the schema: the byte-stability property test
/// round-trips through src/replay/trace_reader and re-export.
void WriteInputObject(std::ostream& os, const CycleInputRecord& in) {
  os << "{\"now\":" << JsonNumber(in.now)
     << ",\"control_cycle\":" << JsonNumber(in.control_cycle) << ",\"nodes\":[";
  for (std::size_t i = 0; i < in.nodes.size(); ++i) {
    const TraceNodeInput& n = in.nodes[i];
    if (i > 0) os << ',';
    os << "{\"cpus\":" << n.num_cpus << ",\"speed\":" << JsonNumber(n.cpu_speed)
       << ",\"memory\":" << JsonNumber(n.memory) << ",\"state\":" << n.state
       << ",\"speed_factor\":" << JsonNumber(n.speed_factor) << "}";
  }
  os << "],\"jobs\":[";
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    const TraceJobInput& j = in.jobs[i];
    if (i > 0) os << ',';
    os << "{\"id\":" << j.id << ",\"submit_time\":" << JsonNumber(j.submit_time)
       << ",\"desired_start\":" << JsonNumber(j.desired_start)
       << ",\"completion_goal\":" << JsonNumber(j.completion_goal)
       << ",\"work_done\":" << JsonNumber(j.work_done)
       << ",\"status\":" << j.status << ",\"node\":" << j.current_node
       << ",\"overhead_until\":" << JsonNumber(j.overhead_until)
       << ",\"place_overhead\":" << JsonNumber(j.place_overhead)
       << ",\"migrate_overhead\":" << JsonNumber(j.migrate_overhead)
       << ",\"memory\":" << JsonNumber(j.memory)
       << ",\"max_speed\":" << JsonNumber(j.max_speed)
       << ",\"min_speed\":" << JsonNumber(j.min_speed) << ",\"stages\":[";
    for (std::size_t s = 0; s < j.stages.size(); ++s) {
      const TraceStageInput& st = j.stages[s];
      if (s > 0) os << ',';
      os << "{\"work\":" << JsonNumber(st.work)
         << ",\"max_speed\":" << JsonNumber(st.max_speed)
         << ",\"min_speed\":" << JsonNumber(st.min_speed)
         << ",\"memory\":" << JsonNumber(st.memory) << "}";
    }
    os << "]}";
  }
  os << "],\"tx\":[";
  for (std::size_t i = 0; i < in.tx_apps.size(); ++i) {
    const TraceTxInput& t = in.tx_apps[i];
    if (i > 0) os << ',';
    os << "{\"id\":" << t.id << ",\"name\":" << JsonString(t.name)
       << ",\"memory\":" << JsonNumber(t.memory)
       << ",\"response_time_goal\":" << JsonNumber(t.response_time_goal)
       << ",\"demand_per_request\":" << JsonNumber(t.demand_per_request)
       << ",\"min_response_time\":" << JsonNumber(t.min_response_time)
       << ",\"saturation\":" << JsonNumber(t.saturation)
       << ",\"max_instances\":" << t.max_instances
       << ",\"arrival_rate\":" << JsonNumber(t.arrival_rate)
       << ",\"nodes\":" << JsonArray(t.current_nodes) << "}";
  }
  const TraceSolverOptions& o = in.options;
  // The search's loop bounds, the default sampling grid ([]) and the
  // distributor's tolerances are fixed in core (PlacementOptimizer::k*,
  // LoadDistributor::k*). mwp_obs does not link core, so they are written
  // as literals; the trace reader rejects any value but core's, so a drift
  // here fails every record-then-replay test.
  os << "],\"options\":{\"max_sweeps\":" << o.max_sweeps
     << ",\"max_changes_per_node\":8,\"max_wishes_tried\":8"
        ",\"max_migrations_tried\":3,\"max_evaluations\":0"
     << ",\"tie_tolerance\":" << JsonNumber(o.tie_tolerance)
     << ",\"grid\":[],\"level_tolerance\":1e-04,\"probe_delta\":0.001"
        ",\"bisection_iters\":48"
     << ",\"batch_aggregate\":" << (o.batch_aggregate ? "true" : "false");
  if (o.cell_size > 0) {
    // Sharded-run options; omitted for monolithic runs so pre-sharding
    // traces re-export byte-identically.
    os << ",\"cell_size\":" << o.cell_size
       << ",\"partition_seed\":" << o.partition_seed
       << ",\"max_cross_cell_moves\":" << o.max_cross_cell_moves;
  }
  if (o.objective != 0) {
    // Non-default fairness objective; omitted for max-min runs so
    // pre-objective traces re-export byte-identically.
    os << ",\"objective\":" << o.objective
       << ",\"karma_weight\":" << JsonNumber(o.karma_weight)
       << ",\"karma_cap\":" << JsonNumber(o.karma_cap)
       << ",\"karma_earn_rate\":" << JsonNumber(o.karma_earn_rate)
       << ",\"pf_epsilon\":" << JsonNumber(o.pf_epsilon);
  }
  os << "},\"pins\":[";
  for (std::size_t i = 0; i < in.pins.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"app\":" << in.pins[i].app
       << ",\"nodes\":" << JsonArray(in.pins[i].nodes) << "}";
  }
  os << "],\"separations\":[";
  for (std::size_t i = 0; i < in.separations.size(); ++i) {
    if (i > 0) os << ',';
    os << '[' << in.separations[i].first << ',' << in.separations[i].second
       << ']';
  }
  os << ']';
  if (!in.fairness_credits.empty()) {
    // Karma snapshot credits; omitted when empty so pre-objective traces
    // re-export byte-identically.
    os << ",\"credits\":" << JsonArray(in.fairness_credits);
  }
  os << '}';
}

/// Serializes the committed decision (schema v2 "decision" key): non-zero
/// placement cells in row-major order plus per-entity allocation totals.
void WriteDecisionObject(std::ostream& os, const CycleDecisionRecord& d) {
  os << "{\"placement\":[";
  for (std::size_t i = 0; i < d.placement.size(); ++i) {
    const TracePlacementCell& c = d.placement[i];
    if (i > 0) os << ',';
    os << '[' << c.entity << ',' << c.node << ',' << c.count << ']';
  }
  os << "],\"allocations\":" << JsonArray(d.allocations) << "}";
}

void WriteCycleRecord(std::ostream& os, const CycleTrace& t) {
  os << "{\"record\":\"cycle\""
     << ",\"run_id\":" << JsonString(t.run_id)
     << ",\"cycle\":" << t.cycle
     << ",\"time\":" << JsonNumber(t.time)
     << ",\"avg_job_rp\":" << JsonNumber(t.avg_job_rp)
     << ",\"min_job_rp\":" << JsonNumber(t.min_job_rp)
     << ",\"num_jobs\":" << t.num_jobs
     << ",\"running_jobs\":" << t.running_jobs
     << ",\"queued_jobs\":" << t.queued_jobs
     << ",\"suspended_jobs\":" << t.suspended_jobs
     << ",\"batch_allocation\":" << JsonNumber(t.batch_allocation)
     << ",\"tx_allocation\":" << JsonNumber(t.tx_allocation)
     << ",\"cluster_utilization\":" << JsonNumber(t.cluster_utilization)
     << ",\"starts\":" << t.starts
     << ",\"stops\":" << t.stops
     << ",\"suspends\":" << t.suspends
     << ",\"resumes\":" << t.resumes
     << ",\"migrations\":" << t.migrations
     << ",\"failed_operations\":" << t.failed_operations
     << ",\"evaluations\":" << t.evaluations
     << ",\"shortcut\":" << (t.shortcut ? "true" : "false")
     << ",\"solver_seconds\":" << JsonNumber(t.solver_seconds)
     << ",\"cache_hits\":" << t.cache_hits
     << ",\"cache_misses\":" << t.cache_misses
     << ",\"distribute_calls\":" << t.distribute_calls
     << ",\"nodes_online\":" << t.node_health.online
     << ",\"nodes_degraded\":" << t.node_health.degraded
     << ",\"nodes_offline\":" << t.node_health.offline
     << ",\"available_cpu\":" << JsonNumber(t.node_health.available_cpu)
     << ",\"nominal_cpu\":" << JsonNumber(t.node_health.nominal_cpu)
     << ",\"rp_before\":" << JsonArray(t.rp_before)
     << ",\"rp_after\":" << JsonArray(t.rp_after)
     << ",\"tx_utilities\":" << JsonArray(t.tx_utilities)
     << ",\"tx_allocations\":" << JsonArray(t.tx_allocations);
  if (t.num_cells > 0) {
    // Sharded-cycle fields; omitted for monolithic cycles so pre-sharding
    // traces re-export byte-identically.
    os << ",\"num_cells\":" << t.num_cells
       << ",\"cross_cell_migrations\":" << t.cross_cell_migrations
       << ",\"cell_solver_seconds\":" << JsonArray(t.cell_solver_seconds);
  }
  if (!t.trigger.empty()) {
    // Event-driven cycle tag; omitted for periodic cycles so pre-service
    // traces re-export byte-identically.
    os << ",\"trigger\":" << JsonString(t.trigger);
  }
  MWP_CHECK(t.input.has_value() == t.decision.has_value());
  if (t.input.has_value()) {
    os << ",\"input\":";
    WriteInputObject(os, *t.input);
    os << ",\"decision\":";
    WriteDecisionObject(os, *t.decision);
  }
  os << "}\n";
}

constexpr const char* kCsvColumns =
    "run_id,cycle,time,avg_job_rp,min_job_rp,num_jobs,running_jobs,queued_jobs,"
    "suspended_jobs,batch_allocation,tx_allocation,cluster_utilization,"
    "starts,stops,suspends,resumes,migrations,failed_operations,evaluations,"
    "shortcut,solver_seconds,cache_hits,cache_misses,distribute_calls,"
    "nodes_online,nodes_degraded,nodes_offline,available_cpu,nominal_cpu,"
    "rp_before,rp_after,tx_utilities,tx_allocations";

}  // namespace

std::string FormatDouble(double value) {
  if (std::isnan(value)) return "nan";
  if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  MWP_CHECK(ec == std::errc());
  return std::string(buf, ptr);
}

TraceContext MakeTraceContext(std::string experiment, std::uint64_t seed,
                              Seconds control_cycle, std::string run_id) {
  TraceContext context;
  context.experiment = std::move(experiment);
  context.seed = seed;
  context.control_cycle = control_cycle;
  context.build_type = BuildInfo::BuildType();
  context.git_sha = BuildInfo::GitSha();
  context.run_id = std::move(run_id);
  return context;
}

void WriteTraceJsonl(std::ostream& os, const TraceContext& context,
                     std::span<const CycleTrace> traces) {
  WriteHeaderRecord(os, context, traces.size());
  for (const CycleTrace& t : traces) WriteCycleRecord(os, t);
}

void WriteTraceCsv(std::ostream& os, const TraceContext& context,
                   std::span<const CycleTrace> traces) {
  os << "# mwp-cycle-trace schema_version=" << kTraceSchemaVersion
     << " run_id=" << context.run_id
     << " experiment=" << context.experiment << " seed=" << context.seed
     << " control_cycle=" << FormatDouble(context.control_cycle)
     << " build_type=" << context.build_type
     << " git_sha=" << context.git_sha << "\n"
     << kCsvColumns << "\n";
  for (const CycleTrace& t : traces) {
    os << t.run_id << ',' << t.cycle << ',' << FormatDouble(t.time) << ','
       << FormatDouble(t.avg_job_rp) << ',' << FormatDouble(t.min_job_rp)
       << ',' << t.num_jobs << ',' << t.running_jobs << ',' << t.queued_jobs
       << ',' << t.suspended_jobs << ',' << FormatDouble(t.batch_allocation)
       << ',' << FormatDouble(t.tx_allocation) << ','
       << FormatDouble(t.cluster_utilization) << ',' << t.starts << ','
       << t.stops << ',' << t.suspends << ',' << t.resumes << ','
       << t.migrations << ',' << t.failed_operations << ',' << t.evaluations
       << ',' << (t.shortcut ? 1 : 0) << ',' << FormatDouble(t.solver_seconds)
       << ',' << t.cache_hits << ',' << t.cache_misses << ','
       << t.distribute_calls << ',' << t.node_health.online << ','
       << t.node_health.degraded << ',' << t.node_health.offline << ','
       << FormatDouble(t.node_health.available_cpu) << ','
       << FormatDouble(t.node_health.nominal_cpu) << ','
       << JoinedCell(t.rp_before) << ',' << JoinedCell(t.rp_after) << ','
       << JoinedCell(t.tx_utilities) << ',' << JoinedCell(t.tx_allocations)
       << "\n";
  }
}

bool ExportTrace(const std::string& path, const TraceContext& context,
                 std::span<const CycleTrace> traces) {
  std::ofstream out(path);
  if (!out) {
    MWP_LOG_ERROR << "cannot open trace output file '" << path << "'";
    return false;
  }
  const bool csv = path.size() >= 4 && path.substr(path.size() - 4) == ".csv";
  if (csv) {
    WriteTraceCsv(out, context, traces);
  } else {
    WriteTraceJsonl(out, context, traces);
  }
  out.flush();
  if (!out) {
    MWP_LOG_ERROR << "error while writing trace output file '" << path << "'";
    return false;
  }
  return true;
}

void WriteMetricsJsonl(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const auto& c : snapshot.counters) {
    os << "{\"record\":\"counter\",\"name\":" << JsonString(c.name)
       << ",\"value\":" << c.value << "}\n";
  }
  for (const auto& g : snapshot.gauges) {
    os << "{\"record\":\"gauge\",\"name\":" << JsonString(g.name)
       << ",\"value\":" << JsonNumber(g.value) << "}\n";
  }
  for (const auto& h : snapshot.histograms) {
    os << "{\"record\":\"histogram\",\"name\":" << JsonString(h.name)
       << ",\"count\":" << h.count << ",\"sum\":" << JsonNumber(h.sum)
       << ",\"p50\":" << JsonNumber(HistogramQuantile(h, 0.50))
       << ",\"p95\":" << JsonNumber(HistogramQuantile(h, 0.95))
       << ",\"p99\":" << JsonNumber(HistogramQuantile(h, 0.99))
       << ",\"bounds\":" << JsonArray(h.bounds)
       << ",\"buckets\":" << JsonArray(h.buckets) << "}\n";
  }
}

}  // namespace mwp::obs
