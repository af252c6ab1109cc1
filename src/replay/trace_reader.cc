#include "replay/trace_reader.h"

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <type_traits>
#include <utility>

#include "batch/job.h"
#include "cluster/cluster.h"
#include "core/load_distributor.h"
#include "core/placement_optimizer.h"

namespace mwp::replay {
namespace {

/// One parsed JSON value. Number tokens are kept raw and converted lazily
/// with std::from_chars, so the exporter's shortest round-trip decimals map
/// back to the exact recorded doubles.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool bool_value = false;
  std::string number;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> members;
  /// Set when the reader consumes this value as an object member. Every key
  /// the schema defines is read through Get, which takes the first of
  /// repeated keys, so a member still unread after its record is mapped is
  /// an unknown or a duplicate key.
  mutable bool read = false;

  const JsonValue* Find(std::string_view key) const {
    for (const auto& [k, v] : members) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Recursive-descent parser over the exporter's JSON subset.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Parse(JsonValue& out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    if (pos_ != text_.size()) return Fail("trailing characters after value");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  static constexpr int kMaxDepth = 32;

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return Fail(std::string("expected '") + c + "'");
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return Fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return ParseString(out.string_value);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.bool_value = true;
        return ConsumeLiteral("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.bool_value = false;
        return ConsumeLiteral("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return ConsumeLiteral("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      JsonValue value;
      if (!ParseValue(value, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Consume('}');
    }
  }

  bool ParseArray(JsonValue& out, int depth) {
    out.kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(value, depth + 1)) return false;
      out.array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return Consume(']');
    }
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        default:
          return Fail("unsupported string escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue& out) {
    out.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return Fail("invalid value");
    out.number.assign(text_.substr(start, pos_ - start));
    double probe = 0.0;
    const char* begin = out.number.data();
    const char* end = begin + out.number.size();
    const auto [ptr, ec] = std::from_chars(begin, end, probe);
    if (ec != std::errc() || ptr != end) return Fail("malformed number");
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// First-error accumulator for the semantic (JSON -> CycleTrace) mapping.
struct Ctx {
  bool ok = true;
  std::string error;

  void Fail(std::string message) {
    if (ok) {
      ok = false;
      error = std::move(message);
    }
  }
};

/// Consumes `obj[key]`; a missing key is an error.
const JsonValue* Get(Ctx& ctx, const JsonValue& obj, const char* key) {
  if (!ctx.ok) return nullptr;
  if (obj.kind != JsonValue::Kind::kObject) {
    ctx.Fail("expected an object");
    return nullptr;
  }
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) {
    ctx.Fail(std::string("missing key '") + key + "'");
    return nullptr;
  }
  value->read = true;
  return value;
}

/// Whether an optional key is present, without consuming it. Optional keys
/// come in all-or-nothing groups led by one key: when the leader is present
/// the whole group is read through Get (so a missing member is an error);
/// when it is absent none is read (so a stray member is an unknown key).
bool Has(const JsonValue& obj, const char* key) {
  return obj.kind == JsonValue::Kind::kObject && obj.Find(key) != nullptr;
}

/// A number (JSON null reads as NaN, the exporter's spelling of it).
double AsDouble(Ctx& ctx, const JsonValue* value, const char* key) {
  if (value == nullptr) return 0.0;
  if (value->kind == JsonValue::Kind::kNull) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (value->kind != JsonValue::Kind::kNumber) {
    ctx.Fail(std::string("key '") + key + "' holds a non-number");
    return 0.0;
  }
  double out = 0.0;
  const char* begin = value->number.data();
  std::from_chars(begin, begin + value->number.size(), out);
  return out;
}

/// An integer that fits `Int`: "1.5", "1e2" and out-of-range values are
/// errors, never truncated.
template <typename Int>
Int AsInt(Ctx& ctx, const JsonValue* value, const char* key) {
  if (value == nullptr) return Int{0};
  if (value->kind == JsonValue::Kind::kNumber) {
    Int out{0};
    const char* begin = value->number.data();
    const char* end = begin + value->number.size();
    const auto [ptr, ec] = std::from_chars(begin, end, out);
    if (ec == std::errc() && ptr == end) return out;
  }
  ctx.Fail(std::string("key '") + key + "' is not an in-range integer");
  return Int{0};
}

double GetDouble(Ctx& ctx, const JsonValue& obj, const char* key) {
  return AsDouble(ctx, Get(ctx, obj, key), key);
}

template <typename Int>
Int GetInt(Ctx& ctx, const JsonValue& obj, const char* key) {
  return AsInt<Int>(ctx, Get(ctx, obj, key), key);
}

/// An enum stored as its integer value: anything outside [0, last] names no
/// enumerator and is an error.
int GetEnum(Ctx& ctx, const JsonValue& obj, const char* key, int last) {
  const int value = GetInt<int>(ctx, obj, key);
  if (ctx.ok && (value < 0 || value > last)) {
    ctx.Fail(std::string("key '") + key + "' is outside 0.." +
             std::to_string(last));
  }
  return value;
}

bool GetBool(Ctx& ctx, const JsonValue& obj, const char* key) {
  const JsonValue* value = Get(ctx, obj, key);
  if (value == nullptr) return false;
  if (value->kind != JsonValue::Kind::kBool) {
    ctx.Fail(std::string("key '") + key + "' is not a boolean");
    return false;
  }
  return value->bool_value;
}

std::string GetString(Ctx& ctx, const JsonValue& obj, const char* key) {
  const JsonValue* value = Get(ctx, obj, key);
  if (value == nullptr) return {};
  if (value->kind != JsonValue::Kind::kString) {
    ctx.Fail(std::string("key '") + key + "' is not a string");
    return {};
  }
  return value->string_value;
}

std::span<const JsonValue> GetArray(Ctx& ctx, const JsonValue& obj,
                                    const char* key) {
  const JsonValue* value = Get(ctx, obj, key);
  if (value == nullptr) return {};
  if (value->kind != JsonValue::Kind::kArray) {
    ctx.Fail(std::string("key '") + key + "' is not an array");
    return {};
  }
  return value->array;
}

std::vector<double> GetDoubleArray(Ctx& ctx, const JsonValue& obj,
                                   const char* key) {
  std::vector<double> out;
  for (const JsonValue& element : GetArray(ctx, obj, key)) {
    out.push_back(AsDouble(ctx, &element, key));
  }
  return out;
}

std::vector<NodeId> GetNodeArray(Ctx& ctx, const JsonValue& obj,
                                 const char* key) {
  std::vector<NodeId> out;
  for (const JsonValue& element : GetArray(ctx, obj, key)) {
    out.push_back(AsInt<NodeId>(ctx, &element, key));
  }
  return out;
}

/// Consumes `opts[key]`, a solver setting that is a constant of this build
/// (PlacementOptimizer::k*, LoadDistributor::k*): a recording made with any
/// other value names a search this build cannot reproduce.
template <typename Number>
void GetPinned(Ctx& ctx, const JsonValue& opts, const char* key,
               Number want) {
  Number got{};
  if constexpr (std::is_integral_v<Number>) {
    got = GetInt<Number>(ctx, opts, key);
  } else {
    got = GetDouble(ctx, opts, key);
  }
  if (ctx.ok && !(got == want)) {
    char text[32];
    const auto end = std::to_chars(text, text + sizeof(text), want).ptr;
    ctx.Fail(std::string("key 'input.options.") + key + "' must be " +
             std::string(text, end));
  }
}

/// Whether `value` is an array of exactly `size` elements (a placement cell
/// or a separation pair).
bool IsTuple(const JsonValue& value, std::size_t size) {
  return value.kind == JsonValue::Kind::kArray && value.array.size() == size;
}

obs::CycleInputRecord ReadInput(Ctx& ctx, const JsonValue& obj) {
  obs::CycleInputRecord in;
  in.now = GetDouble(ctx, obj, "now");
  in.control_cycle = GetDouble(ctx, obj, "control_cycle");

  for (const JsonValue& n : GetArray(ctx, obj, "nodes")) {
    obs::TraceNodeInput node;
    node.num_cpus = GetInt<int>(ctx, n, "cpus");
    node.cpu_speed = GetDouble(ctx, n, "speed");
    node.memory = GetDouble(ctx, n, "memory");
    node.state =
        GetEnum(ctx, n, "state", static_cast<int>(NodeState::kOffline));
    node.speed_factor = GetDouble(ctx, n, "speed_factor");
    in.nodes.push_back(node);
  }

  for (const JsonValue& j : GetArray(ctx, obj, "jobs")) {
    obs::TraceJobInput job;
    job.id = GetInt<AppId>(ctx, j, "id");
    job.submit_time = GetDouble(ctx, j, "submit_time");
    job.desired_start = GetDouble(ctx, j, "desired_start");
    job.completion_goal = GetDouble(ctx, j, "completion_goal");
    job.work_done = GetDouble(ctx, j, "work_done");
    job.status =
        GetEnum(ctx, j, "status", static_cast<int>(JobStatus::kCompleted));
    job.current_node = GetInt<NodeId>(ctx, j, "node");
    job.overhead_until = GetDouble(ctx, j, "overhead_until");
    job.place_overhead = GetDouble(ctx, j, "place_overhead");
    job.migrate_overhead = GetDouble(ctx, j, "migrate_overhead");
    job.memory = GetDouble(ctx, j, "memory");
    job.max_speed = GetDouble(ctx, j, "max_speed");
    job.min_speed = GetDouble(ctx, j, "min_speed");
    for (const JsonValue& s : GetArray(ctx, j, "stages")) {
      obs::TraceStageInput stage;
      stage.work = GetDouble(ctx, s, "work");
      stage.max_speed = GetDouble(ctx, s, "max_speed");
      stage.min_speed = GetDouble(ctx, s, "min_speed");
      stage.memory = GetDouble(ctx, s, "memory");
      job.stages.push_back(stage);
    }
    in.jobs.push_back(std::move(job));
  }

  for (const JsonValue& t : GetArray(ctx, obj, "tx")) {
    obs::TraceTxInput tx;
    tx.id = GetInt<AppId>(ctx, t, "id");
    tx.name = GetString(ctx, t, "name");
    tx.memory = GetDouble(ctx, t, "memory");
    tx.response_time_goal = GetDouble(ctx, t, "response_time_goal");
    tx.demand_per_request = GetDouble(ctx, t, "demand_per_request");
    tx.min_response_time = GetDouble(ctx, t, "min_response_time");
    tx.saturation = GetDouble(ctx, t, "saturation");
    tx.max_instances = GetInt<int>(ctx, t, "max_instances");
    tx.arrival_rate = GetDouble(ctx, t, "arrival_rate");
    tx.current_nodes = GetNodeArray(ctx, t, "nodes");
    in.tx_apps.push_back(std::move(tx));
  }

  if (const JsonValue* opts = Get(ctx, obj, "options"); opts != nullptr) {
    obs::TraceSolverOptions& o = in.options;
    o.max_sweeps = GetInt<int>(ctx, *opts, "max_sweeps");
    GetPinned(ctx, *opts, "max_changes_per_node",
              PlacementOptimizer::kMaxChangesPerNode);
    GetPinned(ctx, *opts, "max_wishes_tried",
              PlacementOptimizer::kMaxWishesTried);
    GetPinned(ctx, *opts, "max_migrations_tried",
              PlacementOptimizer::kMaxMigrationsTried);
    GetPinned(ctx, *opts, "max_evaluations", 0);  // no evaluation cap
    o.tie_tolerance = GetDouble(ctx, *opts, "tie_tolerance");
    // The evaluator always samples HypotheticalRpf::DefaultGrid(), which
    // the schema spells as an empty grid.
    if (!GetDoubleArray(ctx, *opts, "grid").empty() && ctx.ok) {
      ctx.Fail("key 'input.options.grid' must be []");
    }
    GetPinned(ctx, *opts, "level_tolerance", LoadDistributor::kLevelTolerance);
    GetPinned(ctx, *opts, "probe_delta", LoadDistributor::kProbeDelta);
    GetPinned(ctx, *opts, "bisection_iters", LoadDistributor::kBisectionIters);
    o.batch_aggregate = GetBool(ctx, *opts, "batch_aggregate");
    // Sharded-run group, emitted only when cell_size > 0; absent, the
    // TraceSolverOptions defaults (a monolithic solve) stand.
    if (Has(*opts, "cell_size")) {
      o.cell_size = GetInt<int>(ctx, *opts, "cell_size");
      o.partition_seed = GetInt<std::uint64_t>(ctx, *opts, "partition_seed");
      o.max_cross_cell_moves = GetInt<int>(ctx, *opts, "max_cross_cell_moves");
    }
    // Fairness-objective group, emitted only for a non-default objective;
    // absent, the defaults (lexicographic max-min) stand.
    if (Has(*opts, "objective")) {
      o.objective = GetInt<int>(ctx, *opts, "objective");
      o.karma_weight = GetDouble(ctx, *opts, "karma_weight");
      o.karma_cap = GetDouble(ctx, *opts, "karma_cap");
      o.karma_earn_rate = GetDouble(ctx, *opts, "karma_earn_rate");
      o.pf_epsilon = GetDouble(ctx, *opts, "pf_epsilon");
    }
  }

  for (const JsonValue& p : GetArray(ctx, obj, "pins")) {
    obs::TracePin pin;
    pin.app = GetInt<AppId>(ctx, p, "app");
    pin.nodes = GetNodeArray(ctx, p, "nodes");
    in.pins.push_back(std::move(pin));
  }

  for (const JsonValue& s : GetArray(ctx, obj, "separations")) {
    if (!IsTuple(s, 2)) {
      ctx.Fail("separation must be an [a,b] pair");
      break;
    }
    in.separations.emplace_back(AsInt<AppId>(ctx, &s.array[0], "separations"),
                                AsInt<AppId>(ctx, &s.array[1], "separations"));
  }
  // Karma credits, emitted only when the snapshot's ledger is non-empty.
  if (Has(obj, "credits")) {
    in.fairness_credits = GetDoubleArray(ctx, obj, "credits");
  }
  return in;
}

obs::CycleDecisionRecord ReadDecision(Ctx& ctx, const JsonValue& obj) {
  obs::CycleDecisionRecord decision;
  for (const JsonValue& c : GetArray(ctx, obj, "placement")) {
    if (!IsTuple(c, 3)) {
      ctx.Fail("placement cell must be [entity,node,count]");
      break;
    }
    decision.placement.push_back({AsInt<int>(ctx, &c.array[0], "placement"),
                                  AsInt<int>(ctx, &c.array[1], "placement"),
                                  AsInt<int>(ctx, &c.array[2], "placement")});
  }
  decision.allocations = GetDoubleArray(ctx, obj, "allocations");
  return decision;
}

obs::CycleTrace ReadCycle(Ctx& ctx, const JsonValue& obj, int version) {
  obs::CycleTrace t;
  if (version >= 2) t.run_id = GetString(ctx, obj, "run_id");
  t.cycle = GetInt<int>(ctx, obj, "cycle");
  t.time = GetDouble(ctx, obj, "time");
  t.avg_job_rp = GetDouble(ctx, obj, "avg_job_rp");
  t.min_job_rp = GetDouble(ctx, obj, "min_job_rp");
  t.num_jobs = GetInt<int>(ctx, obj, "num_jobs");
  t.running_jobs = GetInt<int>(ctx, obj, "running_jobs");
  t.queued_jobs = GetInt<int>(ctx, obj, "queued_jobs");
  t.suspended_jobs = GetInt<int>(ctx, obj, "suspended_jobs");
  t.batch_allocation = GetDouble(ctx, obj, "batch_allocation");
  t.tx_allocation = GetDouble(ctx, obj, "tx_allocation");
  t.cluster_utilization = GetDouble(ctx, obj, "cluster_utilization");
  t.starts = GetInt<int>(ctx, obj, "starts");
  t.stops = GetInt<int>(ctx, obj, "stops");
  t.suspends = GetInt<int>(ctx, obj, "suspends");
  t.resumes = GetInt<int>(ctx, obj, "resumes");
  t.migrations = GetInt<int>(ctx, obj, "migrations");
  t.failed_operations = GetInt<int>(ctx, obj, "failed_operations");
  t.evaluations = GetInt<int>(ctx, obj, "evaluations");
  t.shortcut = GetBool(ctx, obj, "shortcut");
  t.solver_seconds = GetDouble(ctx, obj, "solver_seconds");
  t.cache_hits = GetInt<std::uint64_t>(ctx, obj, "cache_hits");
  t.cache_misses = GetInt<std::uint64_t>(ctx, obj, "cache_misses");
  t.distribute_calls = GetInt<std::uint64_t>(ctx, obj, "distribute_calls");
  t.node_health.online = GetInt<int>(ctx, obj, "nodes_online");
  t.node_health.degraded = GetInt<int>(ctx, obj, "nodes_degraded");
  t.node_health.offline = GetInt<int>(ctx, obj, "nodes_offline");
  t.node_health.available_cpu = GetDouble(ctx, obj, "available_cpu");
  t.node_health.nominal_cpu = GetDouble(ctx, obj, "nominal_cpu");
  t.rp_before = GetDoubleArray(ctx, obj, "rp_before");
  t.rp_after = GetDoubleArray(ctx, obj, "rp_after");
  t.tx_utilities = GetDoubleArray(ctx, obj, "tx_utilities");
  t.tx_allocations = GetDoubleArray(ctx, obj, "tx_allocations");
  if (version < 2) return t;
  // Sharded-solve group, emitted only for cycles that ran num_cells > 0.
  if (Has(obj, "num_cells")) {
    t.num_cells = GetInt<int>(ctx, obj, "num_cells");
    t.cross_cell_migrations = GetInt<int>(ctx, obj, "cross_cell_migrations");
    t.cell_solver_seconds = GetDoubleArray(ctx, obj, "cell_solver_seconds");
  }
  // Event-driven cycle tag (absent = periodic cycle).
  if (Has(obj, "trigger")) t.trigger = GetString(ctx, obj, "trigger");
  // Full-trace payload: input and decision travel together.
  if (Has(obj, "input") || Has(obj, "decision")) {
    const JsonValue* input = Get(ctx, obj, "input");
    const JsonValue* decision = Get(ctx, obj, "decision");
    if (input != nullptr && decision != nullptr) {
      t.input = ReadInput(ctx, *input);
      t.decision = ReadDecision(ctx, *decision);
    }
  }
  return t;
}

void ReadHeader(Ctx& ctx, const JsonValue& obj, ParsedTrace& trace,
                std::size_t& declared) {
  if (GetString(ctx, obj, "record") != "header") {
    ctx.Fail("first record must be a header");
    return;
  }
  trace.schema_version = GetInt<int>(ctx, obj, "schema_version");
  if (ctx.ok && trace.schema_version != 1 && trace.schema_version != 2) {
    ctx.Fail("unsupported schema_version " +
             std::to_string(trace.schema_version));
    return;
  }
  if (trace.schema_version >= 2) {
    trace.context.run_id = GetString(ctx, obj, "run_id");
  }
  trace.context.experiment = GetString(ctx, obj, "experiment");
  trace.context.seed = GetInt<std::uint64_t>(ctx, obj, "seed");
  trace.context.control_cycle = GetDouble(ctx, obj, "control_cycle");
  trace.context.build_type = GetString(ctx, obj, "build_type");
  trace.context.git_sha = GetString(ctx, obj, "git_sha");
  // Scenario-calibration object (src/workload runs only); its ordered
  // members round-trip through re-export byte-identically.
  if (Has(obj, "scenario")) {
    const JsonValue* scenario = Get(ctx, obj, "scenario");
    if (scenario != nullptr && scenario->kind != JsonValue::Kind::kObject) {
      ctx.Fail("key 'scenario' is not an object");
    } else if (scenario != nullptr) {
      for (const auto& [name, entry] : scenario->members) {
        entry.read = true;
        trace.context.scenario.emplace_back(
            name, AsDouble(ctx, &entry, "scenario"));
      }
    }
  }
  declared = GetInt<std::size_t>(ctx, obj, "num_cycles");
}

/// The path of the first object member no Get consumed ("" when none), e.g.
/// "input.jobs[3].bogus"; sets *duplicate when that member repeats an
/// earlier key rather than naming one the schema does not define.
std::string UnreadKey(const JsonValue& value, bool* duplicate) {
  const auto join = [](const std::string& outer, const std::string& inner) {
    return outer + (inner[0] == '[' ? "" : ".") + inner;
  };
  for (const auto& [key, member] : value.members) {
    if (!member.read) {
      *duplicate = value.Find(key) != &member;
      return key;
    }
    if (std::string inner = UnreadKey(member, duplicate); !inner.empty()) {
      return join(key, inner);
    }
  }
  for (std::size_t i = 0; i < value.array.size(); ++i) {
    if (std::string inner = UnreadKey(value.array[i], duplicate);
        !inner.empty()) {
      return join("[" + std::to_string(i) + "]", inner);
    }
  }
  return {};
}

void SetError(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::string AtLine(std::size_t line_no, const std::string& message) {
  return "line " + std::to_string(line_no) + ": " + message;
}

}  // namespace

std::optional<ParsedTrace> ParseTraceJsonl(std::string_view text,
                                           std::string* error) {
  ParsedTrace trace;
  std::size_t declared = 0;
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;

    JsonValue value;
    Parser parser(line);
    if (!parser.Parse(value)) {
      SetError(error, AtLine(line_no, parser.error()));
      return std::nullopt;
    }
    Ctx ctx;
    if (line_no == 1) {
      ReadHeader(ctx, value, trace, declared);
    } else if (GetString(ctx, value, "record") != "cycle") {
      ctx.Fail("expected a cycle record");
    } else {
      trace.cycles.push_back(ReadCycle(ctx, value, trace.schema_version));
    }
    bool duplicate = false;
    if (const std::string key = ctx.ok ? UnreadKey(value, &duplicate) : "";
        !key.empty()) {
      ctx.Fail((duplicate ? "duplicate key '" : "unknown key '") + key + "'");
    }
    if (!ctx.ok) {
      SetError(error, AtLine(line_no, ctx.error));
      return std::nullopt;
    }
  }
  if (line_no == 0) {
    SetError(error, "empty trace file");
    return std::nullopt;
  }
  if (trace.cycles.size() != declared) {
    SetError(error, "header declares " + std::to_string(declared) +
                        " cycles but file has " +
                        std::to_string(trace.cycles.size()));
    return std::nullopt;
  }
  return trace;
}

std::string ValidateTrace(const ParsedTrace& trace, int min_cycles) {
  for (std::size_t i = 0; i < trace.cycles.size(); ++i) {
    const obs::CycleTrace& t = trace.cycles[i];
    // Entity counts in 64 bits: a hostile num_jobs must not overflow.
    const std::int64_t jobs = t.num_jobs;
    const auto tx = static_cast<std::int64_t>(t.tx_utilities.size());
    const auto size = [](const auto& v) {
      return static_cast<std::int64_t>(v.size());
    };
    std::string problem;
    if (t.input.has_value() && size(t.input->jobs) != jobs) {
      problem = "input jobs length != num_jobs";
    } else if (t.input.has_value() && size(t.input->tx_apps) != tx) {
      problem = "input tx length != tx_utilities length";
    } else if (t.input.has_value() && !t.input->fairness_credits.empty() &&
               size(t.input->fairness_credits) != jobs + tx) {
      problem = "input credits length != jobs + tx entities";
    } else if (size(t.rp_after) != jobs + tx) {
      problem = "rp_after length != num_jobs + tx entities";
    } else if (size(t.cell_solver_seconds) != t.num_cells) {
      problem = "cell_solver_seconds length != num_cells";
    } else if (i > 0) {
      // Sweep exports concatenate runs: within one run cycles advance by 1,
      // and a new run (and only a new run) restarts at cycle 0.
      const obs::CycleTrace& prev = trace.cycles[i - 1];
      if (t.cycle != 0 && t.cycle != std::int64_t{prev.cycle} + 1) {
        problem = "cycle jumped from " + std::to_string(prev.cycle) + " to " +
                  std::to_string(t.cycle);
      } else if (t.cycle != 0 && t.run_id != prev.run_id) {
        problem = "run_id changed to '" + t.run_id +
                  "' without a cycle reset to 0";
      }
    }
    // Line 1 is the header, so cycle i sits on line i + 2.
    if (!problem.empty()) return AtLine(i + 2, problem);
  }
  if (std::cmp_less(trace.cycles.size(), min_cycles)) {
    return "expected at least " + std::to_string(min_cycles) +
           " cycles, found " + std::to_string(trace.cycles.size());
  }
  return {};
}

std::optional<ParsedTrace> ParseTraceFile(const std::string& path,
                                          std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open trace file '" + path + "'");
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    SetError(error, "error while reading trace file '" + path + "'");
    return std::nullopt;
  }
  return ParseTraceJsonl(buffer.str(), error);
}

}  // namespace mwp::replay
