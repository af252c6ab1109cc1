// The trace schema's negative cases and hostile-input robustness.
//
// Every check ParseTraceJsonl and ValidateTrace make has one row below: a
// single regex edit to one line of a checked-in golden and the error it must
// produce. The hostile-trace test then throws seeded random damage at every
// golden; whatever the damage, the reader must answer with a trace or an
// error string, never a crash or a hang.
#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "replay/trace_reader.h"

namespace mwp::replay {
namespace {

const char* const kGoldens[] = {"exp1_small.jsonl", "node_failure.jsonl",
                                "alibaba_small.jsonl"};

std::string ReadGolden(const std::string& name) {
  std::ifstream in(std::string(MWP_GOLDEN_TRACE_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Parses and validates `text`; "" when it is a valid trace.
std::string CheckTrace(const std::string& text, int min_cycles = 1) {
  std::string error;
  const auto trace = ParseTraceJsonl(text, &error);
  return trace.has_value() ? ValidateTrace(*trace, min_cycles) : error;
}

TEST(TraceSchemaTest, GoldensValidate) {
  for (const char* golden : kGoldens) {
    EXPECT_EQ(CheckTrace(ReadGolden(golden)), "") << golden;
  }
}

TEST(TraceSchemaTest, MinimumCycleCount) {
  EXPECT_EQ(CheckTrace(ReadGolden("exp1_small.jsonl"), 35), "");
  EXPECT_EQ(CheckTrace(ReadGolden("exp1_small.jsonl"), 1000),
            "expected at least 1000 cycles, found 35");
}

/// One schema check: the first line at or after `from_line` (0 = header)
/// that matches `pattern` gets its first match replaced by `replacement`.
struct SchemaCase {
  const char* name;
  const char* golden;
  std::size_t from_line;
  const char* pattern;
  const char* replacement;
  /// Expected error; prefixed with "line N: " (N = the edited line) unless
  /// `whole_file` is set.
  const char* error;
  bool whole_file = false;
};

// clang-format off
const SchemaCase kSchemaCases[] = {
    // Header record.
    {"header_not_first", "exp1_small.jsonl", 0, R"("record":"header")", R"("record":"cycle")", "first record must be a header"},
    {"unsupported_version", "exp1_small.jsonl", 0, R"("schema_version":2)", R"("schema_version":3)", "unsupported schema_version 3"},
    {"header_extra_key", "exp1_small.jsonl", 0, R"("git_sha":)", R"("extra":1,"git_sha":)", "unknown key 'extra'"},
    {"header_missing_key", "exp1_small.jsonl", 0, R"("seed":\d+,)", "", "missing key 'seed'"},
    {"header_wrong_type", "exp1_small.jsonl", 0, R"("experiment":"[^"]*")", R"("experiment":7)", "key 'experiment' is not a string"},
    {"scenario_not_object", "alibaba_small.jsonl", 0, R"("scenario":\{[^}]*\})", R"("scenario":[])", "key 'scenario' is not an object"},
    {"scenario_non_number", "alibaba_small.jsonl", 0, R"(("scenario":\{"[a-z_]+":)[^,}]+)", R"($1"x")", "key 'scenario' holds a non-number"},
    {"cycle_count_mismatch", "exp1_small.jsonl", 0, R"("num_cycles":\d+)", R"("num_cycles":1)", "header declares 1 cycles but file has 35", true},
    // Cycle record: key set, duplicates, types.
    {"not_a_cycle_record", "exp1_small.jsonl", 1, R"("record":"cycle")", R"("record":"header")", "expected a cycle record"},
    {"cycle_extra_key", "exp1_small.jsonl", 1, R"("time":)", R"("bogus":1,"time":)", "unknown key 'bogus'"},
    {"cycle_missing_key", "exp1_small.jsonl", 1, R"("stops":\d+,)", "", "missing key 'stops'"},
    {"cycle_duplicate_key", "exp1_small.jsonl", 1, R"("stops":)", R"("stops":0,"stops":)", "duplicate key 'stops'"},
    {"nested_duplicate_key", "exp1_small.jsonl", 1, R"("max_sweeps":)", R"("max_sweeps":2,"max_sweeps":)", "duplicate key 'input.options.max_sweeps'"},
    {"cycle_fractional_int", "exp1_small.jsonl", 1, R"("num_jobs":\d+)", R"("num_jobs":1.5)", "key 'num_jobs' is not an in-range integer"},
    {"cycle_negative_unsigned", "exp1_small.jsonl", 1, R"("cache_hits":\d+)", R"("cache_hits":-1)", "key 'cache_hits' is not an in-range integer"},
    {"cycle_wrong_bool", "exp1_small.jsonl", 1, R"("shortcut":(true|false))", R"("shortcut":0)", "key 'shortcut' is not a boolean"},
    {"cycle_array_element", "exp1_small.jsonl", 1, R"("rp_before":\[[^\]]*\])", R"("rp_before":["x"])", "key 'rp_before' holds a non-number"},
    {"cycle_not_an_array", "exp1_small.jsonl", 1, R"("tx_utilities":\[[^\]]*\])", R"("tx_utilities":5)", "key 'tx_utilities' is not an array"},
    {"trailing_characters", "exp1_small.jsonl", 1, R"(\}$)", "}}", "trailing characters after value"},
    {"nesting_too_deep", "exp1_small.jsonl", 1, R"("rp_before":\[)", R"("rp_before":[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[)", "nesting too deep"},
    // Optional groups are all-or-nothing.
    {"partial_sharded_stats", "exp1_small.jsonl", 1, R"("tx_allocations":)", R"("num_cells":2,"tx_allocations":)", "missing key 'cross_cell_migrations'"},
    {"stray_sharded_stat", "exp1_small.jsonl", 1, R"("time":)", R"("cross_cell_migrations":0,"time":)", "unknown key 'cross_cell_migrations'"},
    {"partial_sharded_options", "exp1_small.jsonl", 1, R"("batch_aggregate":)", R"("cell_size":25,"batch_aggregate":)", "missing key 'partition_seed'"},
    {"partial_objective_options", "exp1_small.jsonl", 1, R"("batch_aggregate":)", R"("objective":1,"batch_aggregate":)", "missing key 'karma_weight'"},
    {"stray_objective_option", "exp1_small.jsonl", 1, R"("batch_aggregate":)", R"("karma_cap":8,"batch_aggregate":)", "unknown key 'input.options.karma_cap'"},
    {"input_without_decision", "exp1_small.jsonl", 1, R"(,"decision":\{[^{}]*\}\}$)", "}", "missing key 'decision'"},
    // Solver settings fixed in core: a recording with another value cannot be replayed.
    {"pinned_max_changes_per_node", "exp1_small.jsonl", 1, R"("max_changes_per_node":8)", R"("max_changes_per_node":9)", "key 'input.options.max_changes_per_node' must be 8"},
    {"pinned_max_wishes_tried", "exp1_small.jsonl", 1, R"("max_wishes_tried":8)", R"("max_wishes_tried":7)", "key 'input.options.max_wishes_tried' must be 8"},
    {"pinned_max_migrations_tried", "exp1_small.jsonl", 1, R"("max_migrations_tried":3)", R"("max_migrations_tried":4)", "key 'input.options.max_migrations_tried' must be 3"},
    {"pinned_max_evaluations", "exp1_small.jsonl", 1, R"("max_evaluations":0)", R"("max_evaluations":5)", "key 'input.options.max_evaluations' must be 0"},
    {"pinned_grid", "exp1_small.jsonl", 1, R"("grid":\[\])", R"("grid":[0.5,1])", "key 'input.options.grid' must be []"},
    {"pinned_level_tolerance", "exp1_small.jsonl", 1, R"("level_tolerance":1e-04)", R"("level_tolerance":1e-05)", "key 'input.options.level_tolerance' must be 1e-04"},
    {"pinned_probe_delta", "exp1_small.jsonl", 1, R"("probe_delta":0\.001)", R"("probe_delta":0.002)", "key 'input.options.probe_delta' must be 0.001"},
    {"pinned_bisection_iters", "exp1_small.jsonl", 1, R"("bisection_iters":48)", R"("bisection_iters":47)", "key 'input.options.bisection_iters' must be 48"},
    // Input and decision objects.
    {"input_node_extra_key", "exp1_small.jsonl", 1, R"("cpus":)", R"("gpus":0,"cpus":)", "unknown key 'input.nodes[0].gpus'"},
    {"input_job_missing_key", "exp1_small.jsonl", 1, R"("desired_start":[^,]+,)", "", "missing key 'desired_start'"},
    {"input_stage_extra_key", "exp1_small.jsonl", 1, R"("stages":\[\{)", R"("stages":[{"bonus":1,)", "unknown key 'input.jobs[0].stages[0].bonus'"},
    {"input_tx_extra_key", "alibaba_small.jsonl", 1, R"("response_time_goal":)", R"("zz":1,"response_time_goal":)", "unknown key 'input.tx[0].zz'"},
    {"input_pin_missing_key", "exp1_small.jsonl", 1, R"("pins":\[\])", R"("pins":[{"app":1}])", "missing key 'nodes'"},
    {"input_separation_shape", "exp1_small.jsonl", 1, R"("separations":\[\])", R"("separations":[[1]])", "separation must be an [a,b] pair"},
    {"placement_cell_shape", "exp1_small.jsonl", 1, R"("placement":\[\[)", R"("placement":[[0],[)", "placement cell must be [entity,node,count]"},
    {"placement_fractional_count", "exp1_small.jsonl", 1, R"("placement":\[\[(\d+),(\d+),\d+\])", R"("placement":[[$1,$2,1.5])", "key 'placement' is not an in-range integer"},
    {"placement_huge_node", "exp1_small.jsonl", 1, R"("placement":\[\[(\d+),\d+,)", R"("placement":[[$1,1e300,)", "key 'placement' is not an in-range integer"},
    {"allocation_non_number", "exp1_small.jsonl", 1, R"("allocations":\[[^\]]*\])", R"("allocations":[true])", "key 'allocations' holds a non-number"},
    // Cross-field checks (ValidateTrace).
    {"input_jobs_length", "exp1_small.jsonl", 1, R"("num_jobs":0)", R"("num_jobs":1)", "input jobs length != num_jobs"},
    {"input_tx_length", "exp1_small.jsonl", 1, R"("tx_utilities":\[\])", R"("tx_utilities":[0.5])", "input tx length != tx_utilities length"},
    {"credits_length", "exp1_small.jsonl", 1, R"("separations":\[\])", R"("separations":[],"credits":[1])", "input credits length != jobs + tx entities"},
    {"rp_after_length", "exp1_small.jsonl", 1, R"("rp_after":\[[^\],]+,)", R"("rp_after":[)", "rp_after length != num_jobs + tx entities"},
    {"cell_seconds_length", "exp1_small.jsonl", 1, R"("tx_allocations":)", R"("num_cells":2,"cross_cell_migrations":0,"cell_solver_seconds":[1],"tx_allocations":)", "cell_solver_seconds length != num_cells"},
    // Cross-record checks (ValidateTrace).
    {"cycle_jump", "exp1_small.jsonl", 2, R"("cycle":1,)", R"("cycle":7,)", "cycle jumped from 0 to 7"},
    {"run_id_change_without_reset", "exp1_small.jsonl", 2, R"("run_id":"[^"]*")", R"("run_id":"other")", "run_id changed to 'other' without a cycle reset to 0"},
};
// clang-format on

TEST(TraceSchemaTest, EachCheckRejectsItsMutation) {
  for (const SchemaCase& c : kSchemaCases) {
    SCOPED_TRACE(c.name);
    std::vector<std::string> lines = SplitLines(ReadGolden(c.golden));
    const std::regex pattern(c.pattern);
    std::size_t edited = c.from_line;
    while (edited < lines.size() && !std::regex_search(lines[edited], pattern)) {
      ++edited;
    }
    ASSERT_LT(edited, lines.size()) << "no line matches " << c.pattern;
    lines[edited] = std::regex_replace(lines[edited], pattern, c.replacement,
                                       std::regex_constants::format_first_only);
    std::string text;
    for (const std::string& line : lines) text += line + "\n";

    const std::string expected =
        c.whole_file ? std::string(c.error)
                     : "line " + std::to_string(edited + 1) + ": " + c.error;
    const std::string error = CheckTrace(text);
    EXPECT_NE(error.find(expected), std::string::npos)
        << "expected '" << expected << "', got '" << error << "'";
  }
}

TEST(TraceSchemaTest, BlankLineIsAnError) {
  std::string text = ReadGolden("exp1_small.jsonl");
  text.insert(text.find('\n') + 1, "\n");
  EXPECT_EQ(CheckTrace(text).rfind("line 2: ", 0), 0u) << CheckTrace(text);
}

TEST(TraceSchemaTest, WideObjectIsRejectedInLinearTime) {
  // 100k members in one record: a reader that compared every key with every
  // other would take minutes here.
  std::string text = ReadGolden("exp1_small.jsonl");
  std::string extra;
  for (int k = 0; k < 100000; ++k) extra += "\"k" + std::to_string(k) + "\":0,";
  text.insert(text.find("\"time\":"), extra);
  EXPECT_EQ(CheckTrace(text), "line 2: unknown key 'k0'");
}

// --- hostile traces ---------------------------------------------------------

/// One seeded random mutation of `text`: a byte flip, a truncation, a
/// duplicated or dropped key, a huge / denormal / out-of-range number, deep
/// nesting, or invalid UTF-8 inside a string.
std::string Mutate(std::string text, Rng& rng) {
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(n) - 1));
  };
  const std::size_t at = pick(text.size());
  // A key is a quoted name followed by ':'; find the first one after `at`.
  const std::size_t key = text.find("\":", at);
  const std::size_t key_start =
      key == std::string::npos ? std::string::npos : text.rfind('"', key - 1);
  switch (pick(8)) {
    case 0:  // byte flip
      text[at] = static_cast<char>(rng.UniformInt(0, 255));
      break;
    case 1:  // truncation
      text.resize(at);
      break;
    case 2:  // duplicated key
      if (key_start != std::string::npos) {
        text.insert(key_start, text.substr(key_start, key + 2 - key_start) +
                                   "0,");
      }
      break;
    case 3:  // dropped key (its name and the colon: the value is orphaned)
      if (key_start != std::string::npos) {
        text.erase(key_start, key + 2 - key_start);
      }
      break;
    case 4: {  // number replaced by an extreme
      const char* const kExtremes[] = {"1e308",  "1e309", "-1e309", "4.9e-324",
                                       "1e-400", "-0",    "1e300",  "2147483648",
                                       "-2147483649", "18446744073709551616",
                                       "0.5"};
      const std::size_t digit = text.find_first_of("0123456789", at);
      if (digit != std::string::npos) {
        const std::size_t end = text.find_first_not_of("0123456789.e+-", digit);
        text.replace(digit, end - digit, kExtremes[pick(std::size(kExtremes))]);
      }
      break;
    }
    case 5:  // deep nesting
      text.insert(at, std::string(5000, '['));
      break;
    case 6:  // invalid UTF-8 inside a string
      if (const std::size_t quote = text.find('"', at);
          quote != std::string::npos) {
        text.insert(quote + 1, "\xff\xfe\xc0");
      }
      break;
    default:  // whole line duplicated (a repeated cycle record)
      if (const std::size_t nl = text.find('\n', at); nl != std::string::npos) {
        const std::size_t begin = text.rfind('\n', nl - 1);
        const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
        text.insert(from, text.substr(from, nl + 1 - from));
      }
      break;
  }
  return text;
}

TEST(TraceSchemaTest, HostileTracesYieldATraceOrAnError) {
  // Small enough for the sanitizer lane, which runs the whole suite.
  constexpr int kMutantsPerGolden = 60;
  Rng rng(20261017);
  int rejected = 0;
  for (const char* golden : kGoldens) {
    const std::string original = ReadGolden(golden);
    for (int m = 0; m < kMutantsPerGolden; ++m) {
      const std::string mutant = Mutate(original, rng);
      std::string error;
      const auto trace = ParseTraceJsonl(mutant, &error);
      if (trace.has_value()) error = ValidateTrace(*trace, 1);
      if (!error.empty()) ++rejected;
      if (!trace.has_value()) {
        EXPECT_FALSE(error.empty()) << golden << " mutant " << m;
      }
    }
  }
  // The mutations are damage, not no-ops: nearly all must be caught.
  EXPECT_GT(rejected, 3 * kMutantsPerGolden / 2);
}

}  // namespace
}  // namespace mwp::replay
