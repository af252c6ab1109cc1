// Reader for CycleTrace JSONL exports (trace schema v1 and v2).
//
// The exporter (obs/trace_export.h) serializes doubles with std::to_chars
// shortest round-trip formatting; this reader parses numbers back with
// std::from_chars, so a parsed trace holds the recorded values bit-for-bit
// and serialize→parse→serialize is byte-stable (property-tested). The JSON
// subset understood is exactly what the exporter emits — objects, arrays,
// strings with the exporter's escape set, numbers, booleans, null — parsed
// by a small dependency-free recursive-descent parser.
//
// This module is the single definition of the trace schema. Each record's
// key set is exactly the keys the reader consumes: an unknown or duplicate
// key, a partial optional group (sharded options, objective options,
// per-cycle sharded stats, input/decision), a fractional or out-of-range
// integer, or a wrong JSON type is an error. ValidateTrace adds the checks
// that span fields and records. `replay_apc --validate` runs both.
//
// Malformed input is reported as a line-numbered error string, never a
// crash: the replay CLI must diagnose truncated or hand-edited traces
// gracefully.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/cycle_trace.h"
#include "obs/trace_export.h"

namespace mwp::replay {

/// A parsed trace file: the header's provenance plus every cycle record, in
/// file order. v1 files parse with empty run_ids and no input/decision.
struct ParsedTrace {
  int schema_version = 0;
  obs::TraceContext context;
  std::vector<obs::CycleTrace> cycles;
};

/// Parses a JSONL export. Returns std::nullopt and sets *error (if non-null)
/// on malformed input — bad JSON, wrong record shape, unsupported schema
/// version, or a header/cycle-count mismatch.
std::optional<ParsedTrace> ParseTraceJsonl(std::string_view text,
                                           std::string* error);

/// Reads and parses `path`. Errors include I/O failures.
std::optional<ParsedTrace> ParseTraceFile(const std::string& path,
                                          std::string* error);

/// The checks no single record can make: rp_after holds num_jobs plus one
/// entry per tx app; cell_solver_seconds holds num_cells entries; a cycle's
/// input lists num_jobs jobs, one tx app per tx_utilities entry and, when
/// present, one credit per entity; cycle numbers step by +1 or reset to 0;
/// run_id changes only at a reset; and the file has at least `min_cycles`
/// cycles. Returns the first violation (line-numbered where it has a line)
/// or "" when the trace is consistent.
std::string ValidateTrace(const ParsedTrace& trace, int min_cycles);

}  // namespace mwp::replay
