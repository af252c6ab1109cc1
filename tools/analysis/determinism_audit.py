#!/usr/bin/env python3
"""Static-analysis gate for the mixed-workload-placement tree.

The replay harness (docs/ALGORITHMS.md §12) re-executes recorded optimizer
inputs and diffs decisions at zero tolerance; the sharded optimizer promises
thread-count-invariant solves; the event-driven service promises quiescent
bit-exactness. All three rest on one invariant: decision-path code must be
deterministic. This auditor enforces it, plus the project's source
conventions, with one token/scope engine and one allowlist grammar:

AUD-D1  Unordered-container iteration order. Range-for / `.begin()`
        traversal of a `std::unordered_map`/`unordered_set` feeds
        hash-order — which varies across libstdc++/libc++ and across
        pointer-salted hashes — into whatever the loop body computes.
        Iterate a sorted view, or justify with
        `// audit: order-insensitive(<reason>)`.
AUD-D2  Address-based ordering. Comparators that compare pointer *values*
        (`a < b` on `T*`, `std::set<T*>` with the default comparator,
        `std::less<T*>`) order by allocation address: different run,
        different order. Compare a stable field, or justify with
        `// audit: address-stable(<reason>)`.
AUD-D3  Nondeterministic sources. `std::random_device`, `rand()`/`srand()`,
        `time(nullptr)` and raw standard engines (`std::mt19937(_64)`,
        `minstd_rand0?`, `ranlux*`, `knuth_b`, `default_random_engine`)
        break single-seed reproducibility: all randomness flows through
        mwp::Rng (common/rng.h, whose engine carries
        `// audit: rng-engine-ok(<reason>)`). Any `*_clock` of std::chrono,
        and `now()` through a clock alias (`using Clock = ...`), makes
        results depend on the host: simulated time is the only time, and
        host-time measurement goes through obs::Stopwatch
        (obs/stopwatch.h, the one `// audit: wall-clock-ok(<reason>)`).
AUD-D4  Order-dependent accumulation in parallel lanes. A compound
        assignment (`+=`, `-=`, `*=`, `/=`) to state captured by a lambda
        that runs on the ThreadPool (`ParallelFor` / `TrySubmit`) is either
        a data race or a reduction whose result depends on lane timing
        (floating-point addition is not associative). Write per-index slots
        and reduce in index order, or justify with
        `// audit: order-fixed(<reason>)`.
AUD-L1  GUARDED_BY coverage. In a class that owns a `Mutex`, every mutable
        co-located field must name its guard (`MWP_GUARDED_BY` /
        `MWP_PT_GUARDED_BY`) or be exempt by construction (const, atomic,
        condition_variable, the mutex itself). Escape hatch:
        `// audit: not-guarded(<reason>)`.
AUD-L2  Lock-order cycles. A directed graph is mined from the nesting of
        annotated `MutexLock` scopes plus declared
        `MWP_ACQUIRED_BEFORE(...)` edges; any cycle is a potential
        deadlock. Suppress a single intentionally-reversed edge with
        `// audit: lock-order-ok(<reason>)` on the inner acquisition.
MWP003  No raw `assert` — contract violations must throw through
        `MWP_CHECK`/`MWP_DCHECK` so they carry file/line/message context
        and stay active in Release (assert vanishes with NDEBUG).
MWP004  No iostream in hot-path modules (`src/core/`, `src/rpf/`) — logging
        there goes through MWP_LOG_* (leveled, mutex-guarded).
MWP005  Units at API boundaries — headers declare time-like quantities as
        `Seconds` (common/units.h), not raw `double`. Dimensionless names
        (factors, ratios, rates) are exempt.
AUD900  Stale allowlist: an `// audit:` annotation that suppresses no
        finding is an error — allowlists must shrink with the code.
AUD901  Malformed allowlist: unknown tag or empty reason.

MWP003–MWP005 are line rules over comment- and string-blanked source and
have no audit tag: nothing in the tree needs an exception to them.

Allowlist grammar: `// audit: <tag>(<reason>)` on the flagged line, or on
its own comment line directly above. The reason is mandatory; the tool
verifies every annotation attaches to a real finding (AUD900 otherwise).
The self-test corpus (tools/analysis/corpus/) pins the findings to a golden
JSON and requires every rule id to fire.

Usage:
    determinism_audit.py [--root DIR] [--json OUT]
    determinism_audit.py --self-test

Exit status: 0 clean, 1 findings/stale allowlist (or self-test failure),
2 usage error. Registered as ctest `lint.determinism_audit` and
`lint.determinism_audit_selftest`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# --- allowlist grammar ------------------------------------------------------

AUDIT_COMMENT = re.compile(r"//\s*audit:\s*(?P<tag>[a-z-]+)\s*\((?P<reason>[^)]*)\)")

# Every rule id the auditor reports, with the `// audit:` tags that may
# excuse its findings (none where no code in the tree needs an exception).
# A finding names the one tag that excuses it: the rule's first, unless the
# rule passes another.
RULES = {
    "AUD-D1": ("order-insensitive",),
    "AUD-D2": ("address-stable",),
    "AUD-D3": ("wall-clock-ok", "rng-engine-ok"),
    "AUD-D4": ("order-fixed",),
    "AUD-L1": ("not-guarded",),
    "AUD-L2": ("lock-order-ok",),
    "MWP003": (),
    "MWP004": (),
    "MWP005": (),
    "AUD900": (),
    "AUD901": (),
}
AUDIT_TAGS = {tag for tags in RULES.values() for tag in tags}

AUDIT_DIRS = ("src", "bench", "examples")
SOURCE_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}

UNORDERED_TYPES = {"unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset"}
CLOCK_NAMES = {"steady_clock", "system_clock", "high_resolution_clock"}
RNG_ENGINE = re.compile(r"mt19937(?:_64)?|minstd_rand0?|ranlux\d+(?:_base)?"
                        r"|knuth_b|default_random_engine")
PARALLEL_ENTRY_CALLS = {"ParallelFor", "TrySubmit"}
COMPOUND_ASSIGN = {"+=", "-=", "*=", "/="}
RELATIONAL = {"<", ">", "<=", ">="}

ASSERT_PATTERN = re.compile(r"(?<![\w_])assert\s*\(")
IOSTREAM_PATTERNS = [
    (re.compile(r"#\s*include\s*<iostream>"), "#include <iostream>"),
    (re.compile(r"std::(cout|cerr|clog)\b"), "std::cout/cerr/clog"),
]
HOT_PATH_MODULES = ("src/core/", "src/rpf/")
# Time-like identifiers that must be declared `Seconds`, unless the name
# marks them dimensionless (factor/ratio/rate/...).
UNITS_TIME_NAME = re.compile(
    r"\bdouble\s+(?P<name>\w*(?:_time|_seconds|response_time|deadline|"
    r"duration|timeout)\w*|time|deadline|duration|timeout)\s*[;=,)]")
UNITS_EXEMPT_NAME = re.compile(
    r"factor|ratio|fraction|rate|satisf|scale|per_|_per|weight|share")


class Finding:
    def __init__(self, rule: str, file: str, line: int, message: str,
                 tag: str | None = None):
        self.rule = rule
        self.file = file  # POSIX path relative to the audited root
        self.line = line
        self.message = message
        tags = RULES.get(rule, ())
        self.tag = tag or (tags[0] if tags else None)  # excusing tag
        self.allowlisted = False
        self.reason = ""

    def __str__(self) -> str:
        mark = " (allowlisted: %s)" % self.reason if self.allowlisted else ""
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}{mark}"


class Annotation:
    def __init__(self, file: str, line: int, tag: str, reason: str,
                 targets: set[int]):
        self.file = file
        self.line = line
        self.tag = tag
        self.reason = reason
        self.targets = targets  # lines this annotation may suppress
        self.used = False


# --- source preprocessing ---------------------------------------------------

def preprocess(text: str):
    """Returns (code_lines, annotations_raw). Comments and string/char
    literal *contents* are blanked (line structure preserved); audit
    annotations are harvested from comments before blanking."""
    # Harvest annotations with their line numbers first.
    raw_lines = text.split("\n")
    annos = []  # (line_no, tag, reason, comment_only)
    for i, line in enumerate(raw_lines, start=1):
        m = AUDIT_COMMENT.search(line)
        if m:
            before = line[: line.find("//")]
            annos.append((i, m.group("tag"), m.group("reason").strip(),
                          before.strip() == ""))

    # Blank block comments, keeping newlines.
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = re.sub(r"/\*.*?\*/", blank, text, flags=re.S)
    lines = []
    for line in text.split("\n"):
        cut = line.find("//")
        lines.append(line[:cut] if cut >= 0 else line)

    # Blank literal contents: C++14 digit separators first so 1'000.0 does
    # not read as a char literal, then strings and chars.
    out = []
    for line in lines:
        line = re.sub(r"(?<=[0-9a-fA-F])'(?=[0-9a-fA-F])", "0", line)
        line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
        line = re.sub(r"'(?:[^'\\]|\\.)'", "' '", line)
        out.append(line)

    # An annotation on a comment-only line targets the next line holding
    # code; one sharing a line with code targets that line.
    def next_code_line(after: int) -> int:
        for j in range(after, len(out)):
            if out[j].strip():
                return j + 1
        return after

    annotations = []
    for line_no, tag, reason, comment_only in annos:
        if comment_only:
            targets = {next_code_line(line_no)}
        else:
            targets = {line_no}
        annotations.append((line_no, tag, reason, targets))
    return out, annotations


TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|\.?\d[\w.+-]*"
    r"|<<=|>>=|::|->\*?|\+\+|--|\+=|-=|\*=|/=|%=|&=|\|=|\^=|<=>"
    r"|<<|>>|<=|>=|==|!=|&&|\|\||[{}()\[\];:,.<>=+\-*/%!&|^~?]"
)


def tokenize(code_lines: list[str]):
    """Token list of (text, line)."""
    tokens = []
    for line_no, line in enumerate(code_lines, start=1):
        if line.lstrip().startswith("#"):
            continue  # preprocessor lines carry no decision code of interest
        for m in TOKEN_RE.finditer(line):
            tokens.append((m.group(0), line_no))
    return tokens


def match_group(tokens, i, open_t, close_t):
    """Index just past the group closing the opener at tokens[i]."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i][0]
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def skip_template_group(tokens, i):
    """tokens[i] == '<' believed to open template args; returns index past
    the matching '>' treating '>>' as two closers. Returns i unchanged if
    the group does not close within the statement (comparison, not args)."""
    depth = 0
    j = i
    n = len(tokens)
    while j < n:
        t = tokens[j][0]
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t == ";" or t == "{":
            return i  # never closed: not a template argument list
        j += 1
    return i


# --- engine -----------------------------------------------------------------

class Auditor:
    """Pure-Python token/scope analysis. Two passes: pass one collects
    cross-file facts (names declared with unordered types, clock aliases)
    and applies the line rules; pass two emits token-rule findings per
    file."""

    def __init__(self, root: Path, files: list[Path]):
        self.root = root
        self.files = files
        self.unordered_names: set[str] = set()
        self.clock_aliases: dict[str, set[str]] = {}  # file -> alias names

    def run(self):
        findings: list[Finding] = []
        annotations: list[Annotation] = []
        lock_edges = []   # (from_node, to_node, file, line)
        declared_edges = []
        parsed = []
        for path in self.files:
            rel = path.relative_to(self.root).as_posix()
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as err:
                findings.append(Finding("AUD000", rel, 0, f"unreadable: {err}"))
                continue
            code_lines, annos = preprocess(text)
            tokens = tokenize(code_lines)
            parsed.append((rel, tokens))
            for line_no, tag, reason, targets in annos:
                annotations.append(Annotation(rel, line_no, tag, reason, targets))
            findings.extend(self._line_rules(rel, code_lines))
            self._collect_unordered_names(tokens)
            self.clock_aliases[rel] = self._collect_clock_aliases(tokens)
        for rel, tokens in parsed:
            findings.extend(self._d1_unordered_iteration(rel, tokens))
            findings.extend(self._d2_pointer_comparators(rel, tokens))
            findings.extend(self._d3_banned_sources(rel, tokens))
            findings.extend(self._d4_parallel_reductions(rel, tokens))
            findings.extend(self._l1_guarded_by(rel, tokens))
            obs, dec = self._l2_lock_facts(rel, tokens)
            lock_edges.extend(obs)
            declared_edges.extend(dec)
        return findings, annotations, lock_edges, declared_edges

    # -- MWP003..MWP005: line rules --

    @staticmethod
    def _line_rules(rel, code_lines):
        findings = []
        for line_no, line in enumerate(code_lines, start=1):
            if ASSERT_PATTERN.search(line) and "static_assert" not in line:
                findings.append(Finding(
                    "MWP003", rel, line_no,
                    "raw assert(); use MWP_CHECK (always on) or MWP_DCHECK "
                    "(hot paths) from common/check.h"))
            if rel.startswith(HOT_PATH_MODULES):
                for pattern, what in IOSTREAM_PATTERNS:
                    if pattern.search(line):
                        findings.append(Finding(
                            "MWP004", rel, line_no,
                            f"{what} in hot-path module; use MWP_LOG_* from "
                            "common/log.h"))
            if rel.endswith(".h"):
                match = UNITS_TIME_NAME.search(line)
                if match and not UNITS_EXEMPT_NAME.search(match.group("name")):
                    findings.append(Finding(
                        "MWP005", rel, line_no,
                        f"time-like '{match.group('name')}' declared as raw "
                        "double; use the Seconds alias from common/units.h"))
        return findings

    # -- shared fact collection --

    def _collect_unordered_names(self, tokens):
        n = len(tokens)
        i = 0
        while i < n:
            if tokens[i][0] in UNORDERED_TYPES:
                j = i + 1
                if j < n and tokens[j][0] == "<":
                    j = skip_template_group(tokens, j)
                # Scan over closers/qualifiers of an enclosing template and
                # pointer/ref markers to the declared name.
                while j < n and tokens[j][0] in {">", ">>", "*", "&", "const"}:
                    j += 1
                if j < n and re.match(r"[A-Za-z_]\w*$", tokens[j][0]):
                    nxt = tokens[j + 1][0] if j + 1 < n else ";"
                    if nxt != "::":
                        self.unordered_names.add(tokens[j][0])
            i += 1

    def _collect_clock_aliases(self, tokens) -> set[str]:
        aliases = set()
        n = len(tokens)
        for i in range(n):
            if tokens[i][0] == "using" and i + 2 < n and tokens[i + 2][0] == "=":
                j = i + 3
                while j < n and tokens[j][0] != ";":
                    if tokens[j][0] in CLOCK_NAMES:
                        aliases.add(tokens[i + 1][0])
                        break
                    j += 1
        return aliases

    # -- AUD-D1 --

    def _d1_unordered_iteration(self, rel, tokens):
        findings = []
        n = len(tokens)
        i = 0
        while i < n:
            t, line = tokens[i]
            # Range-for whose container resolves to an unordered name.
            if t == "for" and i + 1 < n and tokens[i + 1][0] == "(":
                end = match_group(tokens, i + 1, "(", ")")
                colon = None
                depth = 0
                bracket = 0
                for j in range(i + 1, end):
                    tj = tokens[j][0]
                    if tj == "(":
                        depth += 1
                    elif tj == ")":
                        depth -= 1
                    elif tj == "[":
                        bracket += 1
                    elif tj == "]":
                        bracket -= 1
                    elif tj == ";" and depth == 1:
                        colon = None
                        break  # classic for-loop
                    elif tj == ":" and depth == 1 and bracket == 0:
                        # skip access-specifier-style false hits: ':' in a
                        # range-for is never followed by 'able:' labels here.
                        colon = j
                        break
                if colon is not None:
                    name = self._container_root(tokens, colon + 1, end - 1)
                    if name in self.unordered_names:
                        findings.append(Finding(
                            "AUD-D1", rel, tokens[colon][1],
                            f"range-for over unordered container '{name}': "
                            "iteration order is hash-order and varies across "
                            "standard libraries and runs; iterate a sorted "
                            "view or justify with "
                            "// audit: order-insensitive(<reason>)"))
            # Iterator traversal: X.begin()/X.cbegin() on an unordered name.
            if t in {"begin", "cbegin", "rbegin"} and i >= 2 and i + 1 < n \
                    and tokens[i + 1][0] == "(" \
                    and tokens[i - 1][0] in {".", "->"}:
                owner = tokens[i - 2][0]
                if owner in self.unordered_names:
                    findings.append(Finding(
                        "AUD-D1", rel, line,
                        f"iterator traversal of unordered container "
                        f"'{owner}': hash-order is not deterministic across "
                        "toolchains; justify with "
                        "// audit: order-insensitive(<reason>)"))
            i += 1
        return findings

    @staticmethod
    def _container_root(tokens, start, end):
        """Final identifier of the container expression in tokens[start:end]
        (e.g. `*memo` -> memo, `snap.jobs()` -> jobs, `m` -> m)."""
        toks = [t for t, _ in tokens[start:end]]
        while toks and toks[-1] == ")":
            # strip one trailing call group
            depth = 0
            for k in range(len(toks) - 1, -1, -1):
                if toks[k] == ")":
                    depth += 1
                elif toks[k] == "(":
                    depth -= 1
                    if depth == 0:
                        toks = toks[:k]
                        break
            else:
                break
        return toks[-1] if toks and re.match(r"[A-Za-z_]\w*$", toks[-1]) else ""

    # -- AUD-D2 --

    def _d2_pointer_comparators(self, rel, tokens):
        findings = []
        n = len(tokens)
        i = 0
        while i < n:
            t, line = tokens[i]
            # std::set<T*> / std::map<T*, V> with the default comparator;
            # std::less<T*>.
            if t in {"set", "multiset", "map", "multimap", "less"} and i >= 2 \
                    and tokens[i - 1][0] == "::" and tokens[i - 2][0] == "std" \
                    and i + 1 < n and tokens[i + 1][0] == "<":
                args = self._template_args(tokens, i + 1)
                if args is not None:
                    key_is_ptr = bool(args) and args[0].endswith("*")
                    max_args = {"set": 1, "multiset": 1, "less": 1,
                                "map": 2, "multimap": 2}[t]
                    if key_is_ptr and len(args) <= max_args:
                        findings.append(Finding(
                            "AUD-D2", rel, line,
                            f"std::{t} ordered by pointer value "
                            f"('{args[0]}'): allocation addresses differ "
                            "across runs; key on a stable id or justify "
                            "with // audit: address-stable(<reason>)"))
            # Lambda comparator with >=2 pointer params comparing the
            # pointers themselves.
            if t == "]" and i + 1 < n and tokens[i + 1][0] == "(":
                pend = match_group(tokens, i + 1, "(", ")")
                ptr_params = self._pointer_params(tokens, i + 2, pend - 1)
                if len(ptr_params) >= 2:
                    j = pend
                    while j < n and tokens[j][0] not in {"{", ";", ")"}:
                        j += 1
                    if j < n and tokens[j][0] == "{":
                        bend = match_group(tokens, j, "{", "}")
                        findings.extend(self._ptr_compares(
                            rel, tokens, j + 1, bend - 1, ptr_params))
            i += 1
        return findings

    @staticmethod
    def _template_args(tokens, i):
        """Top-level template argument strings for the '<' at tokens[i],
        or None when it is not a closed argument list."""
        end = skip_template_group(tokens, i)
        if end == i:
            return None
        args, cur, depth = [], [], 0
        for k in range(i + 1, end - 1):
            t = tokens[k][0]
            if t in {"<", "(", "["}:
                depth += 1
            elif t in {">", ")", "]"}:
                depth -= 1
            elif t == ">>":
                depth -= 2
            if t == "," and depth == 0:
                args.append("".join(cur))
                cur = []
            else:
                cur.append(t)
        if cur:
            args.append("".join(cur))
        return args

    @staticmethod
    def _pointer_params(tokens, start, end):
        """Names of pointer-typed parameters declared in tokens[start:end]."""
        params, cur = [], []
        depth = 0
        for k in range(start, end):
            t = tokens[k][0]
            if t in {"<", "(", "["}:
                depth += 1
            elif t in {">", ")", "]"}:
                depth -= 1
            if t == "," and depth == 0:
                params.append(cur)
                cur = []
            else:
                cur.append(t)
        if cur:
            params.append(cur)
        names = []
        for p in params:
            if "*" in p and p and re.match(r"[A-Za-z_]\w*$", p[-1]):
                names.append(p[-1])
        return names

    @staticmethod
    def _ptr_compares(rel, tokens, start, end, ptr_params):
        findings = []
        pset = set(ptr_params)
        for k in range(start + 1, end - 1):
            op = tokens[k][0]
            if op in RELATIONAL:
                lhs, l_line = tokens[k - 1]
                rhs, _ = tokens[k + 1]
                if lhs in pset and rhs in pset and lhs != rhs:
                    before = tokens[k - 2][0] if k - 2 >= start else ";"
                    if before in {".", "->"}:
                        continue  # member access, not the pointer itself
                    findings.append(Finding(
                        "AUD-D2", rel, l_line,
                        f"comparator orders by pointer value "
                        f"('{lhs} {op} {rhs}'): addresses are not stable "
                        "across runs; compare a stable field or justify "
                        "with // audit: address-stable(<reason>)"))
        return findings

    # -- AUD-D3 --

    def _d3_banned_sources(self, rel, tokens):
        findings = []
        aliases = self.clock_aliases.get(rel, set())
        n = len(tokens)
        for i in range(n):
            t, line = tokens[i]
            nxt = tokens[i + 1][0] if i + 1 < n else ""
            prev = tokens[i - 1][0] if i > 0 else ";"
            if t == "random_device" and prev == "::":
                findings.append(Finding(
                    "AUD-D3", rel, line,
                    "std::random_device in decision-path code: "
                    "hardware entropy breaks seeded replay; draw from "
                    "mwp::Rng", tag="rng-engine-ok"))
            elif RNG_ENGINE.fullmatch(t) and prev == "::" and i >= 2 \
                    and tokens[i - 2][0] == "std":
                findings.append(Finding(
                    "AUD-D3", rel, line,
                    f"raw standard engine std::{t} outside mwp::Rng breaks "
                    "seeded reproducibility; draw from mwp::Rng",
                    tag="rng-engine-ok"))
            elif t in {"rand", "srand"} and nxt == "(" and prev not in {
                    ".", "->", "::"}:
                findings.append(Finding(
                    "AUD-D3", rel, line,
                    f"{t}() in decision-path code breaks seeded replay; "
                    "draw from mwp::Rng", tag="rng-engine-ok"))
            elif t == "time" and nxt == "(" and prev not in {".", "->", "::"} \
                    and i + 2 < n and tokens[i + 2][0] in {"nullptr", "NULL", "0"}:
                findings.append(Finding(
                    "AUD-D3", rel, line,
                    "time(nullptr) in decision-path code breaks seeded "
                    "replay; draw from mwp::Rng", tag="rng-engine-ok"))
            elif t in CLOCK_NAMES or (
                    t == "now" and nxt == "(" and prev == "::" and i >= 2
                    and tokens[i - 2][0] in aliases):
                what = f"'{t}'" if t in CLOCK_NAMES else \
                    f"'{tokens[i - 2][0]}::now()'"
                findings.append(Finding(
                    "AUD-D3", rel, line,
                    f"wall clock {what}: results would depend on the host; "
                    "simulated time only, or time host work with "
                    "obs::Stopwatch (obs/stopwatch.h)"))
        return findings

    # -- AUD-D4 --

    def _d4_parallel_reductions(self, rel, tokens):
        findings = []
        n = len(tokens)
        # File-local named lambdas: `auto name = [...] ... { body }`.
        local_lambdas = {}
        for i in range(n - 3):
            if tokens[i][0] == "auto" and tokens[i + 2][0] == "=" \
                    and tokens[i + 3][0] == "[":
                cap_end = match_group(tokens, i + 3, "[", "]")
                j = cap_end
                params = []
                if j < n and tokens[j][0] == "(":
                    p_end = match_group(tokens, j, "(", ")")
                    params = [t for t, _ in tokens[j + 1:p_end - 1]
                              if re.match(r"[A-Za-z_]\w*$", t)]
                    j = p_end
                while j < n and tokens[j][0] not in {"{", ";"}:
                    j += 1
                if j < n and tokens[j][0] == "{":
                    local_lambdas[tokens[i + 1][0]] = (
                        params, j + 1, match_group(tokens, j, "{", "}") - 1)
        i = 0
        while i < n:
            t, _ = tokens[i]
            if t in PARALLEL_ENTRY_CALLS and i + 1 < n \
                    and tokens[i + 1][0] == "(":
                # Declarations/definitions of ParallelFor itself are
                # harmless here: a parameter list contains no lambda body,
                # so _lambda_bodies yields nothing for them.
                arg_end = match_group(tokens, i + 1, "(", ")")
                bodies = self._lambda_bodies(tokens, i + 2, arg_end - 1)
                seen_ranges = set()
                for params, b_start, b_end in bodies:
                    self._scan_parallel_body(
                        rel, tokens, params, b_start, b_end, local_lambdas,
                        seen_ranges, findings, hop=0)
                i = arg_end
                continue
            i += 1
        return findings

    @staticmethod
    def _lambda_bodies(tokens, start, end):
        """(param_names, body_start, body_end) for each lambda literal in
        tokens[start:end]."""
        bodies = []
        j = start
        while j < end:
            if tokens[j][0] == "[":
                cap_end = match_group(tokens, j, "[", "]")
                k = cap_end
                params = []
                if k < end and tokens[k][0] == "(":
                    p_end = match_group(tokens, k, "(", ")")
                    params = [t for t, _ in tokens[k + 1:p_end - 1]
                              if re.match(r"[A-Za-z_]\w*$", t)]
                    k = p_end
                while k < end and tokens[k][0] not in {"{", ",", ";"}:
                    k += 1
                if k < end and tokens[k][0] == "{":
                    b_end = match_group(tokens, k, "{", "}")
                    bodies.append((params, k + 1, b_end - 1))
                    j = b_end
                    continue
            j += 1
        return bodies

    def _scan_parallel_body(self, rel, tokens, params, start, end,
                            local_lambdas, seen_ranges, findings, hop):
        if (start, end) in seen_ranges or hop > 2:
            return
        seen_ranges.add((start, end))
        locals_here = self._body_locals(tokens, start, end) | set(params)
        for k in range(start, end):
            t, line = tokens[k]
            if t in COMPOUND_ASSIGN:
                root = self._lhs_root(tokens, start, k)
                if root and root not in locals_here:
                    findings.append(Finding(
                        "AUD-D4", rel, line,
                        f"compound assignment to captured '{root}' inside a "
                        "parallel lane: either a data race or an "
                        "order-dependent reduction (FP addition is not "
                        "associative); write per-index slots and reduce in "
                        "index order, or justify with "
                        "// audit: order-fixed(<reason>)"))
            # One hop through file-local lambdas invoked from the lane.
            if t in local_lambdas and k + 1 <= end \
                    and tokens[k + 1][0] == "(":
                lb_params, lb_start, lb_end = local_lambdas[t]
                self._scan_parallel_body(rel, tokens, lb_params, lb_start,
                                         lb_end, local_lambdas, seen_ranges,
                                         findings, hop + 1)

    @staticmethod
    def _body_locals(tokens, start, end):
        """Identifiers declared inside a lambda body (approximate: enough to
        separate captured state from lane-local scratch)."""
        names = set()
        stmt_start = True
        k = start
        while k < end:
            t = tokens[k][0]
            if t in {";", "{", "}"}:
                stmt_start = True
                k += 1
                continue
            if stmt_start:
                j = k
                while j < end and tokens[j][0] in {
                        "const", "auto", "static", "constexpr", "unsigned",
                        "int", "long", "double", "float", "bool", "char",
                        "std", "::", "&", "*"} or (
                            j < end and tokens[j][0] == "<"):
                    if tokens[j][0] == "<":
                        nj = skip_template_group(tokens, j)
                        if nj == j:
                            break
                        j = nj
                        continue
                    j += 1
                # A declaration if what follows is `name =`, `name{`, `name;`
                # or `name :` (range-for variable).
                if j < end and j > k and re.match(r"[A-Za-z_]\w*$", tokens[j][0]):
                    nxt = tokens[j + 1][0] if j + 1 < end else ";"
                    if nxt in {"=", "{", ";", ":", ","}:
                        names.add(tokens[j][0])
                # Plain `Type name` where Type is a project identifier.
                if j == k and j + 1 < end \
                        and re.match(r"[A-Za-z_]\w*$", tokens[j][0]) \
                        and re.match(r"[A-Za-z_]\w*$", tokens[j + 1][0]):
                    nxt2 = tokens[j + 2][0] if j + 2 < end else ";"
                    if nxt2 in {"=", "{", ";"}:
                        names.add(tokens[j + 1][0])
                stmt_start = False
            # for-loop induction variables.
            if t == "for" and k + 1 < end and tokens[k + 1][0] == "(":
                pend = match_group(tokens, k + 1, "(", ")")
                for j in range(k + 2, min(pend, end)):
                    if tokens[j][0] in {"=", ":"} and j - 1 > k + 1 \
                            and re.match(r"[A-Za-z_]\w*$", tokens[j - 1][0]):
                        names.add(tokens[j - 1][0])
                        break
            k += 1
        return names

    @staticmethod
    def _lhs_root(tokens, start, k):
        """Root identifier of the lvalue chain ending just before tokens[k]
        (e.g. `out.cell[ i ] +=` -> out)."""
        j = k - 1
        # Walk back over `]...[`, `)`, names, `.`/`->`/`::` chains.
        while j >= start:
            t = tokens[j][0]
            if t == "]":
                depth = 0
                while j >= start:
                    if tokens[j][0] == "]":
                        depth += 1
                    elif tokens[j][0] == "[":
                        depth -= 1
                        if depth == 0:
                            break
                    j -= 1
                j -= 1
                continue
            if re.match(r"[A-Za-z_]\w*$", t):
                prev = tokens[j - 1][0] if j - 1 >= start else ";"
                if prev in {".", "->", "::"}:
                    j -= 2
                    continue
                return t
            return ""
        return ""

    # -- AUD-L1 --

    ATTR_MACROS = {"MWP_GUARDED_BY", "MWP_PT_GUARDED_BY", "MWP_ACQUIRED_BEFORE",
                   "GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_BEFORE",
                   "MWP_CAPABILITY", "alignas"}
    L1_EXEMPT_TYPES = {"Mutex", "mutex", "condition_variable",
                       "condition_variable_any", "atomic", "atomic_flag",
                       "jthread", "thread", "stop_token", "stop_source"}

    def _l1_guarded_by(self, rel, tokens):
        findings = []
        for cls_name, body_start, body_end in self._class_bodies(tokens):
            stmts = self._class_member_stmts(tokens, body_start, body_end)
            members = []
            has_mutex = False
            for stmt in stmts:
                info = self._classify_member(stmt)
                if info is None:
                    continue
                members.append(info)
                if info["kind"] == "mutex":
                    has_mutex = True
            if not has_mutex:
                continue
            for info in members:
                if info["kind"] == "plain" and not info["guarded"]:
                    findings.append(Finding(
                        "AUD-L1", rel, info["line"],
                        f"'{cls_name}::{info['name']}' is mutable state "
                        "co-located with a Mutex but names no guard: add "
                        "MWP_GUARDED_BY(<mu>) (or MWP_PT_GUARDED_BY), make "
                        "it const/atomic, or justify with "
                        "// audit: not-guarded(<reason>)"))
        return findings

    @staticmethod
    def _class_bodies(tokens):
        """Yields (name, body_start, body_end) for every class/struct
        definition, including nested ones."""
        out = []
        n = len(tokens)
        i = 0
        while i < n:
            if tokens[i][0] in {"class", "struct"}:
                if i > 0 and tokens[i - 1][0] == "enum":
                    i += 1
                    continue
                # Find the body '{' before any ';' (else forward decl).
                j = i + 1
                name = ""
                while j < n and tokens[j][0] not in {"{", ";"}:
                    if not name and re.match(r"[A-Za-z_]\w*$", tokens[j][0]) \
                            and tokens[j][0] not in {"final", "alignas"}:
                        # skip macro attribute arg lists
                        if j + 1 < n and tokens[j + 1][0] == "(":
                            j = match_group(tokens, j + 1, "(", ")")
                            continue
                        name = tokens[j][0]
                    j += 1
                if j < n and tokens[j][0] == "{" and name:
                    body_end = match_group(tokens, j, "{", "}")
                    out.append((name, j + 1, body_end - 1))
                i = j
            i += 1
        return out

    @staticmethod
    def _class_member_stmts(tokens, start, end):
        """Statements at depth 1 of a class body; method bodies and nested
        type bodies are skipped whole."""
        stmts = []
        cur = []
        k = start
        while k < end:
            t, line = tokens[k]
            if t == "{":
                k2 = match_group(tokens, k, "{", "}")
                if cur and cur[-1][0] == "=":
                    k = k2  # `= { ... }` initializer; statement runs to ';'
                    continue
                if k2 < end and tokens[k2][0] == ";" and cur:
                    # Brace-initialized member (`std::atomic<bool> x_{false};`)
                    # or a nested type body — classify_member sorts them out.
                    stmts.append(cur)
                    cur = []
                    k = k2 + 1
                    continue
                # Method body: discard the signature.
                k = k2
                if k < end and tokens[k][0] == ";":
                    k += 1
                cur = []
                continue
            if t == ";":
                if cur:
                    stmts.append(cur)
                cur = []
                k += 1
                continue
            if t in {"public", "private", "protected"} and k + 1 < end \
                    and tokens[k + 1][0] == ":":
                cur = []
                k += 2
                continue
            cur.append((t, line))
            k += 1
        if cur:
            stmts.append(cur)
        return stmts

    @classmethod
    def _classify_member(cls, stmt):
        """None for non-members (methods, usings, friends); else a dict with
        name/line/kind(guarded|mutex|exempt|plain)/guarded."""
        if not stmt:
            return None
        head = stmt[0][0]
        if head in {"using", "typedef", "friend", "static_assert", "template",
                    "enum", "class", "struct", "explicit", "virtual",
                    "operator", "MWP_REQUIRES", "MWP_EXCLUDES"}:
            return None
        texts = [t for t, _ in stmt]
        guarded = any(t in {"MWP_GUARDED_BY", "MWP_PT_GUARDED_BY",
                            "GUARDED_BY", "PT_GUARDED_BY"} for t in texts)
        # Strip attribute macros + their argument groups, then template
        # groups, to expose the declaration's skeleton.
        flat = []
        k = 0
        while k < len(stmt):
            t, line = stmt[k]
            if t in cls.ATTR_MACROS and k + 1 < len(stmt) \
                    and stmt[k + 1][0] == "(":
                k = match_group(stmt, k + 1, "(", ")")
                continue
            if t == "<":
                nk = skip_template_group(stmt, k)
                if nk != k:
                    k = nk
                    continue
            flat.append((t, line))
            k += 1
        texts_flat = [t for t, _ in flat]
        if not texts_flat:
            return None
        # Method / constructor: a top-level paren group before any '='.
        eq = texts_flat.index("=") if "=" in texts_flat else len(texts_flat)
        if "(" in texts_flat and texts_flat.index("(") < eq:
            return None
        if "operator" in texts_flat:
            return None
        # Member name: last identifier before '=', '[' or end.
        stop = len(flat)
        for marker in ("=", "["):
            if marker in texts_flat:
                stop = min(stop, texts_flat.index(marker))
        name, line = "", flat[0][1]
        for t, ln in flat[:stop]:
            if re.match(r"[A-Za-z_]\w*$", t):
                name, line = t, ln
        if not name or name in {"const", "mutable", "static"}:
            return None
        type_tokens = [t for t, _ in flat[:stop]][:-1] if stop else []
        kind = "plain"
        if any(t in {"Mutex"} for t in type_tokens) or (
                "mutex" in type_tokens):
            kind = "mutex"
        elif any(t in cls.L1_EXEMPT_TYPES for t in type_tokens):
            kind = "exempt"
        elif "static" in type_tokens or "constexpr" in type_tokens \
                or "constinit" in type_tokens:
            kind = "exempt"
        elif "const" in type_tokens and "*" not in type_tokens \
                and "&" not in type_tokens:
            kind = "exempt"  # immutable by construction
        if guarded:
            kind = "guarded" if kind == "plain" else kind
        return {"name": name, "line": line, "kind": kind, "guarded": guarded}

    # -- AUD-L2 --

    def _l2_lock_facts(self, rel, tokens):
        """Observed nesting edges from MutexLock scopes and declared
        MWP_ACQUIRED_BEFORE edges. Mutex identity is qualified by the
        innermost class (or the defining class of an out-of-line method),
        falling back to the file stem."""
        observed = []
        declared = []
        n = len(tokens)

        # Declared edges: `Mutex a_ MWP_ACQUIRED_BEFORE(b_);` inside class
        # bodies.
        for cls_name, b_start, b_end in self._class_bodies(tokens):
            for stmt in self._class_member_stmts(tokens, b_start, b_end):
                texts = [t for t, _ in stmt]
                if "MWP_ACQUIRED_BEFORE" not in texts and \
                        "ACQUIRED_BEFORE" not in texts:
                    continue
                if "Mutex" not in texts and "mutex" not in texts:
                    continue
                mk = next(i for i, t in enumerate(texts)
                          if t in {"MWP_ACQUIRED_BEFORE", "ACQUIRED_BEFORE"})
                if mk + 1 >= len(stmt) or stmt[mk + 1][0] != "(":
                    continue
                # Declared mutex name: last ident before the macro.
                name = ""
                for t, _ in stmt[:mk]:
                    if re.match(r"[A-Za-z_]\w*$", t) and t not in {
                            "Mutex", "mutable", "const", "std", "mutex"}:
                        name = t
                close = match_group(stmt, mk + 1, "(", ")")
                succ = [t for t, _ in stmt[mk + 2:close - 1]
                        if re.match(r"[A-Za-z_]\w*$", t)]
                for s in succ:
                    declared.append(((cls_name, name), (cls_name, s),
                                     rel, stmt[mk][1]))

        # Observed nesting: walk brace scopes tracking class context and
        # active MutexLock holds.
        scope_stack = []  # (kind, name)
        active_locks = []  # (depth, node, line)
        depth = 0
        i = 0
        while i < n:
            t, line = tokens[i]
            if t == "{":
                kind, name = self._scope_kind(tokens, i)
                scope_stack.append((kind, name))
                depth += 1
            elif t == "}":
                depth -= 1
                if scope_stack:
                    scope_stack.pop()
                active_locks = [l for l in active_locks if l[0] <= depth]
            elif t == "MutexLock" and i + 2 < n \
                    and re.match(r"[A-Za-z_]\w*$", tokens[i + 1][0]) \
                    and tokens[i + 2][0] in {"(", "{"}:
                closer = ")" if tokens[i + 2][0] == "(" else "}"
                end = match_group(tokens, i + 2, tokens[i + 2][0], closer)
                expr = [tok for tok, _ in tokens[i + 3:end - 1]]
                mutex = self._normalize_mutex(expr)
                if mutex:
                    ctx = self._lock_context(scope_stack, rel)
                    node = (ctx, mutex)
                    for _, held, _ in active_locks:
                        if held != node:
                            observed.append((held, node, rel, line))
                    active_locks.append((depth, node, line))
                i = end
                continue
            i += 1
        return observed, declared

    @staticmethod
    def _normalize_mutex(expr_tokens):
        toks = [t for t in expr_tokens if t not in {"*", "&", "this", "->", "."}]
        return toks[-1] if toks and re.match(r"[A-Za-z_]\w*$", toks[-1]) else ""

    @staticmethod
    def _scope_kind(tokens, i):
        """Classify the '{' at tokens[i] by looking back."""
        j = i - 1
        # Skip over initializer lists / qualifiers back to ')' or a keyword.
        guard = 0
        while j >= 0 and guard < 64:
            t = tokens[j][0]
            if t in {";", "{", "}"}:
                return ("block", "")
            if t in {"class", "struct"}:
                name = tokens[j + 1][0] if j + 1 < len(tokens) else ""
                return ("class", name)
            if t == "namespace":
                return ("namespace", "")
            if t == ")":
                # Function-ish: find name before the matching '('.
                depth = 0
                k = j
                while k >= 0:
                    if tokens[k][0] == ")":
                        depth += 1
                    elif tokens[k][0] == "(":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                if k > 1 and tokens[k - 1][0] != "]" and \
                        re.match(r"[A-Za-z_]\w*$", tokens[k - 1][0]):
                    # Out-of-line `Class::Method`?
                    if k - 3 >= 0 and tokens[k - 2][0] == "::" and \
                            re.match(r"[A-Za-z_]\w*$", tokens[k - 3][0]):
                        return ("func", tokens[k - 3][0])
                    return ("func", "")
                return ("func", "")  # lambda or operator
            j -= 1
            guard += 1
        return ("block", "")

    @staticmethod
    def _lock_context(scope_stack, rel):
        # The class owning the mutex is the context: methods of one class
        # must share a node so cross-method edges close cycles. Inline
        # methods sit above their class frame; out-of-line definitions get
        # the class name recorded on the func frame (`Cls::Method`).
        for kind, name in reversed(scope_stack):
            if kind == "class" and name:
                return name
        for kind, name in reversed(scope_stack):
            if kind == "func" and name:
                return name
        return Path(rel).stem


# --- allowlist + graph evaluation -------------------------------------------

def detect_cycles(edges):
    """Edges: list of (from_node, to_node, file, line). Returns list of
    cycles, each a list of edge tuples forming the loop."""
    graph = {}
    for e in edges:
        graph.setdefault(e[0], []).append(e)
    cycles = []
    seen_cycles = set()
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {}
    stack = []

    def dfs(node):
        color[node] = GRAY
        for edge in graph.get(node, ()):  # deterministic: insertion order
            nxt = edge[1]
            if color.get(nxt, WHITE) == WHITE:
                stack.append(edge)
                dfs(nxt)
                stack.pop()
            elif color.get(nxt) == GRAY:
                # Back edge closes a cycle.
                cyc = [edge]
                for e in reversed(stack):
                    cyc.append(e)
                    if e[0] == nxt:
                        break
                cyc.reverse()
                key = frozenset((e[0], e[1]) for e in cyc)
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(cyc)
        color[node] = BLACK

    for node in list(graph):
        if color.get(node, WHITE) == WHITE:
            dfs(node)
    return cycles


def apply_allowlist(findings, annotations, observed_edges, declared_edges):
    """Marks findings allowlisted by matching annotations, converts lock
    edges into AUD-L2 cycle findings (suppressible per edge), and appends
    AUD900/AUD901 findings for stale or malformed annotations."""
    by_file = {}
    for a in annotations:
        by_file.setdefault(a.file, []).append(a)

    def annotation_for(tag, file, line):
        for a in by_file.get(file, ()):  # few per file
            if a.tag == tag and line in a.targets:
                return a
        return None

    for f in findings:
        if f.tag is None:
            continue
        a = annotation_for(f.tag, f.file, f.line)
        if a is not None and a.reason:
            f.allowlisted = True
            f.reason = a.reason
            a.used = True

    # Lock-order cycles over observed + declared edges; an edge whose
    # acquisition line carries lock-order-ok is removed (annotation counts
    # as used only when it actually breaks a cycle).
    all_edges = observed_edges + declared_edges
    cycles = detect_cycles(all_edges)
    for cyc in cycles:
        suppressed = None
        for edge in cyc:
            a = annotation_for("lock-order-ok", edge[2], edge[3])
            if a is not None and a.reason:
                suppressed = (edge, a)
                break
        frm, to, file, line = cyc[0]
        path = " -> ".join(f"{n[0]}::{n[1]}" for n, _, _, _ in
                           [(e[0], None, None, None) for e in cyc])
        path += f" -> {cyc[-1][1][0]}::{cyc[-1][1][1]}"
        f = Finding("AUD-L2", file, line,
                    f"lock-order cycle: {path}; acquire in one global order "
                    "or justify the reversed edge with "
                    "// audit: lock-order-ok(<reason>)")
        if suppressed is not None:
            f.allowlisted = True
            f.reason = suppressed[1].reason
            suppressed[1].used = True
        findings.append(f)

    # Stale / malformed annotations.
    for a in annotations:
        if a.tag not in AUDIT_TAGS:
            findings.append(Finding(
                "AUD901", a.file, a.line,
                f"unknown audit tag '{a.tag}' (valid: "
                f"{', '.join(sorted(AUDIT_TAGS))})"))
        elif not a.reason:
            findings.append(Finding(
                "AUD901", a.file, a.line,
                f"audit tag '{a.tag}' has an empty reason; justify or drop"))
        elif not a.used:
            findings.append(Finding(
                "AUD900", a.file, a.line,
                f"stale allowlist entry 'audit: {a.tag}(...)': it no longer "
                "suppresses any finding — delete it (allowlists must shrink "
                "with the code)"))
    return findings


# --- driver -----------------------------------------------------------------

def collect_files(root: Path, dirs=AUDIT_DIRS) -> list[Path]:
    files = []
    for top in dirs:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                files.append(path)
    return files


def audit(root: Path, files: list[Path]):
    """Findings for `files` (paths under `root`) after allowlist
    application, sorted by file, line and rule."""
    findings = apply_allowlist(*Auditor(root, files).run())
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


def write_json(path: Path, root: Path, findings):
    doc = {
        "schema": 1,
        "tool": "determinism_audit",
        "root": str(root),
        "findings": [
            {"rule": f.rule, "file": f.file, "line": f.line,
             "message": f.message, "allowlisted": f.allowlisted,
             "reason": f.reason}
            for f in findings
        ],
        "summary": {
            "total": len(findings),
            "allowlisted": sum(1 for f in findings if f.allowlisted),
            "violations": sum(1 for f in findings if not f.allowlisted),
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def run_self_test(script_dir: Path) -> int:
    corpus = script_dir / "corpus"
    golden_path = corpus / "expected_findings.json"
    if not corpus.is_dir() or not golden_path.is_file():
        print(f"self-test: corpus missing under {corpus}", file=sys.stderr)
        return 1
    files = collect_files(corpus, dirs=(".",))
    findings = audit(corpus, files)
    got = sorted([f.rule, f.file, f.line, f.allowlisted] for f in findings)
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    want = sorted([g["rule"], g["file"], g["line"], g["allowlisted"]]
                  for g in golden["findings"])
    failures = 0
    if got != want:
        failures += 1
        print("self-test FAILED: corpus findings diverge from golden",
              file=sys.stderr)
        for row in got:
            if row not in want:
                print(f"  unexpected: {row}", file=sys.stderr)
        for row in want:
            if row not in got:
                print(f"  missing:    {row}", file=sys.stderr)
    # Every rule id must fire at least once as a non-allowlisted positive,
    # and every audit tag must excuse at least one finding — a silently
    # dead rule or tag cannot keep the gate green.
    for rule, tags in RULES.items():
        if not any(f.rule == rule and not f.allowlisted for f in findings):
            failures += 1
            print(f"self-test FAILED: no seeded positive for {rule}",
                  file=sys.stderr)
        for tag in tags:
            if not any(f.rule == rule and f.tag == tag and f.allowlisted
                       for f in findings):
                failures += 1
                print(f"self-test FAILED: no allowlisted negative for {rule} "
                      f"({tag})", file=sys.stderr)
    if failures:
        return 1
    n_pos = sum(1 for f in findings if not f.allowlisted)
    n_neg = sum(1 for f in findings if f.allowlisted)
    print(f"determinism_audit self-test: all {len(RULES)} rule ids fire "
          f"({n_pos} positives, {n_neg} allowlisted negatives over "
          f"{len(AUDIT_TAGS)} tags)")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--json", type=Path, default=None,
                        help="write machine-readable findings to this path")
    parser.add_argument("--self-test", action="store_true",
                        help="audit the seeded-violation corpus and compare "
                             "against the golden JSON")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test(Path(__file__).resolve().parent)

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"error: {root} does not look like the repo root",
              file=sys.stderr)
        return 2

    files = collect_files(root)
    findings = audit(root, files)
    if args.json is not None:
        write_json(args.json, root, findings)

    violations = [f for f in findings if not f.allowlisted]
    allowlisted = [f for f in findings if f.allowlisted]
    for f in findings:
        print(f)
    print(f"determinism_audit: {len(files)} files, "
          f"{len(violations)} violation(s), {len(allowlisted)} allowlisted",
          file=sys.stderr if violations else sys.stdout)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
