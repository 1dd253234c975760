#!/usr/bin/env python3
"""Repo-specific determinism lint for the sper codebase.

The library's core contract is that emitted comparison streams are
bit-identical at every thread count, shard count and lookahead setting
(README "Determinism"). Most violations of that contract come from a
handful of well-known C++ patterns, so this lint bans them outright in
src/:

  DET001 unordered-iteration  Iterating a std::unordered_map/set (range-
                              for or explicit .begin()) lets hash order
                              reach downstream state. Sites that provably
                              re-sort afterwards are allowlisted in
                              tools/determinism_allowlist.txt.
  DET002 banned-random        rand()/srand()/std::random_device/time()/
                              clock(), also as std::time() or ::time():
                              nondeterministic or hidden-state randomness.
                              Seeded std::mt19937 is fine.
  DET003 raw-clock            Naming std::chrono clocks outside
                              obs/clock.h; all timing flows through
                              obs::Stopwatch so tests can reason about
                              one clock.
  DET004 bare-throw           `throw` in producer-thread code (parallel/,
                              progressive/, engine/): producer failures
                              must be contained (sticky Status / pipeline
                              error slots), not thrown across threads.
  DET005 banned-strtod        atof/atoi/atol/atoll, also as std::atoi() or
                              ::atoi(): locale-sensitive and error-silent
                              number parsing.
  DET006 banned-identifier    Identifiers removed from the library must
                              not reappear: the old engine options and
                              init-stats shims (EngineOptions,
                              ShardedEngineOptions, MakeEmitter,
                              EngineInitStats, ShardedInitStats), the
                              duplicate configuration and request layers
                              (EngineConfig, ToEngineConfig, MethodConfig,
                              ToResolverOptions, ResolverSession,
                              OpenSession), the engine base class folded
                              into Engine (BudgetedEngine) and the work-
                              queue pool that ParallelForRanges replaced
                              (ThreadPool). Each message names the
                              replacement.

Comments and string/char literals are stripped (line numbers preserved)
before matching, so prose mentioning a banned name never trips the lint.

Allowlist format (tools/determinism_allowlist.txt): one
`path|RULE|justification` per line; `path` is repo-relative, `#` starts
a comment. An entry suppresses that rule for that file and is itself
flagged when it no longer matches anything (stale entries rot).

Exit status: 0 clean, 1 violations, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

SRC_EXTENSIONS = (".h", ".cc")

# Directories scanned, relative to the repo root.
SCAN_DIRS = ("src", "tools")

# DET004 applies only where code runs on producer/worker threads.
PRODUCER_DIRS = ("src/parallel", "src/progressive", "src/engine")

# The one file allowed to name raw std::chrono clocks (DET003).
CLOCK_HOME = "src/obs/clock.h"

UNORDERED_TYPES = ("unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset")

# Accessors known to return a reference to an unordered container
# (e.g. GroundTruth::pairs() returns the match-pair hash set).
UNORDERED_ACCESSORS = ("pairs",)

BANNED_RANDOM = ("rand", "srand", "random_device", "time", "clock")
BANNED_STRTOD = ("atof", "atoi", "atol", "atoll")
# Removed identifier -> what replaced it.
BANNED_IDENTIFIERS = {
    "EngineOptions": "ResolverOptions",
    "ShardedEngineOptions": "ResolverOptions",
    "MakeEmitter": "MakeResolver(dataset, options)",
    "EngineInitStats": "InitStats",
    "ShardedInitStats": "InitStats",
    "EngineConfig": "ResolverOptions",
    "ToEngineConfig": "ResolverOptions",
    "MethodConfig": "ResolverOptions",
    "ToResolverOptions": "ResolverOptions",
    "ResolverSession": "Resolver::Serve",
    "OpenSession": "Resolver::Serve",
    "BudgetedEngine": "Engine",
    "ThreadPool": "ParallelForRanges",
}


def call_pattern(name: str) -> str:
    """A call of `name` unqualified, as std::name or as ::name.

    Member calls (obj.name(), p->name()) and other qualifiers
    (my::name(), std::chrono::...::name()) do not match.
    """
    return r"(?<![\w.>:])(?:std::|::)?%s\s*\(" % name


@dataclass
class Violation:
    path: str  # repo-relative
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Allowlist:
    # (path, rule) -> justification
    entries: dict = field(default_factory=dict)
    used: set = field(default_factory=set)

    @classmethod
    def load(cls, path: str) -> "Allowlist":
        allow = cls()
        if not os.path.exists(path):
            return allow
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split("|", 2)
                if len(parts) != 3 or not parts[2].strip():
                    raise ValueError(
                        f"{path}:{lineno}: allowlist entries are "
                        f"'path|RULE|justification', got: {line}")
                allow.entries[(parts[0].strip(), parts[1].strip())] = \
                    parts[2].strip()
        return allow

    def suppresses(self, path: str, rule: str) -> bool:
        if (path, rule) in self.entries:
            self.used.add((path, rule))
            return True
        return False

    def stale(self):
        return sorted(set(self.entries) - self.used)


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines.

    A line-number-faithful scanner: every replaced character becomes a
    space (newlines inside block comments and raw strings survive), so
    regex matches on the result report correct line numbers.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":  # line comment
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":  # block comment
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "R" and nxt == '"':  # raw string literal
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                end = text.find(closer, i + m.end())
                end = (end + len(closer)) if end != -1 else n
                out.extend("\n" if ch == "\n" else " " for ch in text[i:end])
                i = end
            else:
                out.append(c)
                i += 1
        elif c in "\"'":  # string or char literal
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def collect_unordered_aliases(files: dict) -> set:
    """Typedef/using names that resolve to an unordered container.

    One global pass (aliases often live in headers used elsewhere):
    matches `using X = ...unordered_map<...>;` and
    `typedef ...unordered_set<...> X;`.
    """
    aliases = set()
    unordered_re = "|".join(UNORDERED_TYPES)
    using_re = re.compile(
        r"\busing\s+(\w+)\s*=\s*[^;]*\b(?:%s)\b" % unordered_re)
    typedef_re = re.compile(
        r"\btypedef\s+[^;]*\b(?:%s)\b[^;]*?(\w+)\s*;" % unordered_re)
    for text in files.values():
        for m in using_re.finditer(text):
            aliases.add(m.group(1))
        for m in typedef_re.finditer(text):
            aliases.add(m.group(1))
    return aliases


def find_unordered_variables(text: str, aliases: set) -> set:
    """Names of variables/members declared with an unordered type."""
    names = set()
    type_names = list(UNORDERED_TYPES) + sorted(aliases)
    # `std::unordered_map<K, V<W>> name` — balance nested angle brackets,
    # then take the declarator. Also matches angle-free alias declarations
    # (`PostingsMap shard;`) and reference/pointer declarators.
    for type_name in type_names:
        for m in re.finditer(r"\b%s\b" % re.escape(type_name), text):
            i = m.end()
            while i < len(text) and text[i].isspace():
                i += 1
            if i < len(text) and text[i] == "<":
                depth = 1
                i += 1
                while i < len(text) and depth > 0:
                    if text[i] == "<":
                        depth += 1
                    elif text[i] == ">":
                        depth -= 1
                    i += 1
            decl = re.match(r"\s*[&*]*\s*(\w+)\s*(?:;|=|\{|\(|SPER_)",
                            text[i:i + 200])
            if decl and decl.group(1) not in ("const", "return"):
                names.add(decl.group(1))
    return names


def check_unordered_iteration(path: str, text: str, aliases: set):
    """DET001: iteration over an unordered container."""
    violations = []
    tracked = find_unordered_variables(text, aliases)

    # Range-for directly over a tracked name or an unordered accessor:
    #   for (... : name) / for (... : obj.pairs())
    range_for = re.compile(r"for\s*\([^;()]*?:\s*([\w.\->]+(?:\(\))?)\s*\)")
    for m in range_for.finditer(text):
        target = m.group(1)
        base = target.split(".")[-1].split("->")[-1]
        if base.endswith("()"):
            if base[:-2] in UNORDERED_ACCESSORS:
                violations.append(Violation(
                    path, line_of(text, m.start()), "DET001",
                    f"range-for over unordered accessor '{target}': "
                    "hash order reaches downstream state; copy and sort"))
        elif base in tracked:
            violations.append(Violation(
                path, line_of(text, m.start()), "DET001",
                f"range-for over unordered container '{target}': "
                "hash order reaches downstream state; copy and sort"))

    # Explicit iterator walks: name.begin() / name.cbegin() / name.rbegin()
    for m in re.finditer(r"\b(\w+)\s*\.\s*c?r?begin\s*\(", text):
        if m.group(1) in tracked:
            violations.append(Violation(
                path, line_of(text, m.start()), "DET001",
                f"iterator over unordered container '{m.group(1)}': "
                "hash order reaches downstream state; copy and sort"))
    return violations


def check_banned_random(path: str, text: str):
    """DET002: nondeterministic randomness / wall-clock seeds."""
    violations = []
    for name in BANNED_RANDOM:
        # Function-call position only (see call_pattern);
        # std::chrono::...::clock is caught by DET003 instead.
        for m in re.finditer(call_pattern(name), text):
            violations.append(Violation(
                path, line_of(text, m.start()), "DET002",
                f"'{name}()' is nondeterministic; use a seeded std::mt19937 "
                "(randomness) or obs::Stopwatch (timing)"))
    for m in re.finditer(r"\brandom_device\b", text):
        violations.append(Violation(
            path, line_of(text, m.start()), "DET002",
            "'std::random_device' is nondeterministic; seed explicitly"))
    return violations


def check_raw_clock(path: str, text: str):
    """DET003: raw std::chrono clocks outside obs/clock.h."""
    if path == CLOCK_HOME:
        return []
    violations = []
    for m in re.finditer(r"\b(steady_clock|system_clock"
                         r"|high_resolution_clock)\b", text):
        violations.append(Violation(
            path, line_of(text, m.start()), "DET003",
            f"raw 'std::chrono::{m.group(1)}' outside {CLOCK_HOME}; "
            "use obs::Stopwatch::Clock"))
    return violations


def check_bare_throw(path: str, text: str):
    """DET004: `throw` in producer-thread code."""
    if not any(path.startswith(d + "/") or path == d
               for d in PRODUCER_DIRS):
        return []
    violations = []
    for m in re.finditer(r"\bthrow\b(?!\s*[;)])", text):
        violations.append(Violation(
            path, line_of(text, m.start()), "DET004",
            "bare 'throw' in producer-thread code; contain the failure "
            "(sticky Status / pipeline error slot) instead of throwing "
            "across threads"))
    # `throw;` (rethrow) and `throw)` (noexcept(false) spellings) are
    # excluded above: rethrow inside a catch block that immediately
    # contains is the containment idiom itself.
    return violations


def check_banned_strtod(path: str, text: str):
    """DET005: locale-sensitive, error-silent C number parsing."""
    violations = []
    for name in BANNED_STRTOD:
        for m in re.finditer(call_pattern(name), text):
            violations.append(Violation(
                path, line_of(text, m.start()), "DET005",
                f"'{name}()' is locale-sensitive and silently returns 0 on "
                "garbage; use std::from_chars or std::stoull"))
    return violations


def check_banned_identifiers(path: str, text: str):
    """DET006: identifiers deleted from the library must not come back."""
    violations = []
    for name, replacement in BANNED_IDENTIFIERS.items():
        for m in re.finditer(r"\b%s\b" % name, text):
            violations.append(Violation(
                path, line_of(text, m.start()), "DET006",
                f"'{name}' was removed; use {replacement}"))
    return violations


CHECKS = (check_banned_random, check_raw_clock, check_bare_throw,
          check_banned_strtod, check_banned_identifiers)


def lint_files(files: dict, allowlist: Allowlist):
    """files: repo-relative path -> raw text. Returns kept violations."""
    stripped = {path: strip_comments_and_strings(text)
                for path, text in files.items()}
    aliases = collect_unordered_aliases(stripped)
    violations = []
    for path in sorted(stripped):
        text = stripped[path]
        this_file = []
        this_file.extend(check_unordered_iteration(path, text, aliases))
        for check in CHECKS:
            this_file.extend(check(path, text))
        for v in this_file:
            if not allowlist.suppresses(v.path, v.rule):
                violations.append(v)
    for path, rule in allowlist.stale():
        violations.append(Violation(
            path, 1, "STALE",
            f"allowlist entry ({rule}) no longer matches anything; "
            "remove it"))
    return violations


def gather_files(root: str):
    files = {}
    for scan_dir in SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        if not os.path.isdir(base):
            continue
        for dirpath, _, filenames in os.walk(base):
            for name in sorted(filenames):
                if not name.endswith(SRC_EXTENSIONS):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                with open(full, encoding="utf-8") as f:
                    files[rel] = f.read()
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))),
        help="repo root (default: the directory above this script)")
    parser.add_argument(
        "--allowlist", default=None,
        help="allowlist path (default: tools/determinism_allowlist.txt "
             "under --root)")
    args = parser.parse_args(argv)

    allowlist_path = args.allowlist or os.path.join(
        args.root, "tools", "determinism_allowlist.txt")
    try:
        allowlist = Allowlist.load(allowlist_path)
    except ValueError as err:
        print(f"lint_determinism: {err}", file=sys.stderr)
        return 2

    files = gather_files(args.root)
    if not files:
        print(f"lint_determinism: no sources under {args.root}",
              file=sys.stderr)
        return 2

    violations = lint_files(files, allowlist)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_determinism: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print(f"lint_determinism: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
