#!/usr/bin/env python3
"""Unit tests for tools/lint_determinism.py.

Each rule gets a positive fixture (must flag) and a negative fixture
(must stay silent), plus tests for the comment/string stripper and the
allowlist (suppression and staleness). Run directly or via ctest:
    python3 tests/lint_determinism_test.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tools"))

import lint_determinism as lint  # noqa: E402


def run(files, allow_entries=None):
    allowlist = lint.Allowlist()
    if allow_entries:
        allowlist.entries.update(allow_entries)
    return lint.lint_files(files, allowlist)


def rules(violations):
    return [v.rule for v in violations]


class StripperTest(unittest.TestCase):
    def test_line_comments_are_blanked(self):
        out = lint.strip_comments_and_strings("int x;  // rand() here\n")
        self.assertNotIn("rand", out)
        self.assertIn("int x;", out)

    def test_block_comments_preserve_line_numbers(self):
        src = "a\n/* rand()\n   time() */\nb\n"
        out = lint.strip_comments_and_strings(src)
        self.assertEqual(out.count("\n"), src.count("\n"))
        self.assertNotIn("rand", out)
        self.assertEqual(out.splitlines()[3], "b")

    def test_string_literals_are_blanked(self):
        out = lint.strip_comments_and_strings(
            'const char* s = "steady_clock";\n')
        self.assertNotIn("steady_clock", out)

    def test_raw_strings_are_blanked(self):
        out = lint.strip_comments_and_strings(
            'auto j = R"({"rand": 1})"; int y;\n')
        self.assertNotIn("rand", out)
        self.assertIn("int y;", out)

    def test_escaped_quote_does_not_desync(self):
        out = lint.strip_comments_and_strings(
            'const char* s = "a\\"b"; rand();\n')
        self.assertIn("rand();", out)


class UnorderedIterationTest(unittest.TestCase):
    def test_flags_range_for_over_unordered_map(self):
        files = {"src/x/a.cc": """
            #include <unordered_map>
            void f() {
              std::unordered_map<int, int> m;
              for (const auto& [k, v] : m) { use(k, v); }
            }
        """}
        self.assertIn("DET001", rules(run(files)))

    def test_flags_explicit_begin_walk(self):
        files = {"src/x/a.cc": """
            std::unordered_set<int> s;
            void f() { for (auto it = s.begin(); it != s.end(); ++it) {} }
        """}
        self.assertIn("DET001", rules(run(files)))

    def test_flags_alias_declared_in_another_file(self):
        files = {
            "src/x/types.h": "using PostingsMap = "
                             "std::unordered_map<std::string, int>;\n",
            "src/x/b.cc": """
                PostingsMap shard;
                void f() { for (const auto& kv : shard) { use(kv); } }
            """,
        }
        self.assertIn("DET001", rules(run(files)))

    def test_flags_unordered_accessor_range_for(self):
        files = {"src/x/a.cc": """
            void f(const GroundTruth& truth) {
              for (std::uint64_t key : truth.pairs()) { write(key); }
            }
        """}
        self.assertIn("DET001", rules(run(files)))

    def test_silent_on_membership_only_use(self):
        files = {"src/x/a.cc": """
            std::unordered_set<std::uint64_t> seen;
            bool f(std::uint64_t k) { return seen.insert(k).second; }
        """}
        self.assertEqual(rules(run(files)), [])

    def test_silent_on_ordered_map_iteration(self):
        files = {"src/x/a.cc": """
            std::map<std::string, int> m;
            void f() { for (const auto& kv : m) { use(kv); } }
        """}
        self.assertEqual(rules(run(files)), [])

    def test_silent_on_vector_named_like_nothing_unordered(self):
        files = {"src/x/a.cc": """
            std::vector<int> keys;
            void f() { for (int k : keys) { use(k); } }
        """}
        self.assertEqual(rules(run(files)), [])


class BannedRandomTest(unittest.TestCase):
    def test_flags_rand_call(self):
        files = {"src/x/a.cc": "int f() { return rand(); }\n"}
        self.assertIn("DET002", rules(run(files)))

    def test_flags_time_null(self):
        files = {"src/x/a.cc": "long f() { return time(nullptr); }\n"}
        self.assertIn("DET002", rules(run(files)))

    def test_flags_random_device(self):
        files = {"src/x/a.cc":
                 "std::mt19937 g{std::random_device{}()};\n"}
        self.assertIn("DET002", rules(run(files)))

    def test_silent_on_seeded_mt19937(self):
        files = {"src/x/a.cc": "std::mt19937_64 gen(options.seed);\n"}
        self.assertEqual(rules(run(files)), [])

    def test_silent_on_members_named_time(self):
        files = {"src/x/a.cc":
                 "double f(const Span& s) { return s.time(); }\n"}
        self.assertEqual(rules(run(files)), [])

    def test_flags_std_and_global_spellings(self):
        for call in ("std::rand()", "std::time(nullptr)", "std::clock()",
                     "::rand()"):
            files = {"src/x/a.cc": "long f() { return %s; }\n" % call}
            self.assertIn("DET002", rules(run(files)), call)

    def test_silent_on_other_namespaces(self):
        files = {"src/x/a.cc": "int f() { return my::rand(); }\n"}
        self.assertEqual(rules(run(files)), [])


class RawClockTest(unittest.TestCase):
    def test_flags_steady_clock_outside_clock_home(self):
        files = {"src/parallel/a.h":
                 "using Clock = std::chrono::steady_clock;\n"}
        self.assertIn("DET003", rules(run(files)))

    def test_allows_clock_home_itself(self):
        files = {lint.CLOCK_HOME:
                 "using Clock = std::chrono::steady_clock;\n"}
        self.assertEqual(rules(run(files)), [])

    def test_silent_on_stopwatch_clock_alias(self):
        files = {"src/parallel/a.h":
                 "using Clock = obs::Stopwatch::Clock;\n"}
        self.assertEqual(rules(run(files)), [])

    def test_flags_raw_clock_in_serving_layer(self):
        # The QoS admission controller must take time from an injected
        # obs::ClockSource, never read a clock itself.
        files = {"src/serving/qos_helper.cc":
                 "auto t = std::chrono::steady_clock::now();\n"}
        self.assertIn("DET003", rules(run(files)))

    def test_silent_on_injected_clock_source_in_serving(self):
        files = {"src/serving/qos_helper.cc":
                 "const std::uint64_t now = clock_->NowNanos();\n"}
        self.assertEqual(rules(run(files)), [])


class BareThrowTest(unittest.TestCase):
    def test_flags_throw_in_producer_code(self):
        files = {"src/parallel/a.cc":
                 "void f() { throw std::runtime_error(\"x\"); }\n"}
        self.assertIn("DET004", rules(run(files)))

    def test_allows_rethrow(self):
        files = {"src/parallel/a.cc":
                 "void f() { try { g(); } catch (...) { throw; } }\n"}
        self.assertEqual(rules(run(files)), [])

    def test_silent_outside_producer_dirs(self):
        files = {"src/io/a.cc":
                 "void f() { throw std::runtime_error(\"x\"); }\n"}
        self.assertEqual(rules(run(files)), [])


class BannedStrtodTest(unittest.TestCase):
    def test_flags_atoi(self):
        files = {"src/x/a.cc": "int f(const char* s) { return atoi(s); }\n"}
        self.assertIn("DET005", rules(run(files)))

    def test_flags_std_and_global_spellings(self):
        for call in ("std::atoi(s)", "std::atof(s)", "::atol(s)"):
            files = {"src/x/a.cc":
                     "double f(const char* s) { return %s; }\n" % call}
            self.assertIn("DET005", rules(run(files)), call)

    def test_silent_on_from_chars(self):
        files = {"src/x/a.cc":
                 "auto r = std::from_chars(b, e, value);\n"}
        self.assertEqual(rules(run(files)), [])


class BannedIdentifierTest(unittest.TestCase):
    def test_flags_removed_struct_name(self):
        files = {"src/x/a.cc": "EngineOptions options;\n"}
        self.assertIn("DET006", rules(run(files)))

    def test_silent_when_name_only_in_comment(self):
        files = {"src/x/a.cc":
                 "// EngineOptions was removed in PR 8.\nint x;\n"}
        self.assertEqual(rules(run(files)), [])

    def test_flags_removed_config_and_session_names(self):
        for name in ("EngineConfig", "ToEngineConfig", "MethodConfig",
                     "ToResolverOptions", "ResolverSession", "OpenSession"):
            files = {"src/x/a.cc": "auto x = %s();\n" % name}
            self.assertIn("DET006", rules(run(files)), name)

    def test_flags_removed_engine_base_and_pool(self):
        for name, replacement in (("BudgetedEngine", "Engine"),
                                  ("ThreadPool", "ParallelForRanges")):
            files = {"src/x/a.cc": "%s* x = nullptr;\n" % name}
            out = run(files)
            self.assertEqual(rules(out), ["DET006"], name)
            self.assertIn("use " + replacement, out[0].message)

    def test_silent_on_new_names(self):
        files = {"src/x/a.cc":
                 "ResolverOptions options;\nInitStats stats;\n"}
        self.assertEqual(rules(run(files)), [])


class AllowlistTest(unittest.TestCase):
    BAD = {"src/x/a.cc": """
        std::unordered_map<int, int> m;
        void f() { for (const auto& kv : m) { use(kv); } }
    """}

    def test_entry_suppresses_matching_rule(self):
        out = run(self.BAD, {("src/x/a.cc", "DET001"): "re-sorted after"})
        self.assertEqual(rules(out), [])

    def test_entry_does_not_suppress_other_rules(self):
        files = dict(self.BAD)
        files["src/x/b.cc"] = "int f() { return rand(); }\n"
        out = run(files, {("src/x/a.cc", "DET001"): "re-sorted after"})
        self.assertEqual(rules(out), ["DET002"])

    def test_stale_entry_is_flagged(self):
        files = {"src/x/clean.cc": "int x;\n"}
        out = run(files, {("src/x/clean.cc", "DET001"): "obsolete"})
        self.assertEqual(rules(out), ["STALE"])

    def test_malformed_entry_rejected(self):
        import tempfile
        with tempfile.NamedTemporaryFile(
                "w", suffix=".txt", delete=False) as f:
            f.write("src/x/a.cc|DET001\n")  # missing justification
            path = f.name
        try:
            with self.assertRaises(ValueError):
                lint.Allowlist.load(path)
        finally:
            os.unlink(path)


class RepoIntegrationTest(unittest.TestCase):
    """The lint must be clean on the repo it ships in."""

    def test_repo_is_clean(self):
        root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir)
        self.assertEqual(lint.main(["--root", root]), 0)


if __name__ == "__main__":
    unittest.main()
