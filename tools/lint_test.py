#!/usr/bin/env python3
"""Unit tests for tools/lint.py — run directly or via ctest (lint_test).

Synthetic FileContexts exercise each rule pass in isolation; the final
test runs the full lint over the real tree and requires it to be clean,
so a rule regression and a repo violation both fail here first.
"""

from __future__ import annotations

import importlib.util
import sys
import tempfile
import unittest
from pathlib import Path

_LINT_PATH = Path(__file__).resolve().parent / "lint.py"
_SPEC = importlib.util.spec_from_file_location("faction_lint", _LINT_PATH)
lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint)


def ctx(text: str, rel: str = "src/core/fake_hot.cc") -> "lint.FileContext":
    return lint.FileContext(Path(rel), text)


def rules_of(findings: list) -> set:
    return {rule for _, _, rule, _ in findings}


class StripCommentsAndStrings(unittest.TestCase):
    def test_line_and_block_comments(self):
        out = lint.strip_comments_and_strings("int a; // new int\n/* delete x */ int b;\n")
        self.assertNotIn("new", out)
        self.assertNotIn("delete", out)
        self.assertIn("int a;", out)
        self.assertIn("int b;", out)

    def test_ordinary_strings_and_chars(self):
        out = lint.strip_comments_and_strings('auto s = "new int"; char c = \'x\';\n')
        self.assertNotIn("new", out)
        self.assertNotIn("x", out.split("=")[-1])

    def test_raw_string_literal(self):
        # The ( .. ) body must be blanked even across the quote characters
        # that would confuse the ordinary string state machine.
        src = 'auto j = R"({"key": "new int \\" delete"})"; int kept;\n'
        out = lint.strip_comments_and_strings(src)
        self.assertNotIn("new", out)
        self.assertNotIn("delete", out)
        self.assertIn("int kept;", out)

    def test_raw_string_with_delimiter(self):
        src = 'auto j = R"x(body with )" inside new)x"; int kept;\n'
        out = lint.strip_comments_and_strings(src)
        self.assertNotIn("new", out)
        self.assertIn("int kept;", out)

    def test_raw_string_preserves_line_count(self):
        src = 'auto j = R"(line1\nnew int\n)"; int kept;\n'
        out = lint.strip_comments_and_strings(src)
        self.assertEqual(src.count("\n"), out.count("\n"))
        self.assertNotIn("new", out)

    def test_identifier_ending_in_r_is_not_raw_string(self):
        out = lint.strip_comments_and_strings('auto s = var R; auto t = vaR"new";\n')
        # vaR"..." is an identifier followed by a normal string.
        self.assertNotIn("new", out)
        self.assertIn("var R;", out)


class CodeRules(unittest.TestCase):
    def run_rules(self, text: str, rel: str = "src/core/fake.cc") -> list:
        findings = []
        lint.check_code_rules(ctx(text, rel), findings)
        return findings

    def test_raw_new_flagged(self):
        self.assertIn("no-raw-new", rules_of(self.run_rules("int* p = new int;\n")))

    def test_new_in_string_not_flagged(self):
        self.assertEqual([], self.run_rules('auto s = "new";\n'))

    def test_alloc_audit_exempt_from_raw_new(self):
        findings = self.run_rules("void* operator new(std::size_t n);\n",
                                  rel="src/common/alloc_audit.cc")
        self.assertNotIn("no-raw-new", rules_of(findings))

    def test_wallclock_flagged_in_src(self):
        for snippet in ("auto t = time(nullptr);\n",
                        "auto n = std::chrono::system_clock::now();\n",
                        "auto n = std::chrono::steady_clock::now();\n",
                        "clock_gettime(CLOCK_MONOTONIC, &ts);\n"):
            self.assertIn("no-wallclock", rules_of(self.run_rules(snippet)),
                          snippet)

    def test_wallclock_allowed_in_timer(self):
        findings = self.run_rules(
            "using Clock = std::chrono::steady_clock;\n",
            rel="src/common/timer.h")
        self.assertNotIn("no-wallclock", rules_of(findings))

    def test_wallclock_not_matched_on_members(self):
        # ElapsedSeconds()-style member calls named *time( must not match.
        self.assertEqual([], self.run_rules("x.time(3); obj->clock();\n"))

    def test_wallclock_not_enforced_outside_src(self):
        findings = self.run_rules("auto t = time(nullptr);\n",
                                  rel="tests/fake_test.cc")
        self.assertNotIn("no-wallclock", rules_of(findings))


class HotAllocations(unittest.TestCase):
    HOT = "// FACTION_HOT: steady state\n"

    def run_hot(self, body: str, hot: bool = True) -> list:
        findings = []
        text = (self.HOT if hot else "") + body
        lint.check_hot_allocations(ctx(text), findings)
        return findings

    def test_not_hot_not_flagged(self):
        self.assertEqual([], self.run_hot("  std::vector<int> v;\n", hot=False))

    def test_vector_declaration_flagged(self):
        self.assertIn("no-alloc-in-hot",
                      rules_of(self.run_hot("  std::vector<int> v;\n")))

    def test_matrix_construction_flagged(self):
        self.assertIn("no-alloc-in-hot",
                      rules_of(self.run_hot("  Matrix m(3, 4);\n")))

    def test_to_string_flagged(self):
        self.assertIn("no-alloc-in-hot",
                      rules_of(self.run_hot("  auto s = std::to_string(3);\n")))

    def test_make_unique_flagged(self):
        self.assertIn(
            "no-alloc-in-hot",
            rules_of(self.run_hot("  auto p = std::make_unique<int>(3);\n")))

    def test_function_definition_not_flagged(self):
        # Column-0 signatures returning Matrix/vector are declarations of
        # the convenience API, not allocations.
        self.assertEqual([], self.run_hot("Matrix MatMul(const Matrix& a) {\n"
                                          "std::vector<double> F();\n"))

    def test_reference_and_pointer_not_flagged(self):
        self.assertEqual(
            [], self.run_hot("  std::vector<double>& r = *out;\n"
                             "  std::vector<double>* p = ws.DoublesFor(n);\n"))

    def test_cold_fence_suppresses(self):
        body = ("  // FACTION_COLD_BEGIN: wrapper\n"
                "  std::vector<int> v;\n"
                "  // FACTION_COLD_END\n"
                "  std::vector<int> w;\n")
        findings = self.run_hot(body)
        self.assertEqual(1, len(findings))
        self.assertEqual(5, findings[0][1])  # only the unfenced line

    def test_lint_allow_suppresses_single_line(self):
        body = ("  static thread_local std::vector<double> y;"
                "  // lint-allow(no-alloc-in-hot): warmup\n"
                "  std::vector<int> w;\n")
        findings = self.run_hot(body)
        self.assertEqual(1, len(findings))
        self.assertEqual(3, findings[0][1])


class ServeHot(unittest.TestCase):
    def run_serve(self, text: str, rel: str) -> list:
        findings = []
        lint.check_serve_hot(ctx(text, rel=rel), findings)
        return findings

    def test_unmarked_serve_tu_flagged(self):
        findings = self.run_serve("int x;\n", rel="src/serve/session.cc")
        self.assertIn("serve-hot", rules_of(findings))

    def test_marked_serve_tu_clean(self):
        findings = self.run_serve("// FACTION_HOT: dispatch path\nint x;\n",
                                  rel="src/serve/session.cc")
        self.assertEqual([], findings)

    def test_serve_header_exempt(self):
        findings = self.run_serve("int x;\n", rel="src/serve/session.h")
        self.assertEqual([], findings)

    def test_non_serve_tu_exempt(self):
        findings = self.run_serve("int x;\n", rel="src/core/faction.cc")
        self.assertEqual([], findings)

    def test_real_serve_tus_all_marked(self):
        serve_dir = lint.ROOT / "src/serve"
        self.assertTrue(serve_dir.is_dir())
        ccs = sorted(serve_dir.rglob("*.cc"))
        self.assertGreaterEqual(len(ccs), 4)
        for path in ccs:
            rel = path.relative_to(lint.ROOT)
            findings = self.run_serve(path.read_text(encoding="utf-8"),
                                      rel=str(rel))
            self.assertEqual([], findings, msg=str(rel))


class ServeFloatText(unittest.TestCase):
    def run_serve(self, text: str, rel: str = "src/serve/fake.cc") -> list:
        findings = []
        lint.check_serve_float_text(ctx(text, rel=rel), findings)
        return findings

    def test_libc_parsers_flagged(self):
        for snippet in ("double x = std::strtod(p, &end);\n",
                        "float x = strtof(p, nullptr);\n",
                        "long double x = strtold(p, nullptr);\n",
                        "double x = std::stod(token);\n",
                        "auto parse = &std::strtod;\n"):
            self.assertIn("serve-float-text",
                          rules_of(self.run_serve(snippet)), snippet)

    def test_printf_hex_conversions_flagged(self):
        for snippet in ('std::snprintf(buf, n, "%a", v);\n',
                        'std::snprintf(buf, n, "%.13a", v);\n',
                        'std::printf("x=%La\\n", v);\n',
                        'std::snprintf(buf, n, "%A", v);\n'):
            self.assertIn("serve-float-text",
                          rules_of(self.run_serve(snippet)), snippet)

    def test_hexfloat_manipulator_flagged(self):
        self.assertIn("serve-float-text", rules_of(
            self.run_serve("os << std::hexfloat << v;\n")))

    def test_reports_the_offending_line(self):
        findings = self.run_serve('int a;\nint b;\nprintf("%a", v);\n')
        self.assertEqual([3], [line for _, line, _, _ in findings])

    def test_mentions_and_lookalikes_not_flagged(self):
        text = ("// strtod and snprintf(\"%a\") are gone\n"
                "/* std::hexfloat */ int strtodx = 0;\n"
                'std::printf("%d alpha %s 100%%a", n, s);\n'
                "char* FormatHexDouble(char* out, double v);\n"
                "int r = i % a;\n")
        self.assertEqual([], self.run_serve(text))

    def test_not_enforced_outside_serve(self):
        self.assertEqual([], self.run_serve(
            "double x = std::strtod(p, &end);\n",
            rel="src/data/scenario.cc"))

    def test_serve_headers_covered(self):
        self.assertIn("serve-float-text", rules_of(self.run_serve(
            "inline double F(const char* p) { return strtod(p, 0); }\n",
            rel="src/serve/fake.h")))


class LibmSoftmax(unittest.TestCase):
    def run_rule(self, text: str, rel: str) -> list:
        findings = []
        lint.check_libm_softmax(ctx(text, rel=rel), findings)
        return findings

    def test_libm_calls_in_loss_flagged(self):
        for snippet in ("  d[j] = std::exp(r[j] - lse);\n",
                        "  const double l = std::log(sum);\n",
                        "  y = ::exp(x);\n",
                        "  y = log1p(-p);\n",
                        "  y = std :: expm1 (x);\n"):
            text = "double F(double x) {\n" + snippet + "}\n"
            self.assertEqual(["libm-softmax"], [
                rule for _, _, rule, _ in self.run_rule(
                    text, "src/nn/loss.cc")], snippet)

    def test_only_softmax_functions_of_ops_flagged(self):
        text = ("void SoftmaxRowsInto(const Matrix& l, Matrix* out) {\n"
                "  r[j] = std::exp(r[j] - mx);\n"
                "}\n"
                "\n"
                "double LogSumExp(const std::vector<double>& xs) {\n"
                "  return mx + std::log(sum);\n"
                "}\n"
                "void LogSoftmaxRowsInto(const Matrix& l, Matrix* out,\n"
                "                        Matrix* softmax) {\n"
                "  const double lse = mx + std::log(sum);\n"
                "}\n")
        findings = self.run_rule(text, "src/tensor/ops.cc")
        self.assertEqual([2, 10], [line for _, line, _, _ in findings])

    def test_kernels_mentions_and_lookalikes_not_flagged(self):
        text = ("double F(const Matrix& m) {\n"
                "  // std::exp(x) is gone\n"
                "  ActiveSimd().vexp(m.data(), out, n);\n"
                "  kern.vlog(sums, sums, n);\n"
                "  const Matrix logp = LogSoftmaxRows(logits);\n"
                "  return est.log(x) + catalog(3) + explode(1);\n"
                "}\n")
        self.assertEqual([], self.run_rule(text, "src/nn/loss.cc"))

    def test_lint_allow_suppresses(self):
        text = ("double F(double x) {\n"
                "  return std::exp(x);  // lint-allow(libm-softmax): why\n"
                "}\n")
        self.assertEqual([], self.run_rule(text, "src/nn/loss.cc"))

    def test_not_enforced_in_other_files(self):
        text = "double F(double x) {\n  return std::exp(x);\n}\n"
        self.assertEqual([], self.run_rule(text, "src/density/gaussian.cc"))
        self.assertEqual([], self.run_rule(text, "tests/nn_test.cc"))


class FfpContract(unittest.TestCase):
    def test_kernel_names_parsed_from_header(self):
        names = lint.simd_kernel_names()
        self.assertIn("matmul_rows", names)
        self.assertIn("logpdf_block", names)
        self.assertIn("axpy", names)

    def test_cmake_expand_resolves_nested_vars(self):
        variables = {"A": "-O3;${B}", "B": "-ffp-contract=off"}
        self.assertEqual("-O3;-ffp-contract=off",
                         lint.cmake_expand("${A}", variables))

    def test_pinned_sources_through_flag_variable(self):
        with tempfile.TemporaryDirectory() as tmp:
            cmake = Path(tmp) / "CMakeLists.txt"
            cmake.write_text(
                'set(FLAGS "-O3;-ffp-contract=off")\n'
                "set_source_files_properties(a.cc b.cc PROPERTIES\n"
                '                            COMPILE_OPTIONS "${FLAGS}")\n'
                "set_source_files_properties(c.cc PROPERTIES\n"
                '                            COMPILE_OPTIONS "-O2")\n')
            self.assertEqual({"a.cc", "b.cc"},
                             lint.ffp_pinned_sources(cmake))

    def test_real_tree_pins_every_library_tu(self):
        self.assertTrue(lint.ffp_pins_directory(
            lint.ROOT / "src/CMakeLists.txt"))
        self.assertTrue(lint.ffp_pinned(Path("src/tensor/ops.cc")))
        self.assertTrue(lint.ffp_pinned(Path("src/tensor/simd_generic.cc")))

    # A tree whose src/CMakeLists.txt carries `src_options` and whose
    # src/tensor/CMakeLists.txt pins a.cc only.
    def fake_tree(self, tmp: str, src_options: str) -> Path:
        root = Path(tmp)
        (root / "src/tensor").mkdir(parents=True)
        (root / "src/CMakeLists.txt").write_text(
            f"add_compile_options({src_options})\n"
            "add_subdirectory(tensor)\n")
        (root / "src/tensor/CMakeLists.txt").write_text(
            "set_source_files_properties(a.cc PROPERTIES\n"
            '                            COMPILE_OPTIONS "-ffp-contract=off")\n')
        return root

    def test_unpinned_caller_flagged(self):
        # A TU that calls a kernel but is in no pin list and under no
        # directory-wide pin must be reported.
        fake = ctx("void F() { ActiveSimd().axpy(1.0, x, y, n); }\n",
                   rel="src/tensor/fake_unpinned.cc")
        with tempfile.TemporaryDirectory() as tmp:
            root = self.fake_tree(tmp, "-O3")
            findings = []
            lint.check_ffp_contract([fake], findings, root)
            self.assertEqual({"ffp-contract"}, rules_of(findings))
            findings = []
            lint.check_ffp_contract(
                [ctx(fake.text, rel="src/tensor/a.cc")], findings, root)
            self.assertEqual([], findings)

    def test_unpinned_definer_flagged(self):
        fake = ctx('#include "tensor/simd_kernels.inc"\n',
                   rel="src/tensor/fake_tier.cc")
        with tempfile.TemporaryDirectory() as tmp:
            findings = []
            lint.check_ffp_contract([fake], findings,
                                    self.fake_tree(tmp, "-O3"))
            self.assertEqual({"ffp-contract"}, rules_of(findings))

    def test_directory_wide_pin_covers_subdirectories(self):
        fake = ctx('#include "tensor/simd_kernels.inc"\n',
                   rel="src/tensor/fake_tier.cc")
        with tempfile.TemporaryDirectory() as tmp:
            findings = []
            lint.check_ffp_contract(
                [fake], findings,
                self.fake_tree(tmp, "-O3 -ffp-contract=off"))
            self.assertEqual([], findings)

    def test_metadata_reader_not_flagged(self):
        # Reading ActiveSimd().name (trace provenance) is not a kernel call.
        fake = ctx("const char* n = ActiveSimd().name;\n",
                   rel="src/stream/fake_trace.cc")
        findings = []
        lint.check_ffp_contract([fake], findings)
        self.assertEqual([], findings)


class TestOnlyApi(unittest.TestCase):
    HEADER = ("#ifndef FACTION_A_WIDGET_H_\n"
              "#define FACTION_A_WIDGET_H_\n"
              "class Widget {\n"
              " public:\n"
              "  int Spin(int x) const;\n"
              "  static double Measure();\n"
              "};\n"
              "Result<Widget> MakeWidget(int n);\n"
              "#endif  // FACTION_A_WIDGET_H_\n")
    SOURCE = ("#include \"a/widget.h\"\n"
              "int Widget::Spin(int x) const { return x + 1; }\n"
              "double Widget::Measure() { return 1.0; }\n"
              "Result<Widget> MakeWidget(int n) {\n"
              "  return Widget();\n"
              "}\n")

    def flagged(self, *files, callers=()) -> set:
        contexts = [ctx(self.HEADER, "src/a/widget.h"),
                    ctx(self.SOURCE, "src/a/widget.cc")]
        contexts += [ctx(text, rel) for rel, text in files]
        findings = []
        lint.check_test_only_api(
            contexts, findings,
            callers=[ctx(text, rel) for rel, text in callers])
        self.assertEqual({"test-only-api"} if findings else set(),
                         rules_of(findings))
        return {msg.split("`")[1] for _, _, _, msg in findings}

    def test_names_used_only_by_tests_flagged(self):
        test = ("tests/widget_test.cc",
                "TEST(W, S) { Widget w = MakeWidget(2).value();\n"
                "  EXPECT_EQ(w.Spin(1), 2); Widget::Measure(); }\n")
        # Widget itself is constructed inside MakeWidget's body.
        self.assertEqual({"MakeWidget", "Spin", "Measure"},
                         self.flagged(test))

    def test_definitions_are_not_uses(self):
        # The column-0 definitions in widget.cc (Widget::Spin, MakeWidget)
        # do not rescue a name; the call inside MakeWidget's body does.
        test = ("tests/widget_test.cc", "void F() { MakeWidget(1); }\n")
        flagged = self.flagged(test)
        self.assertIn("MakeWidget", flagged)
        self.assertNotIn("Widget", flagged)  # constructed in MakeWidget

    def test_library_caller_clears_name(self):
        test = ("tests/widget_test.cc",
                "void F() { MakeWidget(1); Widget::Measure(); }\n")
        user = ("src/b/user.cc",
                "double G() {\n  return Widget::Measure();\n}\n")
        self.assertEqual({"MakeWidget"}, self.flagged(test, user))

    def test_perfbench_counts_as_caller(self):
        test = ("tests/widget_test.cc", "void F() { MakeWidget(1); }\n")
        bench = ("perfbench/widget_bench.cc",
                 "void B() { MakeWidget(8); }\n")
        self.assertNotIn("MakeWidget", self.flagged(test, callers=[bench]))

    def test_comments_and_strings_are_not_uses(self):
        test = ("tests/widget_test.cc", "void F() { MakeWidget(1); }\n")
        doc = ("examples/doc.cpp",
               "// MakeWidget(3) builds one\nconst char* s = \"MakeWidget(\";\n")
        self.assertIn("MakeWidget", self.flagged(test, doc))

    def test_unused_names_not_flagged(self):
        # Dead code is not test-only code; this rule only reads callers.
        self.assertEqual(set(), self.flagged())

    def test_lint_allow_on_or_above_declaration(self):
        test = ("tests/widget_test.cc", "void F() { MakeWidget(1); }\n")
        for header in (
                self.HEADER.replace(
                    "Result<Widget> MakeWidget(int n);",
                    "Result<Widget> MakeWidget(int n);  "
                    "// lint-allow(test-only-api): oracle"),
                self.HEADER.replace(
                    "Result<Widget> MakeWidget(int n);",
                    "// lint-allow(test-only-api): oracle\n"
                    "Result<Widget> MakeWidget(int n);")):
            contexts = [ctx(header, "src/a/widget.h"),
                        ctx(self.SOURCE, "src/a/widget.cc"),
                        ctx(test[1], test[0])]
            findings = []
            lint.check_test_only_api(contexts, findings, callers=[])
            names = {msg.split("`")[1] for _, _, _, msg in findings}
            self.assertNotIn("MakeWidget", names)

    def test_calls_in_headers_are_not_declarations(self):
        header = ("inline int Twice(int x) {\n"
                  "  return Helper(x) * 2;\n"
                  "}\n"
                  "int y = Other(3);\n")
        self.assertEqual(
            {"Twice"},
            set(lint.declared_api(ctx(header, "src/a/inline.h"))))

    def test_forward_declarations_skipped(self):
        header = "struct StateCodecAccess;\nclass Real {};\n"
        self.assertEqual(
            {"Real"}, set(lint.declared_api(ctx(header, "src/a/fwd.h"))))


class IncludeGuard(unittest.TestCase):
    def test_expected_guard(self):
        self.assertEqual("FACTION_COMMON_ALLOC_AUDIT_H_",
                         lint.expected_guard(Path("src/common/alloc_audit.h")))

    def test_missing_guard_flagged(self):
        findings = []
        lint.check_include_guard(ctx("int x;\n", rel="src/a/b.h"), findings)
        self.assertEqual({"include-guard"}, rules_of(findings))


class RepoIsClean(unittest.TestCase):
    def test_full_repo_lint_clean(self):
        findings = lint.run_lint(lint.collect_contexts())
        self.assertEqual(
            [], findings,
            "repo lint must be clean; run python3 tools/lint.py for detail")


if __name__ == "__main__":
    sys.exit(unittest.main())
