#!/usr/bin/env python3
"""Repo lint: project-specific correctness rules for the FACTION codebase.

Rules (each reported as file:line: [rule] message):
  include-guard    every header carries the canonical FACTION_<PATH>_H_ guard
  no-rand          rand()/srand() are banned outside src/common/rng.* — all
                   randomness flows through the seeded faction::Rng
  no-raw-new       no raw `new` / `delete`; use make_unique / containers
                   (`= delete` for deleted members is fine; the allocator
                   interposer common/alloc_audit.cc is the one exemption)
  no-assert        no bare assert(); use FACTION_CHECK* / FACTION_DCHECK*
                   from common/check.h so failures are logged before abort
  no-const-cast    no const_cast under src/ — add a const overload instead
                   (MlpClassifier's const Parameters() is the pattern)
  no-alloc-in-hot  in TUs carrying a `// FACTION_HOT` marker, allocating
                   idioms (local vector/string/Matrix construction,
                   std::to_string, make_unique, ...) are banned outside
                   `// FACTION_COLD_BEGIN` / `// FACTION_COLD_END` fences.
                   Steady-state code there must draw from Workspace arenas
                   or member scratch (DESIGN.md §13). Suppress a single
                   line with `// lint-allow(no-alloc-in-hot): reason`.
  serve-hot        every translation unit under src/serve must carry the
                   `// FACTION_HOT` marker: the serve scheduler and
                   session layer sit on the per-arrival dispatch path, so
                   dropping a marker would silently lift the
                   no-alloc-in-hot gate from steady-state serving code.
                   Cold regions belong inside FACTION_COLD fences, not in
                   unmarked TUs.
  ffp-contract     every TU that defines SIMD kernels (includes
                   simd_kernels.inc) or invokes one through the dispatch
                   table must be pinned with -ffp-contract=off, or FMA
                   contraction would break the cross-tier bitwise-equality
                   contract (DESIGN.md §12). A TU is pinned by its
                   directory's set_source_files_properties calls or by an
                   add_compile_options in the CMakeLists.txt of its
                   directory or of any parent up to src/. The kernel names
                   are parsed from the SimdKernels struct.
  serve-float-text under src/serve, doubles are text only through
                   common/hexfloat.h: strtod/strtof/strtold, std::stod and
                   friends, printf `%a` conversions and std::hexfloat are
                   banned, so the slow libc path cannot come back into the
                   checkpoint codec (DESIGN.md §17).
  no-wallclock     wall-clock reads (time(), clock(), gettimeofday,
                   std::chrono::*_clock) are banned outside common/timer.h
                   — timing flows through faction::Timer so determinism
                   audits have a single choke point.
  libm-softmax     no libm exp/log (std::exp, ::log, log1p, expm1, ...) in
                   src/nn/loss.cc or in the functions of src/tensor/ops.cc
                   whose names contain "Softmax": the softmax family and
                   the training loss run through the SIMD layer's vexp/vlog,
                   so their bits do not depend on the host's libm or the
                   tier (DESIGN.md §12 "Transcendentals").
  test-only-api    a CamelCase class or function declared in a src/ header
                   whose every use outside its declaration and definition
                   is under tests/. perfbench/ counts as a caller (it is
                   read, never linted). Parity oracles and assertion
                   helpers that stay carry `// lint-allow(test-only-api):
                   <why it stays>` on or just above their declaration.

Exit status: 0 when clean, 1 when any finding is reported.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "bench", "examples")
EXTENSIONS = {".cc", ".h", ".cpp"}

RAND_ALLOWED = {Path("src/common/rng.h"), Path("src/common/rng.cc")}

# The allocation-audit interposer must spell `operator new` / `operator
# delete` to replace them; nothing else may.
NEW_ALLOWED = {Path("src/common/alloc_audit.cc")}

# const_cast is banned in src/ (library code): every historical use has
# been replaced by a const overload. Files may be allowlisted here only
# with a comment explaining why no const-correct design exists.
CONST_CAST_ALLOWED: set[Path] = set()

# Wall-clock reads live behind faction::Timer only.
WALLCLOCK_ALLOWED = {Path("src/common/timer.h")}

HOT_MARKER = "FACTION_HOT"
COLD_BEGIN = "FACTION_COLD_BEGIN"
COLD_END = "FACTION_COLD_END"
LINT_ALLOW_RE = re.compile(r"lint-allow\((?P<rule>[a-z-]+)\)")


class FileContext:
    """Per-file inputs shared by every rule pass.

    `text` is the raw file; `code` is the same text with comments and
    string/char literals blanked (same line/column layout). Markers and
    suppressions are read from the raw text because they live in comments.
    """

    def __init__(self, rel: Path, text: str):
        self.rel = rel
        self.text = text
        self.code = strip_comments_and_strings(text)
        self.raw_lines = text.splitlines()
        self.code_lines = self.code.splitlines()
        self.is_hot = any(HOT_MARKER in line and COLD_BEGIN not in line
                          and COLD_END not in line
                          for line in self.raw_lines)
        self.cold = self._cold_mask()
        self.allows = self._allow_map()

    def _cold_mask(self) -> list:
        """True for lines inside a FACTION_COLD_BEGIN/END fence."""
        mask, depth = [], 0
        for line in self.raw_lines:
            if COLD_BEGIN in line:
                depth += 1
            mask.append(depth > 0)
            if COLD_END in line:
                depth = max(0, depth - 1)
        return mask

    def _allow_map(self) -> dict:
        """Maps 1-based line number -> set of rules suppressed on it."""
        allows: dict = {}
        for lineno, line in enumerate(self.raw_lines, start=1):
            for m in LINT_ALLOW_RE.finditer(line):
                allows.setdefault(lineno, set()).add(m.group("rule"))
        return allows

    def allowed(self, lineno: int, rule: str) -> bool:
        return rule in self.allows.get(lineno, set())


def strip_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Blanks out comments and string/char literals, preserving line breaks.

    Keeps the remaining code at the same line/column so findings point at
    the true location. Handles // and /* */ comments, ordinary and raw
    string literals (R"delim(...)delim"), and char literals. With
    `keep_strings` only the comments are blanked.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    raw_terminator = None  # set while inside a raw string literal
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "R" and nxt == '"' and not (out and
                                                 (out[-1].isalnum() or
                                                  out[-1] == "_")):
                # Raw string literal: R"delim( ... )delim". No escape
                # processing inside; it ends only at )delim".
                m = re.match(r'R"([^()\\ \t\n]{0,16})\(', text[i:])
                if m:
                    raw_terminator = ")" + m.group(1) + '"'
                    state = "raw_string"
                    out.append(m.group(0) if keep_strings
                               else " " * len(m.group(0)))
                    i += len(m.group(0))
                    continue
            if ch == '"':
                state = "string"
                out.append(ch if keep_strings else " ")
                i += 1
                continue
            if ch == "'" and not (out and (out[-1].isdigit())):
                state = "char"
                out.append(ch if keep_strings else " ")
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        elif state == "raw_string":
            if text.startswith(raw_terminator, i):
                out.append(raw_terminator if keep_strings
                           else " " * len(raw_terminator))
                i += len(raw_terminator)
                state = "code"
                raw_terminator = None
                continue
            out.append(ch if keep_strings or ch == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append(text[i:i + 2].ljust(2) if keep_strings else "  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
            out.append(ch if keep_strings or ch == "\n" else " ")
        i += 1
    return "".join(out)


# --------------------------------------------------------------- guards

def expected_guard(rel: Path) -> str:
    parts = list(rel.parts)
    if parts[0] == "src":
        parts = parts[1:]
    stem = "_".join(parts)
    stem = re.sub(r"\.h$", "", stem)
    token = re.sub(r"[^A-Za-z0-9]", "_", stem).upper()
    return f"FACTION_{token}_H_"


def check_include_guard(ctx: FileContext, findings: list) -> None:
    guard = expected_guard(ctx.rel)
    lines = ctx.raw_lines
    ifndef = f"#ifndef {guard}"
    define = f"#define {guard}"
    endif = f"#endif  // {guard}"
    if ifndef not in lines:
        findings.append((ctx.rel, 1, "include-guard",
                         f"missing or wrong include guard; want '{ifndef}'"))
        return
    idx = lines.index(ifndef)
    if idx + 1 >= len(lines) or lines[idx + 1] != define:
        findings.append((ctx.rel, idx + 2, "include-guard",
                         f"'#ifndef {guard}' must be followed by '{define}'"))
    if not any(line.startswith(endif) for line in lines):
        findings.append((ctx.rel, len(lines), "include-guard",
                         f"missing closing '{endif}'"))


# --------------------------------------------------- per-line code rules

RAND_RE = re.compile(r"(?<![\w:])s?rand\s*\(")
NEW_RE = re.compile(r"(?<![\w_])new\b")
ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")
ASSERT_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](cassert|assert\.h)[>"]')
CONST_CAST_RE = re.compile(r"(?<![\w_])const_cast\s*<")

# Wall-clock reads. steady_clock is as banned as system_clock: Timer wraps
# it, and a second timing source would fork the determinism audit.
WALLCLOCK_RES = (
    (re.compile(r"(?<![\w:.>])time\s*\("), "time()"),
    (re.compile(r"(?<![\w:.>])clock\s*\("), "clock()"),
    (re.compile(r"(?<![\w:.>])gettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"(?<![\w:.>])clock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"std\s*::\s*chrono\s*::\s*\w*_clock"), "std::chrono clocks"),
)

# Allocating idioms banned in FACTION_HOT translation units. Each entry is
# (regex, what to use instead). These are idiom-level checks, not an
# escape-analysis: they catch the constructions that put fresh blocks on
# the heap every call — exactly what the steady-state gate forbids.
HOT_ALLOC_RES = (
    (re.compile(r"(?<![\w_])std\s*::\s*make_unique\s*<"),
     "construct once at setup time, not in a hot TU"),
    (re.compile(r"(?<![\w_])std\s*::\s*make_shared\s*<"),
     "construct once at setup time, not in a hot TU"),
    (re.compile(r"(?<![\w_])std\s*::\s*to_string\s*\("),
     "format on the cold path only"),
    # Local declarations only: anchored to indented lines so function
    # definitions returning these types (column 0) do not match.
    (re.compile(r"^\s+(?:static\s+|thread_local\s+|const\s+)*"
                r"std\s*::\s*(vector|string|deque|map|set|"
                r"unordered_map|unordered_set|list)\s*(<[^;=]*>)?\s+"
                r"\w+\s*[({;]"),
     "use a Workspace arena buffer or member scratch"),
    (re.compile(r"^\s+(?:static\s+|thread_local\s+|const\s+)*"
                r"Matrix\s+\w+\s*[({]"),
     "use Workspace::MatrixFor or member scratch"),
)


def check_code_rules(ctx: FileContext, findings: list) -> None:
    rel = ctx.rel
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if rel not in RAND_ALLOWED and RAND_RE.search(line):
            findings.append((rel, lineno, "no-rand",
                             "rand()/srand() banned outside common/rng; "
                             "use faction::Rng"))
        if rel not in NEW_ALLOWED:
            if NEW_RE.search(line):
                findings.append((rel, lineno, "no-raw-new",
                                 "raw `new` banned; use std::make_unique "
                                 "or a container"))
            # `= delete;` (deleted members) is legitimate; flag only
            # delete-expressions.
            if (re.search(r"(?<![\w_=])delete\s+[\w_*(]", line)
                    and "= delete" not in line):
                findings.append((rel, lineno, "no-raw-new",
                                 "raw `delete` banned; use RAII owners"))
        if ASSERT_RE.search(line):
            findings.append((rel, lineno, "no-assert",
                             "bare assert() banned; use "
                             "FACTION_CHECK*/FACTION_DCHECK*"))
        if ASSERT_INCLUDE_RE.search(line):
            findings.append((rel, lineno, "no-assert",
                             "<cassert> include banned; use common/check.h"))
        if (rel.parts[0] == "src" and rel not in CONST_CAST_ALLOWED
                and CONST_CAST_RE.search(line)):
            findings.append((rel, lineno, "no-const-cast",
                             "const_cast banned in src/; add a const "
                             "overload instead"))
        if rel.parts[0] == "src" and rel not in WALLCLOCK_ALLOWED:
            for pattern, what in WALLCLOCK_RES:
                if pattern.search(line) and not ctx.allowed(lineno,
                                                            "no-wallclock"):
                    findings.append((rel, lineno, "no-wallclock",
                                     f"{what} banned outside common/timer.h;"
                                     " use faction::Timer"))


# libm-softmax: the files it covers, each with the pattern a function name
# must match to be covered (None: the whole file).
LIBM_SOFTMAX_SCOPES = {
    Path("src/nn/loss.cc"): None,
    Path("src/tensor/ops.cc"): re.compile(r"Softmax"),
}
LIBM_CALL_RE = re.compile(
    r"(?<![\w.>])(?:std\s*::\s*|::\s*)?"
    r"(?:exp|exp2|expm1|log|log2|log10|log1p)\s*\(")
# A function definition's first line: code at column 0 naming the function
# just before its parameter list.
FUNCTION_HEAD_RE = re.compile(r"^(?!namespace\b)[A-Za-z_][^;{}]*?(\w+)\s*\(")


def check_libm_softmax(ctx: FileContext, findings: list) -> None:
    if ctx.rel not in LIBM_SOFTMAX_SCOPES:
        return
    name_re = LIBM_SOFTMAX_SCOPES[ctx.rel]
    function = ""
    for lineno, line in enumerate(ctx.code_lines, start=1):
        head = FUNCTION_HEAD_RE.match(line)
        if head:
            function = head.group(1)
        if name_re is not None and not name_re.search(function):
            continue
        m = LIBM_CALL_RE.search(line)
        if m and not ctx.allowed(lineno, "libm-softmax"):
            findings.append(
                (ctx.rel, lineno, "libm-softmax",
                 f"libm call `{m.group(0).strip()}` in the softmax family; "
                 f"use ActiveSimd().vexp/vlog over the batch"))


def check_serve_hot(ctx: FileContext, findings: list) -> None:
    """src/serve TUs must opt into the hot-allocation gate explicitly."""
    rel = ctx.rel
    if rel.parts[:2] != ("src", "serve") or rel.suffix == ".h":
        return
    if not ctx.is_hot:
        findings.append(
            (rel, 1, "serve-hot",
             f"translation units under src/serve must carry the "
             f"// {HOT_MARKER} marker so the no-alloc-in-hot gate covers "
             f"the serve dispatch path; put setup/teardown inside "
             f"{COLD_BEGIN}/{COLD_END} fences instead of dropping the "
             f"marker"))


# Float text through libc under src/serve (serve-float-text): the parsers
# and std::hexfloat are matched in code, printf's %a conversion inside
# string literals.
SERVE_FLOAT_TEXT_RES = (
    (re.compile(r"\bstrto(?:d|f|ld)\b"), "strtod/strtof/strtold"),
    (re.compile(r"\bstd\s*::\s*sto(?:d|f|ld)\b"), "std::stod/stof/stold"),
    (re.compile(r"\bhexfloat\b"), "std::hexfloat"),
)
PRINTF_HEX_RE = re.compile(
    r"(?<!%)%[-+ #0]*(?:\d+|\*)?(?:\.(?:\d+|\*)?)?[lL]?[aA]")


def check_serve_float_text(ctx: FileContext, findings: list) -> None:
    if ctx.rel.parts[:2] != ("src", "serve"):
        return
    # String literal bodies only: what comment stripping keeps but string
    # stripping blanks.
    kept = strip_comments_and_strings(ctx.text, keep_strings=True)
    literals = "".join(k if c == " " else c if c == "\n" else " "
                       for k, c in zip(kept, ctx.code))
    for lineno, (line, literal) in enumerate(
            zip(ctx.code_lines, literals.splitlines()), start=1):
        if ctx.allowed(lineno, "serve-float-text"):
            continue
        hits = [what for pattern, what in SERVE_FLOAT_TEXT_RES
                if pattern.search(line)]
        if PRINTF_HEX_RE.search(literal):
            hits.append("a printf %a conversion")
        for what in hits:
            findings.append((ctx.rel, lineno, "serve-float-text",
                             f"{what} banned under src/serve; format and "
                             f"parse doubles with common/hexfloat.h"))


def check_hot_allocations(ctx: FileContext, findings: list) -> None:
    if not ctx.is_hot:
        return
    for lineno, line in enumerate(ctx.code_lines, start=1):
        if ctx.cold[lineno - 1] or ctx.allowed(lineno, "no-alloc-in-hot"):
            continue
        for pattern, hint in HOT_ALLOC_RES:
            m = pattern.search(line)
            if m:
                findings.append(
                    (ctx.rel, lineno, "no-alloc-in-hot",
                     f"allocating idiom `{m.group(0).strip()}` in a "
                     f"FACTION_HOT TU; {hint} (or fence the region with "
                     f"{COLD_BEGIN}/{COLD_END})"))
                break  # one finding per line is enough


# ------------------------------------------------- ffp-contract cross-check

KERNEL_MEMBER_RE = re.compile(
    r"(?:void|double|float|int)\s*\(\s*\*\s*(\w+)\s*\)\s*\(")


def simd_kernel_names() -> set:
    """Function-pointer member names of the SimdKernels dispatch table."""
    header = ROOT / "src/tensor/simd.h"
    if not header.is_file():
        return set()
    code = strip_comments_and_strings(header.read_text(encoding="utf-8"))
    struct = re.search(r"struct\s+SimdKernels\s*\{(.*?)\n\};", code,
                       re.DOTALL)
    if not struct:
        return set()
    return set(KERNEL_MEMBER_RE.findall(struct.group(1)))


CMAKE_SET_RE = re.compile(r"set\s*\(\s*(\w+)\s+\"([^\"]*)\"\s*\)",
                          re.IGNORECASE)
CMAKE_SSFP_RE = re.compile(
    r"set_source_files_properties\s*\((.*?)\)", re.IGNORECASE | re.DOTALL)
CMAKE_VAR_RE = re.compile(r"\$\{(\w+)\}")
CMAKE_ACO_RE = re.compile(r"add_compile_options\s*\((.*?)\)",
                          re.IGNORECASE | re.DOTALL)


def cmake_expand(value: str, variables: dict, depth: int = 0) -> str:
    if depth > 8:
        return value
    return CMAKE_VAR_RE.sub(
        lambda m: cmake_expand(variables.get(m.group(1), ""), variables,
                               depth + 1), value)


def ffp_pinned_sources(cmake_path: Path) -> set:
    """File names pinned with -ffp-contract=off in one CMakeLists.txt.

    Resolves simple `set(VAR "...")` definitions so pins routed through a
    flags variable (e.g. FACTION_KERNEL_FLAGS) are still recognized.
    Conditionals are ignored: a pin inside if() counts, matching how the
    conditional tier TUs are only compiled when the pin also applies.
    """
    text = cmake_path.read_text(encoding="utf-8")
    text = re.sub(r"#[^\n]*", "", text)
    variables = {name: value for name, value in CMAKE_SET_RE.findall(text)}
    pinned = set()
    for call in CMAKE_SSFP_RE.findall(text):
        expanded = cmake_expand(call, variables)
        if "ffp-contract=off" not in expanded:
            continue
        head = call.split("PROPERTIES")[0]
        for token in head.split():
            if Path(token).suffix in EXTENSIONS:
                pinned.add(token)
    return pinned


def ffp_pins_directory(cmake_path: Path) -> bool:
    """True when one CMakeLists.txt pins -ffp-contract=off for every TU in
    its directory and below (add_compile_options)."""
    text = re.sub(r"#[^\n]*", "", cmake_path.read_text(encoding="utf-8"))
    return any("ffp-contract=off" in call
               for call in CMAKE_ACO_RE.findall(text))


def ffp_pinned(rel: Path, root: Path = ROOT) -> bool:
    """Whether the src/ TU `rel` compiles with -ffp-contract=off."""
    cmake = root / rel.parent / "CMakeLists.txt"
    if cmake.is_file() and rel.name in ffp_pinned_sources(cmake):
        return True
    for parent in rel.parents:
        if parent == Path("."):
            break
        cmake = root / parent / "CMakeLists.txt"
        if cmake.is_file() and ffp_pins_directory(cmake):
            return True
    return False


def check_ffp_contract(contexts: list, findings: list,
                       root: Path = ROOT) -> None:
    kernels = simd_kernel_names()
    if not kernels:
        findings.append((Path("src/tensor/simd.h"), 1, "ffp-contract",
                         "could not parse SimdKernels members; "
                         "update tools/lint.py if the table moved"))
        return
    invoke_re = re.compile(
        r"(?:\.|->)\s*(" + "|".join(sorted(kernels)) + r")\s*\(")
    for ctx in contexts:
        if ctx.rel.parts[0] != "src" or ctx.rel.suffix not in (".cc", ".cpp"):
            continue
        defines = bool(re.search(r'#\s*include\s*"[^"]*simd_kernels\.inc"',
                                 ctx.text))
        called = invoke_re.search(ctx.code)
        if not defines and not called:
            continue
        if not ffp_pinned(ctx.rel, root):
            what = ("includes simd_kernels.inc" if defines
                    else f"calls SIMD kernel `{called.group(1)}`")
            findings.append(
                (ctx.rel, 1, "ffp-contract",
                 f"{what} but is not pinned with -ffp-contract=off by "
                 f"{ctx.rel.parent}/CMakeLists.txt or a parent's; FMA "
                 "contraction would break cross-tier bitwise parity "
                 "(DESIGN.md §12)"))


# ----------------------------------------------------- test-only public API

TEST_ONLY_RULE = "test-only-api"
CAMEL = r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*"
CLASS_DECL_RE = re.compile(
    r"^\s*(?:enum\s+)?(?:class|struct)\s+(?:alignas\s*\([^)]*\)\s+)?"
    rf"(?P<name>{CAMEL})\b(?!\s*;)")
FUNC_NAME_RE = re.compile(rf"(?<![\w:.>~])(?P<name>{CAMEL})\s*\(")
# What may precede a declared function's name on its line: specifiers,
# then a return type ending in whitespace, `*` or `&`.
DECL_PREFIX_RE = re.compile(
    r"^\s*(?:(?:static|virtual|inline|constexpr|friend|extern)\s+)*"
    r"(?:const\s+)?[\w:]+(?:<[^()=;]*>)?(?:\s*[\*&]+|\s)\s*$")
NOT_A_TYPE = {"return", "else", "case", "new", "delete", "throw", "using",
              "typedef", "goto", "co_return", "sizeof"}
# Code outside the linted directories that still calls into src/: the
# benchmark drives the library through its public API. Read, never linted.
CALLER_ONLY_DIRS = ("perfbench",)


def declared_api(ctx: FileContext) -> dict:
    """CamelCase class and function names declared in a src/ header.

    Maps name -> 1-based lines of its declarations in this header.
    """
    names: dict = {}
    for lineno, line in enumerate(ctx.code_lines, start=1):
        m = CLASS_DECL_RE.match(line)
        if m:
            names.setdefault(m.group("name"), []).append(lineno)
            continue
        for m in FUNC_NAME_RE.finditer(line):
            prefix = line[:m.start()]
            if (DECL_PREFIX_RE.match(prefix)
                    and prefix.split()[0] not in NOT_A_TYPE):
                names.setdefault(m.group("name"), []).append(lineno)
    return names


def is_definition_site(line: str, start: int, end: int) -> bool:
    """An occurrence on a column-0 line of a src/ TU that is qualified
    (`X::Name`), qualifies (`Name::member`) or is called (`Name(`): the
    out-of-line definition of Name or of one of its members."""
    if not line or line[0].isspace():
        return False
    return (line[:start].endswith("::") or
            re.match(r"\s*(::|\()", line[end:]) is not None)


def check_test_only_api(contexts: list, findings: list,
                        callers: list | None = None) -> None:
    """Flags a public name whose every caller lives under tests/.

    A name is used by whoever mentions it outside its declaring header and
    outside its own definitions; uses in tests/ alone make it test-only.
    Names shared by several classes count every mention, so the rule can
    miss a test-only overload but never flags a name that code calls.
    """
    if callers is None:
        callers = collect_contexts(CALLER_ONLY_DIRS)
    api: dict = {}  # name -> [(header ctx, [lines])]
    for ctx in contexts:
        if ctx.rel.parts[0] == "src" and ctx.rel.suffix == ".h":
            for name, lines in declared_api(ctx).items():
                api.setdefault(name, []).append((ctx, lines))
    if not api:
        return
    word_re = re.compile(r"(?<![\w])(" + "|".join(sorted(api)) + r")(?!\w)")
    test_uses: set = set()
    other_uses: set = set()
    for ctx in contexts + callers:
        in_src = ctx.rel.parts[0] == "src"
        for line in ctx.code_lines:
            for m in word_re.finditer(line):
                name = m.group(1)
                if any(h is ctx for h, _ in api[name]):
                    continue
                if in_src and is_definition_site(line, m.start(), m.end()):
                    continue
                if ctx.rel.parts[0] == "tests":
                    test_uses.add(name)
                else:
                    other_uses.add(name)
    for name in sorted(test_uses - other_uses):
        sites = [(h, n) for h, lines in api[name] for n in lines]
        if any(h.allowed(n, TEST_ONLY_RULE) or
               h.allowed(n - 1, TEST_ONLY_RULE) for h, n in sites):
            continue
        header, lineno = sites[0]
        findings.append(
            (header.rel, lineno, TEST_ONLY_RULE,
             f"`{name}` is public but only tests call it; delete it, or "
             f"keep it as a test oracle with `// lint-allow({TEST_ONLY_RULE}"
             f"): <why it stays>` on or just above its declaration"))


# -------------------------------------------------------------------- main

def collect_contexts(dirs: tuple = SOURCE_DIRS) -> list:
    contexts = []
    for dirname in dirs:
        base = ROOT / dirname
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in EXTENSIONS or not path.is_file():
                continue
            rel = path.relative_to(ROOT)
            contexts.append(FileContext(rel, path.read_text(encoding="utf-8")))
    return contexts


def run_lint(contexts: list) -> list:
    findings: list = []
    for ctx in contexts:
        if ctx.rel.suffix == ".h":
            check_include_guard(ctx, findings)
        check_code_rules(ctx, findings)
        check_libm_softmax(ctx, findings)
        check_serve_hot(ctx, findings)
        check_serve_float_text(ctx, findings)
        check_hot_allocations(ctx, findings)
    check_ffp_contract(contexts, findings)
    check_test_only_api(contexts, findings)
    return findings


def main() -> int:
    findings = run_lint(collect_contexts())
    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"\ntools/lint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("tools/lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
