#!/usr/bin/env python3
"""Codegen gate for the wide SIMD tiers of libfaction_tensor.

Usage: tools/simd_codegen_check.py [--self-test] <libfaction_tensor.a>

Disassembles the archive with `objdump -d` and fails when a function in
the `simd_avx2` or `simd_avx512` namespace contains a lane-insert or
masked-broadcast splat:

  * vinsertf128, vinsertf64x4, vpermpd (lane inserts and cross-lane
    permutes: how GCC builds a broadcast from a lane-filling loop);
  * vbroadcastsd with a {%kN} write mask (one broadcast per lane).

These run on the shuffle port, which the vector FP ops of the GEMM, solve
and conv kernels also need, and the kernels' parity tests cannot see them:
the arithmetic is bitwise the same either way. `Splat` in
src/tensor/simd_kernels.inc is a single unmasked broadcast; this gate
keeps it that way (DESIGN.md §12).

Exit status: 0 pass, 1 a finding, 77 SKIP (objdump missing, or a wide tier
absent from the archive: nothing to check is not a pass). --self-test
first runs the unit tests on disassembly snippets below.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import unittest

SKIP = 77
TIERS = ("simd_avx2", "simd_avx512")

# "0000000000009290 <symbol>:" opens a function in `objdump -d -C` output.
_FUNC = re.compile(r"^[0-9a-f]+ <(?P<name>.+)>:$")
# "    92e3:\tmnemonic operands" is one instruction.
_INSN = re.compile(r"^\s*[0-9a-f]+:\s+(?P<mnemonic>[a-z][a-z0-9.]*)\s*(?P<ops>.*)$")
_LANE_INSERTS = {"vinsertf128", "vinsertf64x4", "vpermpd"}
_MASK = re.compile(r"\{%k[1-7]\}")


def tier_of(name: str) -> str | None:
    """The wide tier whose namespace holds the function, or None."""
    for tier in TIERS:
        if re.search(r"\b" + tier + r"::", name):
            return tier
    return None


def is_splat_insn(mnemonic: str, ops: str) -> bool:
    if mnemonic in _LANE_INSERTS:
        return True
    return mnemonic == "vbroadcastsd" and _MASK.search(ops) is not None


def scan(disassembly: str) -> tuple[set[str], dict[str, int]]:
    """Returns the wide tiers seen and {function: offending instructions}."""
    tiers: set[str] = set()
    findings: dict[str, int] = {}
    current: str | None = None
    for line in disassembly.splitlines():
        m = _FUNC.match(line)
        if m:
            name = m.group("name")
            tier = tier_of(name)
            current = name if tier else None
            if tier:
                tiers.add(tier)
            continue
        if current is None:
            continue
        m = _INSN.match(line)
        if m and is_splat_insn(m.group("mnemonic"), m.group("ops")):
            findings[current] = findings.get(current, 0) + 1
    return tiers, findings


def check(archive: str) -> int:
    objdump = shutil.which("objdump")
    if objdump is None:
        print("SKIP: objdump not found")
        return SKIP
    proc = subprocess.run([objdump, "-d", "-C", "--no-show-raw-insn", archive],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"FAIL: objdump exited {proc.returncode}: {proc.stderr.strip()}")
        return 1
    tiers, findings = scan(proc.stdout)
    for name, count in sorted(findings.items()):
        print(f"FAIL: {count} lane-insert/masked-broadcast instructions in {name}")
    if findings:
        print(f"FAIL: {sum(findings.values())} shuffle-port splat instructions "
              f"in {len(findings)} functions")
        return 1
    missing = [t for t in TIERS if t not in tiers]
    if missing:
        print(f"SKIP: tier(s) not in {archive}: {', '.join(missing)}")
        return SKIP
    print(f"PASS: no lane-insert or masked-broadcast splats in {', '.join(TIERS)}")
    return 0


class ScanTest(unittest.TestCase):
    AVX512_LOOP_SPLAT = """\
0000000000009290 <void faction::simd_avx512::(anonymous namespace)::MatMulRowsT<(faction::simd_avx512::(anonymous namespace)::Epi)4>(double const*, double const*, double*, unsigned long, unsigned long, unsigned long, unsigned long, faction::SimdEpilogue const&)>:
    9306:\tkmovw  %edi,%k0
     cad:\tvbroadcastsd %xmm4,%zmm7{%k4}{z}
     cbc:\tvbroadcastsd %xmm4,%zmm7{%k3}
     cc2:\tvinsertf64x4 $0x1,%ymm1,%zmm0,%zmm0
     cc8:\tvmulpd %zmm7,%zmm2,%zmm3
"""
    AVX2_LOOP_SPLAT = """\
0000000000000400 <faction::simd_avx2::(anonymous namespace)::Axpy(double, double const*, double*, unsigned long)>:
     400:\tvunpcklpd %xmm0,%xmm0,%xmm1
     404:\tvinsertf128 $0x1,%xmm1,%ymm1,%ymm1
     40a:\tvpermpd $0x0,%ymm1,%ymm1
     410:\tret
"""
    CLEAN = """\
0000000000000000 <faction::simd_avx2::(anonymous namespace)::Axpy(double, double const*, double*, unsigned long)>:
       0:\tvbroadcastsd %xmm0,%ymm0
       5:\tvmulpd (%rsi),%ymm0,%ymm1
0000000000000100 <faction::simd_avx512::(anonymous namespace)::Axpy(double, double const*, double*, unsigned long)>:
     100:\tvbroadcastsd %xmm0,%zmm0
     106:\tvblendmpd %zmm1,%zmm2,%zmm3{%k1}
"""
    OTHER_NAMESPACES = """\
0000000000000000 <faction::simd_generic::(anonymous namespace)::Axpy(double, double const*, double*, unsigned long)>:
       0:\tvinsertf128 $0x1,%xmm1,%ymm1,%ymm1
0000000000000040 <faction::MatMulInto(faction::Matrix const&, faction::Matrix const&, faction::Matrix*)>:
      40:\tvpermpd $0x0,%ymm1,%ymm1
"""

    def test_avx512_masked_broadcasts_and_inserts_are_found(self):
        tiers, findings = scan(self.AVX512_LOOP_SPLAT)
        self.assertEqual(tiers, {"simd_avx512"})
        self.assertEqual(list(findings.values()), [3])

    def test_avx2_insert_and_permute_are_found(self):
        tiers, findings = scan(self.AVX2_LOOP_SPLAT)
        self.assertEqual(tiers, {"simd_avx2"})
        self.assertEqual(list(findings.values()), [2])

    def test_plain_broadcast_and_masked_blend_pass(self):
        tiers, findings = scan(self.CLEAN)
        self.assertEqual(tiers, set(TIERS))
        self.assertEqual(findings, {})

    def test_functions_outside_the_wide_tiers_are_ignored(self):
        tiers, findings = scan(self.OTHER_NAMESPACES)
        self.assertEqual(tiers, set())
        self.assertEqual(findings, {})

    def test_avx512_is_not_read_as_avx2(self):
        self.assertEqual(tier_of("faction::simd_avx512::(anonymous namespace)::F()"),
                         "simd_avx512")
        self.assertIsNone(tier_of("faction::not_simd_avx2x::F()"))


def main(argv: list[str]) -> int:
    args = argv[1:]
    if args and args[0] == "--self-test":
        args = args[1:]
        suite = unittest.defaultTestLoader.loadTestsFromTestCase(ScanTest)
        if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
            return 1
    if len(args) != 1:
        print(__doc__.splitlines()[2])
        return 2
    return check(args[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
