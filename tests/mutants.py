"""Mutation catalog: each entry breaks one fast path, and the tests must notice.

Run from anywhere, with the test extras installed:

    python tests/mutants.py           # the baseline, then every entry
    python tests/mutants.py NAME ...  # the baseline, then the named entries

The runner copies src/, tests/ and README.md (which a CLI test reads) to a
temporary directory, replaces one entry's text in that copy, and runs
pytest there with the copy's src on PYTHONPATH: first ``python -m pytest
-x -q`` on the mutated module's own test files, tests/test_<module>*.py,
and only if those pass on the whole ``tests`` directory.  An entry is
killed when either run fails, and survives when both pass.  An
entry whose text is not found exactly once in its file is stale, so a
refactor that rewrites a fast path must update its mutants.  The unmutated
copy runs first and must pass, or no kill would mean anything.  Exit status
0 means the baseline passed and every entry was killed.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# a mutant that hangs the suite counts as killed once this runs out
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str  # must occur exactly once in the file
    replacement: str
    breaks: str


CATALOG = (
    Mutant("accumulate-seed",
           "src/sixvertex/lattice.py",
           "initial=left))",
           "initial=-left))",
           "the state builder's horizontal spins: the ice rule starts each row "
           "at the left boundary spin"),
    Mutant("row-pair-key",
           "src/sixvertex/lattice.py",
           "pair = (rows[r], rows[r + 1] if r + 1 < n else ())",
           "pair = (rows[r + 1] if r + 1 < n else (),)",
           "the state builder's memo: horizontal spins depend on the GT rows "
           "above and below, not on the lower row alone"),
    Mutant("rebuild-one-row-too-deep",
           "src/sixvertex/lattice.py",
           "for r in range(j, n):",
           "for r in range(j + 1, n):",
           "the state builder's prefix rebuild: the first GT row that changed "
           "gets new vertical spins too"),
    Mutant("matched-pair-b2",
           "src/sixvertex/weights.py",
           "b2 = delta1_s * a1 * b1 / (delta2_s * a2)",
           "b2 = delta2_s * a1 * b1 / (delta1_s * a2)",
           "random_matched_pair: its pairs are returned as solved, with no "
           "recheck of the invariants"),
    Mutant("solved-a1",
           "src/sixvertex/weights.py",
           "+ s.a1 * t.c1 * t.c2).exact_div(t.a1)",
           "- s.a1 * t.c1 * t.c2).exact_div(t.a1)",
           "solve_R_from_ST: a1 has one printed form, with no second form to "
           "compare it with"),
    Mutant("spin-type",
           "src/sixvertex/lattice.py",
           "if type(spin) is not int or spin not in (1, -1):",
           "if spin not in (1, -1):",
           "the LatticeState edge: a spin must be the int 1 or -1, not a value "
           "equal to it"),
    Mutant("json-blocks-swapped",
           "src/sixvertex/poly.py",
           '"t": [{t}], "z": [{z}]',
           '"t": [{z}], "z": [{t}]',
           "the JSON writer: it renders the z and t blocks itself, with no "
           "exponent tuple to take them from"),
    Mutant("text-memo-letter",
           "src/sixvertex/poly.py",
           "z_memo, t_memo = {}, {}",
           "z_memo = t_memo = {}",
           "the writers' block memo: equal z and t bits stand for different "
           "variables, so the text of a t block must not serve a z block"),
    Mutant("prod-fold-coefficient",
           "src/sixvertex/poly.py",
           "coeff = c if coeff is None else coeff * c",
           "coeff = c",
           "prod's fold of one-term factors: their coefficients multiply into "
           "one running coefficient"),
    Mutant("prod-hull-test-off",
           "src/sixvertex/poly.py",
           "if ((hull + mono) | mono) & space._guard:",
           "if False:",
           "prod's overflow test: a folded one-term factor must raise at the "
           "factor where the left fold raises"),
    Mutant("prod-hull-carry",
           "src/sixvertex/poly.py",
           "if ((hull + mono) | mono) & space._guard:",
           "if (hull + mono) & space._guard:",
           "prod's overflow test: a folded field past the limit can carry out "
           "of hull + mono, so the folded monomial's own guard bits count"),
    Mutant("prod-disjoint-always",
           "src/sixvertex/poly.py",
           "elif hull & f_hull & space._mask:",
           "elif False:",
           "prod's product rule: a factor whose exponent bits overlap the "
           "running product's makes term products meet, which must merge"),
    Mutant("prod-disjoint-hull-dropped",
           "src/sixvertex/poly.py",
           "hull |= f_hull",
           "hull = f_hull",
           "prod's running hull: after a product with no shared bit it is "
           "the OR of both operands' hulls, not the new factor's alone"),
    Mutant("weak-walked-strict",
           "src/sixvertex/lattice.py",
           "yield from below(p + 1, v - 1 if strict else v, acc + (v,))",
           "yield from below(p + 1, v - 1, acc + (v,))",
           "the GT walker: weak interleaving lets equal neighbours, which the "
           "Schur pattern sums need"),
    Mutant("swap-conjugate-rows-only",
           "src/sixvertex/yang_baxter.py",
           "return PolyMatrix([[m[r, c] for c in order] for r in order])",
           "return PolyMatrix([[m[r, c] for c in range(4)] for r in order])",
           "_swap_conjugate: P m P exchanges columns 1 and 2 as well as rows"),
    Mutant("permute-z-only",
           "src/sixvertex/poly.py",
           "for block in (0, 1):",
           "for block in (0,):",
           "permute_rank_variables: sigma moves each t_i with its z_i"),
    Mutant("exact-div-one-term-early",
           "src/sixvertex/poly.py",
           "while remainder:",
           "while len(remainder) > 1:",
           "exact_div: the division ends only when the remainder is empty"),
    Mutant("bialternant-last-factor-skipped",
           "src/sixvertex/schur.py",
           "range(i + 1, n)",
           "range(i + 1, n - 1)",
           "the bialternant by linear factors: it divides by z_i - z_j for "
           "every i < j, also for j = n"),
    Mutant("dot-repeat-stored",
           "src/sixvertex/poly.py",
           "terms[mono] = c1 * c2 if acc is None else acc + c1 * c2",
           "terms[mono] = c1 * c2",
           "_dot: a term product whose monomial is already stored adds to it"),
    Mutant("poly-sum-addend-dropped",
           "src/sixvertex/poly.py",
           "    for p in addends:",
           "    for p in list(addends)[1:]:",
           "poly_sum: every addend goes into the sum"),
    Mutant("exponent-guard-off",
           "src/sixvertex/poly.py",
           "if functools.reduce(operator.or_, monos, 0) & self._guard:",
           "if False:",
           "the exponent guard: an exponent at the limit raises, never wraps "
           "into the next field"),
    Mutant("transfer-trace-off-diagonal",
           "src/sixvertex/lattice.py",
           "if right == left:",
           "if True:",
           "transfer_matrix: the periodic row is the trace of the monodromy, "
           "right spin equal to left"),
    Mutant("vertex-entry-e-s-swapped",
           "src/sixvertex/weights.py",
           "return 2 * (e < 0) + (s < 0), 2 * (w < 0) + (n < 0)",
           "return 2 * (s < 0) + (e < 0), 2 * (w < 0) + (n < 0)",
           "the vertex rule: the weight sits at end2()[2E+S, 2W+N]"),
    Mutant("rule-swallows-guard",
           "src/sixvertex/checks.py",
           "    except GuardError:\n        raise\n",
           "",
           "checks.run: a GuardError is a refusal before any work, which exits "
           "2, not a FAIL of the check it stopped"),
    Mutant("delta-sign-dropped",
           "src/sixvertex/weights.py",
           "VertexWeights(*(-getattr(inverse, f) for f in VertexWeights._FIELDS))",
           "VertexWeights(*(getattr(inverse, f) for f in VertexWeights._FIELDS))",
           "r_weights_params: the scaled inverse of a Delta Y carries the scalar "
           "-(d1 d2), so it is negated"),
)


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "README.md", dest / "README.md")


def module_tests(dest: Path, path: str) -> list[str]:
    """The test files of the module at `path`: tests/test_<module>*.py."""
    return sorted(str(test.relative_to(dest))
                  for test in (dest / "tests").glob(f"test_{Path(path).stem}*.py"))


def run_pytest(dest: Path, targets: list[str]) -> tuple[int | None, str]:
    """pytest's exit code on `targets` in `dest` (None on timeout) and its
    first failure line."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", "import sixvertex; print(sixvertex.__file__)"],
        cwd=dest, env=env, capture_output=True, text=True, check=True)
    if not Path(probe.stdout.strip()).is_relative_to(dest):
        raise RuntimeError(f"the copy imports sixvertex from {probe.stdout.strip()}")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", *targets],
                              cwd=dest, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode, (failed or lines[-1:] or [""])[0]


def run_one(mutant: Mutant | None) -> tuple[str, float, str]:
    """The outcome (passed, killed, survived or stale), seconds, and detail."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="sixvertex-mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        code, detail = 0, ""
        if mutant is not None:
            target = dest / mutant.path
            source = target.read_text()
            found = source.count(mutant.text)
            if found != 1:
                return "stale", 0.0, f"text found {found} times in {mutant.path}"
            target.write_text(source.replace(mutant.text, mutant.replacement))
            # the module's own tests are a fraction of the suite and kill
            # most entries; the whole suite runs only if they pass
            targets = module_tests(dest, mutant.path)
            if targets:
                code, detail = run_pytest(dest, targets)
        if code == 0:
            code, detail = run_pytest(dest, ["tests"])
    seconds = time.perf_counter() - start
    if mutant is None:
        return ("passed" if code == 0 else "failed"), seconds, detail
    return ("survived" if code == 0 else "killed"), seconds, detail


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in CATALOG}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; "
              f"known: {', '.join(by_name)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or list(CATALOG)
    start = time.perf_counter()
    outcome, seconds, detail = run_one(None)
    print(f"baseline: {outcome} in {seconds:.1f} s: {detail}", flush=True)
    if outcome != "passed":
        return 1
    bad = 0
    for mutant in chosen:
        outcome, seconds, detail = run_one(mutant)
        print(f"{mutant.name}: {outcome} in {seconds:.1f} s: {detail}", flush=True)
        if outcome != "killed":
            print(f"  breaks {mutant.breaks}", flush=True)
            bad += 1
    print(f"{len(chosen) - bad}/{len(chosen)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
