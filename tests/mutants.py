"""Mutation catalog: each entry breaks one fast path, and the tests must notice.

Run from anywhere, with the test extras installed:

    python tests/mutants.py           # the baseline, then every entry
    python tests/mutants.py NAME ...  # the baseline, then the named entries

The runner copies src/, tests/ and README.md (which a CLI test reads) to a
temporary directory, replaces one entry's text in that copy, and runs
pytest there with the copy's src on PYTHONPATH.  It first runs the entry's
``killer``, the one test that killed it in the last full run, which costs
one pytest process.  An entry is killed when its killer fails.  When the
killer passes, or is not found, the entry is reported as ``STALE KILLER``
and the runner falls back to two steps: ``python -m pytest -x -q`` on the
mutated module's own test files, tests/test_<module>*.py, and only if those
pass on the whole ``tests`` directory.  The entry is then killed when
either run fails, and survives when both pass; either way the run exits
nonzero, so a stale killer is mended, not carried.  An entry whose text is
not found exactly once in its file is stale, so a refactor that rewrites a
fast path must update its mutants.  The unmutated copy runs first and must
pass, or no kill would mean anything.  Exit status 0 means the baseline
passed and every entry was killed by its killer.

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
    killer: str  # the pytest node id that killed it in the last full run


CATALOG = (
    Mutant("accumulate-seed",
           "src/sixvertex/lattice.py",
           "initial=left))",
           "initial=-left))",
           "the state builder's horizontal spins: the ice rule starts each row "
           "at the left boundary spin",
           "tests/test_lattice.py::test_worked_example_two_states"),
    Mutant("row-pair-key",
           "src/sixvertex/lattice.py",
           "pair = (rows[r], rows[r + 1] if r + 1 < n else ())",
           "pair = (rows[r + 1] if r + 1 < n else (),)",
           "the state builder's memo: horizontal spins depend on the GT rows "
           "above and below, not on the lower row alone",
           "tests/test_lattice.py::test_worked_example_two_states"),
    Mutant("rebuild-one-row-too-deep",
           "src/sixvertex/lattice.py",
           "for r in range(j, n):",
           "for r in range(j + 1, n):",
           "the state builder's prefix rebuild: the first GT row that changed "
           "gets new vertical spins too",
           "tests/test_lattice.py::test_worked_example_two_states"),
    Mutant("rebuild-ice-rows-from-j",
           "src/sixvertex/lattice.py",
           "range(max(j - 1, 0), n)",
           "range(j, n)",
           "the state builder's prefix rebuild: the ice row above the first GT "
           "row that changed gets new horizontal spins and a new weight node",
           "tests/test_lattice.py::test_worked_example_two_states"),
    Mutant("weight-chain-to-root",
           "src/sixvertex/lattice.py",
           "chain[r + 1] = [chain[r], ",
           "chain[r + 1] = [chain[0], ",
           "the weight chain: a rebuilt row's node continues the product of the "
           "rows above it, not the empty product",
           "tests/test_lattice.py::test_worked_example_two_states"),
    Mutant("constructed-chain-to-root",
           "src/sixvertex/lattice.py",
           "node = [node, [row, None], None]",
           "node = [node[0] or node, [row, None], None]",
           "the chain of a constructed state: each ice row's node continues the "
           "product of the rows above it, not the empty product",
           "tests/test_lattice.py::test_state_weight_matches_the_per_vertex_product"),
    Mutant("matched-pair-b2",
           "src/sixvertex/weights.py",
           "b2 = delta1_s * a1 * b1 / (delta2_s * a2)",
           "b2 = delta2_s * a1 * b1 / (delta1_s * a2)",
           "random_matched_pair: its pairs are returned as solved, with no "
           "recheck of the invariants",
           "tests/test_weights.py::test_invariants_match_residuals"),
    Mutant("solved-a1",
           "src/sixvertex/weights.py",
           "+ s.a1 * t.c1 * t.c2).exact_div(t.a1)",
           "- s.a1 * t.c1 * t.c2).exact_div(t.a1)",
           "solve_R_from_ST: a1 has one printed form, with no second form to "
           "compare it with",
           "tests/test_weights.py::test_solve_matches_r_family_on_ice_weights"),
    Mutant("spin-type",
           "src/sixvertex/lattice.py",
           "if type(spin) is not int or spin not in (1, -1):",
           "if spin not in (1, -1):",
           "the LatticeState edge: a spin must be the int 1 or -1, not a value "
           "equal to it",
           "tests/test_lattice.py::test_state_json_writes_int_spins"),
    Mutant("json-blocks-swapped",
           "src/sixvertex/poly.py",
           '"t": [{t}], "z": [{z}]',
           '"t": [{z}], "z": [{t}]',
           "the JSON writer: it renders the z and t blocks itself, with no "
           "exponent tuple to take them from",
           "tests/test_poly_oracle.py::test_writers_match_to_json_and_the_reference_renderer"),
    Mutant("text-memo-letter",
           "src/sixvertex/poly.py",
           "z_memo, t_memo = {}, {}",
           "z_memo = t_memo = {}",
           "the writers' block memo: equal z and t bits stand for different "
           "variables, so the text of a t block must not serve a z block",
           "tests/test_poly.py::test_canonical_order_and_text_rendering"),
    Mutant("prod-fold-coefficient",
           "src/sixvertex/poly.py",
           "coeff = c if coeff is None else coeff * c",
           "coeff = c",
           "prod's fold of one-term factors: their coefficients multiply into "
           "one running coefficient",
           "tests/test_poly.py::test_prod_matches_the_left_fold_of_products"),
    Mutant("prod-hull-test-off",
           "src/sixvertex/poly.py",
           "if ((hull + mono) | mono) & space._guard:",
           "if False:",
           "prod's overflow test: a folded one-term factor must raise at the "
           "factor where the left fold raises",
           "tests/test_poly.py::test_prod_overflows_at_the_same_factor_as_the_fold"),
    Mutant("prod-hull-carry",
           "src/sixvertex/poly.py",
           "if ((hull + mono) | mono) & space._guard:",
           "if (hull + mono) & space._guard:",
           "prod's overflow test: a folded field past the limit can carry out "
           "of hull + mono, so the folded monomial's own guard bits count",
           "tests/test_poly.py::test_prod_of_one_term_factors_overflows_at_the_same_factor_"
           "as_the_fold[folded-field-past-the-limit]"),
    Mutant("weak-walked-strict",
           "src/sixvertex/lattice.py",
           "if not strict or len(row) < 3:",
           "if len(row) < 3:",
           "the GT walker: weak interleaving lets equal neighbours, which the "
           "Schur pattern sums need, so only a strict walk drops them",
           "tests/test_lattice.py::test_interleavers"),
    Mutant("row-sum-products-stored",
           "src/sixvertex/lattice.py",
           "done = below_sums[row] = _dot(space, pairs)",
           "done = below_sums[row] = Polynomial._raw(space, {"
           "m1 + m2: c1 * c2 for f, below in pairs "
           "for m1, c1 in f._terms.items() for m2, c2 in below._terms.items()})",
           "row_sum's one term map per GT row: term products of different next "
           "rows meet at one monomial and must add, not overwrite",
           "tests/test_lattice.py::test_tokuyama_sum_matches_the_recursion_of_products[True]"),
    Mutant("tokuyama-shape-without-row",
           "src/sixvertex/lattice.py",
           "shape = (j, sum(above) - sum(row), ties, free)",
           "shape = (0, sum(above) - sum(row), ties, free)",
           "tokuyama_sum's factor memo: a factor carries z_{j+1} (and t_{j+1} "
           "per row), so its shape must hold the row index j",
           "tests/test_lattice.py::test_tokuyama_sum_matches_the_recursion_of_products[False]"),
    Mutant("swap-conjugate-rows-only",
           "src/sixvertex/yang_baxter.py",
           "return PolyMatrix([[m[r, c] for c in order] for r in order])",
           "return PolyMatrix([[m[r, c] for c in range(4)] for r in order])",
           "_swap_conjugate: P m P exchanges columns 1 and 2 as well as rows",
           "tests/test_yang_baxter.py::test_ddagger_and_hatted_definitions"),
    Mutant("permute-z-only",
           "src/sixvertex/poly.py",
           "for block in (0, 1):",
           "for block in (0,):",
           "permute_rank_variables: sigma moves each t_i with its z_i",
           "tests/test_poly.py::test_permute_rank_variables"),
    Mutant("exact-div-one-term-early",
           "src/sixvertex/poly.py",
           "while remainder:",
           "while len(remainder) > 1:",
           "exact_div: the division ends only when the remainder is empty",
           "tests/test_poly.py::test_exact_div_inverts_multiplication"),
    Mutant("bialternant-last-factor-skipped",
           "src/sixvertex/schur.py",
           "range(i + 1, n)",
           "range(i + 1, n - 1)",
           "the bialternant by linear factors: it divides by z_i - z_j for "
           "every i < j, also for j = n",
           "tests/test_schur.py::test_small_schur_values"),
    Mutant("dot-repeat-stored",
           "src/sixvertex/poly.py",
           "terms[mono] = c1 * c2 if acc is None else acc + c1 * c2",
           "terms[mono] = c1 * c2",
           "_dot: a term product whose monomial is already stored adds to it",
           "tests/test_poly.py::test_ring_axioms_on_random_samples"),
    Mutant("accumulate-keeps-zero",
           "src/sixvertex/poly.py",
           "del terms[mono]",
           "terms[mono] = acc",
           "_accumulate, the one merge under +, -, poly_sum and substitute: a "
           "sum that cancels is dropped, never stored as a zero coefficient",
           "tests/test_poly.py::test_sums_and_differences_match_a_term_map_oracle"),
    Mutant("poly-sum-addend-dropped",
           "src/sixvertex/poly.py",
           "    for p in addends:",
           "    for p in list(addends)[1:]:",
           "poly_sum: every addend goes into the sum",
           "tests/test_poly.py::test_every_space_check_gives_one_mismatch_message[poly_sum]"),
    Mutant("exponent-guard-off",
           "src/sixvertex/poly.py",
           "if functools.reduce(operator.or_, monos, 0) & self._guard:",
           "if False:",
           "the exponent guard: an exponent at the limit raises, never wraps "
           "into the next field",
           "tests/test_poly.py::test_prod_overflows_at_the_same_factor_as_the_fold"),
    Mutant("transfer-trace-off-diagonal",
           "src/sixvertex/lattice.py",
           "if right == left:",
           "if True:",
           "transfer_matrix: the periodic row is the trace of the monodromy, "
           "right spin equal to left",
           "tests/test_lattice.py::test_transfer_matrix_single_column"),
    Mutant("vertex-entry-e-s-swapped",
           "src/sixvertex/weights.py",
           "return 2 * (e < 0) + (s < 0), 2 * (w < 0) + (n < 0)",
           "return 2 * (s < 0) + (e < 0), 2 * (w < 0) + (n < 0)",
           "the vertex rule: the weight sits at end2()[2E+S, 2W+N]",
           "tests/test_acceptance.py::test_criterion_01_gamma_factorization_on_partition_grid"),
    Mutant("rule-swallows-guard",
           "src/sixvertex/checks.py",
           "    except GuardError:\n        raise\n",
           "",
           "checks.run: a GuardError is a refusal before any work, which exits "
           "2, not a FAIL of the check it stopped",
           "tests/test_cli.py::test_verify_group_law_rejects_zero_samples"),
    Mutant("dot-minus-adds",
           "src/sixvertex/poly.py",
           "acc - c1 * c2",
           "acc + c1 * c2",
           "_dot's signed accumulation: a product in minus at a stored "
           "monomial is subtracted from it",
           "tests/test_poly.py::test_dot_minus_equals_the_dot_of_negated_left_factors"),
    Mutant("dot-minus-first-unsigned",
           "src/sixvertex/poly.py",
           "-(c1 * c2) if acc is None",
           "c1 * c2 if acc is None",
           "_dot's signed accumulation: a product in minus at a new monomial "
           "is stored negated",
           "tests/test_poly.py::test_dot_minus_equals_the_dot_of_negated_left_factors"),
    Mutant("matmul-row-zero-kept",
           "src/sixvertex/poly.py",
           "if not all(terms.values()):",
           "if False:",
           "the matrix product: each entry is one _dot, whose end step drops "
           "the coefficients that cancelled",
           "tests/test_matrix.py::test_matmul_matches_the_textbook_sum[fraction]"),
    Mutant("gaussian-eq-ignores-imaginary",
           "src/sixvertex/poly.py",
           "return not self.im and self.re == other",
           "return self.re == other",
           "GaussianRational's == on an int or a Fraction: a value with an "
           "imaginary part equals no real number",
           "tests/test_poly_oracle.py::test_gaussian_operators_match_the_textbook_formulas"),
    Mutant("draw-denominator-shifted",
           "src/sixvertex/weights.py",
           "Fraction(k, d) for d in range(1, 10)",
           "Fraction(k, d) for d in range(2, 11)",
           "the table of draws: row k holds k/d for d = 1..9, the values of "
           "randint(1, 9)",
           "tests/test_weights.py::test_draw_streams_are_pinned[free-fermionic-C-1]"),
    Mutant("delta-sign-dropped",
           "src/sixvertex/weights.py",
           "VertexWeights(*(-getattr(inverse, f) for f in VertexWeights._FIELDS))",
           "VertexWeights(*(getattr(inverse, f) for f in VertexWeights._FIELDS))",
           "r_weights_params: the scaled inverse of a Delta Y carries the scalar "
           "-(d1 d2), so it is negated",
           "tests/test_weights.py::test_r_families_equal_the_printed_tables"),
    Mutant("commutator-second-side-added",
           "src/sixvertex/matrix.py",
           "cell[side].append((entry, last_entry))",
           "cell[side and not middle].append((entry, last_entry))",
           "_matdot's chain product: the paths of a minus chain of three "
           "factors, such as T23 S13 R12 in yb_commutator, are filed with the "
           "subtracted pairs",
           "tests/test_yang_baxter.py::test_commutator_matches_the_star_triangle_sides_"
           "on_the_ice_families"),
    Mutant("commutator-pair-guard-dropped",
           "src/sixvertex/matrix.py",
           "_dot(space, ((entry, next_entry),))",
           "Polynomial._raw(space, {m1 + m2: c1 * c2 for m1, c1 in entry._terms.items() "
           "for m2, c2 in next_entry._terms.items()})",
           "_matdot's middle products: three exponents below the limit can carry "
           "past their field, so a path's product through a middle factor is a "
           "_dot, which tests its guard bits",
           "tests/test_yang_baxter.py::test_commutator_keeps_the_exponent_guard"),
    Mutant("matdot-minus-adds",
           "src/sixvertex/matrix.py",
           "cell[side].append((entry, last_entry))",
           "cell[0].append((entry, last_entry))",
           "_matdot's row pass: a product in minus is filed with its entry's "
           "subtracted pairs",
           "tests/test_matrix.py::test_matdot_subtracts_its_minus_pairs[int]"),
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


# pytest's exit codes for a test that was not found or not collected
NOT_FOUND = (4, 5)


def run_one(mutant: Mutant | None) -> tuple[str, float, str]:
    """The outcome (passed, failed, killed, survived or stale), seconds, and
    detail; a detail that starts with STALE KILLER says the killer missed."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="sixvertex-mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        code, detail, note = 0, "", ""
        if mutant is not None:
            target = dest / mutant.path
            source = target.read_text()
            found = source.count(mutant.text)
            if found != 1:
                return "stale", 0.0, f"text found {found} times in {mutant.path}"
            target.write_text(source.replace(mutant.text, mutant.replacement))
            code, detail = run_pytest(dest, [mutant.killer])
            if code != 0 and code not in NOT_FOUND:
                return "killed", time.perf_counter() - start, detail
            note = (f"STALE KILLER {mutant.killer} "
                    f"({'passed' if code == 0 else 'not found'}); then ")
            # the module's own tests are a fraction of the suite; the whole
            # suite runs only if they pass
            targets = module_tests(dest, mutant.path)
            code = 0
            if targets:
                code, detail = run_pytest(dest, targets)
        if code == 0:
            code, detail = run_pytest(dest, ["tests"])
    seconds = time.perf_counter() - start
    if mutant is None:
        return ("passed" if code == 0 else "failed"), seconds, detail
    return ("survived" if code == 0 else "killed"), seconds, note + detail


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
        if outcome != "killed" or detail.startswith("STALE KILLER"):
            print(f"  breaks {mutant.breaks}", flush=True)
            bad += 1
    print(f"{len(chosen) - bad}/{len(chosen)} mutants killed by their killers "
          f"in {time.perf_counter() - start:.1f} s", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
