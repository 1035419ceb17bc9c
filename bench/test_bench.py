"""Tests for the benchmark itself, on tiny inputs.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _tiny(name: str) -> list[workloads.Op]:
    return workloads.build(name, workloads.DEFAULT_SEED, tiny=True)


def _serialized(out: object) -> str:
    if isinstance(out, workloads.CliResult):
        return repr(out)
    return json.dumps([value.to_json() for value in out], sort_keys=True)


def _namespaces() -> dict:
    """Every namespace the tracer patches, copied."""
    from sixvertex.matrix import PolyMatrix
    from sixvertex.poly import Polynomial

    found = {name: dict(vars(module)) for name, module in sys.modules.items()
             if name == "sixvertex" or name.startswith("sixvertex.")}
    found["Polynomial"] = dict(vars(Polynomial))
    found["PolyMatrix"] = dict(vars(PolyMatrix))
    return found


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_smoke_run_passes_every_oracle(name):
    # seconds=0 runs exactly one round
    result = measure.measure(_tiny(name), 0, False, pins={})
    assert len(result["rounds"]) == 1
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] == len(result["ops"])
    assert all(op["sizes"] for op in result["ops"])
    assert result["peak_rss_mib"] > 0


def test_oracle_failure_is_counted():
    ops = _tiny("divide")
    wrong = workloads.Op(ops[0].key, lambda: ops[1].run(), ops[0].check)
    result = measure.measure([wrong] + ops[1:], 0, False, pins={})
    assert result["failed"] == 1
    pinned = {ops[0].key: {"schur_terms": -1}}
    assert measure.measure(ops, 0, False, pins=pinned)["failed"] == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracing_leaves_outputs_byte_identical(name):
    ops = _tiny(name)
    plain = []
    for op in ops:
        measure.clear_caches()
        plain.append(_serialized(op.run()))
    traced = []
    with spans.Tracer():
        for op in ops:
            measure.clear_caches()
            traced.append(op.run())
    assert [_serialized(out) for out in traced] == plain


def test_wrappers_reach_every_name_and_are_removed():
    import sixvertex
    from sixvertex import cli, lattice, schur
    from sixvertex.poly import Polynomial

    before = _namespaces()
    original = lattice.partition_function
    tracer = spans.Tracer()
    with tracer:
        wrapped = lattice.partition_function
        assert wrapped is not original
        assert (sixvertex.partition_function is cli.partition_function
                is schur.partition_function is wrapped)
        assert Polynomial.__radd__ is Polynomial.__add__
        assert vars(Polynomial)["__mul__"].__wrapped__ is before["Polynomial"]["__mul__"]
    after = _namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        changed = [attr for attr, value in namespace.items()
                   if after[name][attr] is not value]
        assert not changed, (name, changed)


@pytest.mark.parametrize("name", ["lattice", "divide"])
def test_self_times_partition_the_root_span(name):
    tracer = spans.Tracer()
    with tracer:
        for i, op in enumerate(_tiny(name)):
            measure.clear_caches()
            before = sum(tracer.self_s.values())
            with tracer.op(i):
                op.run()
            root = tracer.flush()
            assert sum(tracer.self_s.values()) - before == pytest.approx(root, abs=1e-6)
    assert all(value >= 0 for value in tracer.self_s.values())
    assert tracer.self_s["poly.mul"] > 0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_isolation_between_workloads(name):
    result = measure.measure(_tiny(name), 0, True, pins={})
    assert result["failed"] == 0, result["errors"]
    layers = {key: metric["value"] for key, metric in result["layers"].items()}
    assert set(layers) == {metric for metric, _ in measure.PER_LAYER}
    state_sum = ("lattice.state_weight.calls", "lattice.partition_function.calls",
                 "lattice.enumerate_states.states")
    if name == "lattice":
        assert all(layers[key] > 0 for key in state_sum)
        assert layers["lattice.row_pairs.reuse"] > 1
    else:
        assert all(layers[key] == 0 for key in state_sum)
    if name == "algebra":
        assert layers["matrix.matmul.calls"] > 0
    else:
        assert layers["matrix.matmul.calls"] == 0
    if name == "divide":
        assert layers["poly.div.calls"] > 0


def test_seeded_inputs_repeat_and_pins_cover_both_seeds():
    pins = json.loads(measure.PINS_PATH.read_text())
    for name in workloads.WORKLOADS:
        keys = {}
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            keys[seed] = [op.key for op in workloads.build(name, seed)]
            assert keys[seed] == [op.key for op in workloads.build(name, seed)]
            assert set(keys[seed]) <= pins.keys()
        if name != "algebra":
            assert (set(keys[workloads.DEFAULT_SEED])
                    != set(keys[workloads.HELD_OUT_SEED]))


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert ([(m["name"], m["unit"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]]
            == list(measure.PER_LAYER))


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "algebra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
