"""Span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps public functions and methods of the ``sixvertex``
modules.  A wrapped module function is replaced in every ``sixvertex``
module namespace that imported it, and a wrapped method under every class
attribute bound to it (``__radd__`` is ``__add__``), so calls through any
name are seen.  Each call records a span: layer name, start, end, parent
span and op id.  Spans stay in memory until :meth:`Tracer.flush`, which
folds them into per-layer self times and clears them; the benchmark
flushes after every op, so memory stays bounded by the largest op.

A span's self time is its duration minus the durations of its child
spans.  Calls are single-threaded and strictly nested, so the children of
a span never overlap, every self time is non-negative and the self times
of an op's spans add up to the duration of its root span; :meth:`flush`
checks both.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator

# Layer name -> the functions whose calls are that layer's spans, given as
# "module:qualified.name".
LAYERS = {
    "cli.main": ["sixvertex.cli:main"],
    "lattice.partition_function": ["sixvertex.lattice:partition_function"],
    "lattice.enumerate_states": ["sixvertex.lattice:enumerate_states"],
    "lattice.state_weight": ["sixvertex.lattice:state_weight"],
    "lattice.tokuyama_sum": ["sixvertex.lattice:tokuyama_sum"],
    "lattice.transfer_matrix": ["sixvertex.lattice:transfer_matrix"],
    "schur.schur_bialternant": ["sixvertex.schur:schur_bialternant"],
    "schur.deformed_denominator": ["sixvertex.schur:deformed_denominator"],
    "schur.schur_pattern_sum": ["sixvertex.schur:schur_pattern_sum"],
    "poly.mul": ["sixvertex.poly:Polynomial.__mul__"],
    "poly.div": ["sixvertex.poly:Polynomial.exact_div"],
    "poly.add": ["sixvertex.poly:Polynomial.__add__",
                 "sixvertex.poly:Polynomial.__sub__",
                 "sixvertex.poly:poly_sum"],
    "poly.serialize": ["sixvertex.poly:Polynomial.to_json",
                       "sixvertex.poly:Polynomial.__str__"],
    "matrix.matmul": ["sixvertex.matrix:PolyMatrix.__matmul__"],
    "yang_baxter.yb_commutator": ["sixvertex.yang_baxter:yb_commutator"],
    "yang_baxter.lift": ["sixvertex.yang_baxter:lift"],
    "yang_baxter.check": ["sixvertex.yang_baxter:check_ice_commutator",
                          "sixvertex.yang_baxter:check_parametrized_ybe",
                          "sixvertex.yang_baxter:check_yb_system",
                          "sixvertex.yang_baxter:check_triangularity"],
    "weights.compose": ["sixvertex.weights:compose"],
    "weights.solve_R_from_ST": ["sixvertex.weights:solve_R_from_ST"],
    "weights.build": ["sixvertex.weights:gamma", "sixvertex.weights:delta",
                      "sixvertex.weights:ice_weights",
                      "sixvertex.weights:r_weights",
                      "sixvertex.weights:r_weights_params",
                      "sixvertex.weights:pi_map"],
}

# The root span the benchmark opens around each op.
ROOT = "op"

# An operand of at most this many terms makes a multiply "tiny".
TINY_TERMS = 4

# Tolerance for the self-time partition check, in seconds.
PARTITION_TOLERANCE_S = 1e-6


def _nterms(value: object) -> int:
    """Term count of a polynomial operand; a scalar operand counts as one.

    Reads the term map directly: ``Polynomial.terms()`` sorts, which would
    cost more than the multiply being measured.
    """
    terms = getattr(value, "_terms", None)
    return 1 if terms is None else len(terms)


def _resolve(target: str) -> tuple[object, Callable]:
    """The class or module that defines a target, and the target itself."""
    module_name, qualname = target.split(":")
    owner = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, inspect.getattr_static(owner, attr)


class Tracer:
    """Records spans for calls into the wrapped sixvertex functions."""

    def __init__(self) -> None:
        self._names: list[str] = [ROOT] + list(LAYERS)
        self._name_id = {name: i for i, name in enumerate(self._names)}
        self._span_name = array("i")
        self._span_parent = array("l")
        self._span_op = array("l")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        # States passed to state_weight, kept while collect_states is set.
        self.collect_states = False
        self.states: list = []

    # -- spans -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self._span_start)
        self._span_name.append(name_id)
        self._span_parent.append(self._stack[-1] if self._stack else -1)
        self._span_op.append(self._op)
        self._span_end.append(0.0)
        self._stack.append(idx)
        self._span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._span_end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The root span of one benchmark op."""
        self._op = op_id
        idx = self._open(self._name_id[ROOT])
        try:
            yield
        finally:
            self._close(idx)
            self._op = -1

    def flush(self) -> float:
        """Fold the recorded spans into self times and forget them.

        Returns the summed duration of the root spans.  Raises RuntimeError
        if the self times do not partition the root spans.
        """
        if self._stack:
            raise RuntimeError("flush with open spans")
        count = len(self._span_start)
        duration = [self._span_end[i] - self._span_start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            parent = self._span_parent[i]
            if parent >= 0:
                child[parent] += duration[i]
        root_total = self_total = 0.0
        for i in range(count):
            own = duration[i] - child[i]
            if own < -PARTITION_TOLERANCE_S:
                raise RuntimeError(
                    f"span {self._names[self._span_name[i]]} is shorter than "
                    f"its children by {-own} s")
            self.self_s[self._names[self._span_name[i]]] += own
            self_total += own
            if self._span_parent[i] < 0:
                root_total += duration[i]
        if abs(self_total - root_total) > PARTITION_TOLERANCE_S:
            raise RuntimeError(f"self times sum to {self_total} s, "
                               f"root spans to {root_total} s")
        self.counts["spans"] += count
        for column in (self._span_name, self._span_parent, self._span_op,
                       self._span_start, self._span_end):
            del column[:]
        return root_total

    # -- wrappers --------------------------------------------------------

    def _count(self, layer: str, args: tuple, result: object) -> None:
        counts = self.counts
        if layer == "poly.mul":
            left, right = _nterms(args[0]), _nterms(args[1])
            counts["poly.mul.term_pairs"] += left * right
            counts["poly.mul.terms_out"] += _nterms(result)
            counts["poly.mul.tiny"] += min(left, right) <= TINY_TERMS
        elif layer == "poly.div":
            counts["poly.div.dividend_terms"] += _nterms(args[0])
            counts["poly.div.quotient_terms"] += _nterms(result)
        elif layer == "lattice.state_weight" and self.collect_states:
            self.states.append(args[0])

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        name_id = self._name_id[layer]
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[layer] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(name_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.counts[layer + ".yields"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._count(layer, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every function in LAYERS under every name bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "sixvertex" or name.startswith("sixvertex.")]
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, original = _resolve(target)
                wrapper = self._wrap(layer, original)
                owners = [owner] if inspect.isclass(owner) else modules
                for holder in owners:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, attr, original))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back where install found it."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()
