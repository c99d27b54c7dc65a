"""Spans around the public functions of each reeshk layer, recorded from outside.

`Tracer.install()` replaces each function listed in LAYERS by a wrapper
that records a span (name, start, end, parent span, command id) and the
layer's work counts, computed from the call's arguments and return
value.  A function is rebound in every reeshk module that holds it,
not only where it is defined: `binomial_groebner` imports `minimalize`
by name, `cli` imports `buchberger` and `cm_sop_hk`, and calls through
those names would otherwise go unseen.  Methods are wrapped on the
class.  Spans stay in memory; `layer_metrics` folds them into per-layer
totals, where a span's self time is its duration minus its children's.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from math import prod
from typing import Any, Callable, NamedTuple, Optional

Counts = dict[str, int]


def _listify(index: int) -> Callable[[tuple], tuple]:
    # the wrapped call consumes an iterable argument once; keep it countable
    def pre(args: tuple) -> tuple:
        return (*args[:index], list(args[index]), *args[index + 1 :])

    return pre


class Layer(NamedTuple):
    module: str
    qualname: str  # "function" or "Class.method"
    counts: Optional[Callable[[tuple, Any], Counts]] = None
    pre: Optional[Callable[[tuple], tuple]] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname.split('.')[-1]}"


LAYERS = (
    Layer(
        "monomial_algebra", "minimalize",
        lambda a, r: {"gens_in": len(a[0]), "gens_kept": len(r.gens)}, _listify(0),
    ),
    Layer(
        "monomial_algebra", "MonomialIdeal.product",
        lambda a, r: {"pairs": len(a[0].gens) * len(a[1].gens)},
    ),
    Layer(
        "monomial_algebra", "MonomialIdeal.colength",
        lambda a, r: {"box_points": prod(a[0].primary_box()), "gens": len(a[0].gens)},
    ),
    Layer(
        "binomial_groebner", "buchberger",
        lambda a, r: {"gens_in": len(a[1]), "basis_out": len(r.monomials)}, _listify(1),
    ),
    Layer("binomial_groebner", "quotient_colength"),
    Layer("binomial_groebner", "ideals_equal", lambda a, r: {"equal": int(r)}),
    Layer("rees_oracle", "rees_colength_dim1"),
    Layer("rees_oracle", "rees_colength_monomial"),
    Layer("rees_oracle", "alpha_table"),
    Layer("rees_oracle", "fit_quasi_polynomial"),
    Layer("rees_oracle", "estimate_ehk"),
    Layer("polynomials", "interpolate"),
    Layer("hk_formulas", "cm_sop_hk"),
    Layer("hk_formulas", "cordim1_hk"),
    Layer("hk_formulas", "sop_dim1_hk"),
    Layer("cli", "main"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    command: int
    counts: Optional[Counts]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.command = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        spans, stack, name = self.spans, self._stack, layer.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layer.pre is not None:
                args = layer.pre(args)
            index = len(spans)
            spans.append(None)  # reserve the slot so children point at it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = Span(name, start, time.perf_counter(), parent, self.command, None)
                stack.pop()
            if layer.counts is not None:
                spans[index] = spans[index]._replace(counts=layer.counts(args, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function wherever reeshk modules hold it."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "reeshk" or key.startswith("reeshk.")
        ]
        for layer in LAYERS:
            home = importlib.import_module(f"reeshk.{layer.module}")
            owner_name, _, attr = layer.qualname.rpartition(".")
            owner = getattr(home, owner_name) if owner_name else home
            original = vars(owner)[attr]
            wrapper = self._wrap(layer, original)
            holders = [owner] if owner_name else [
                mod for mod in modules if vars(mod).get(attr) is original
            ]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()


def layer_metrics(spans: list[Span], scales: list[float]) -> dict[str, float]:
    """Per-layer calls, self time and summed work counts.

    scales[c] turns a measured time in command c into reference-speed time.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer.name}.calls"] = 0
        out[f"{layer.name}.self_s"] = 0.0
    out["rees_oracle.rees_colength_dim1.tail_steps"] = 0
    for i, span in enumerate(spans):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += (span.end - span.start - child_time[i]) * scales[span.command]
        for key, value in (span.counts or {}).items():
            out[f"{span.name}.{key}"] = out.get(f"{span.name}.{key}", 0) + value
        if span.name == "binomial_groebner.ideals_equal" and span.counts == {"equal": 0}:
            # a failed equality check under the dim1 oracle is one more tail step
            # before the graded pieces stabilise
            if _has_ancestor(spans, span, "rees_oracle.rees_colength_dim1"):
                out["rees_oracle.rees_colength_dim1.tail_steps"] += 1
    gens_in = out.get("monomial_algebra.minimalize.gens_in", 0)
    out["monomial_algebra.minimalize.kept_ratio"] = (
        out["monomial_algebra.minimalize.gens_kept"] / gens_in if gens_in else 0.0
    )
    return out


def _has_ancestor(spans: list[Span], span: Span, name: str) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False
