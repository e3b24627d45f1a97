"""Spans around the calls into each layer of the package, for the traced run.

Wrappers replace the package's public functions in every module that binds
them (a name imported with `from .x import f` is a separate binding), and
`RepunitModulus.reduce` on its class.  Each call records a span: its name,
start, end and parent span, in flat arrays so that a traced op of hundreds
of thousands of calls stays a few MB.  The arrays hold the spans of one op
only: after each op, outside the timed region, they are folded into
per-layer self time and call counts and cleared.  Self time is a span's
duration minus the spans of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

# span name -> (module that defines it, attribute)
TARGETS = {
    "criterion.run_test": ("criterion", "run_test"),
    "criterion.sweep": ("criterion", "sweep"),
    "criterion.product_naive": ("criterion", "product_naive"),
    "criterion.product_structured": ("criterion", "product_structured"),
    "modmath.build_modulus": ("modmath", "build_modulus"),
    "modmath.fold_reduce_pow2": ("modmath", "fold_reduce_pow2"),
    "modmath.mult_order": ("modmath", "mult_order"),
    "cosets.decompose": ("cosets", "decompose"),
    "oracle.is_prime_trial": ("oracle", "is_prime_trial"),
    "cyclotomic.verify_lemma": ("cyclotomic", "verify_lemma"),
    "cyclotomic.cyclotomic_poly": ("cyclotomic", "cyclotomic_poly"),
}
REDUCE = "modmath.RepunitModulus.reduce"
ROOT = "cli.main"
SPAN_NAMES = (ROOT, REDUCE, *TARGETS)

# per-layer metric -> (span name, what to take from it)
LAYER_METRICS = {
    "cli.self_ms": (ROOT, "ms"),
    "criterion.self_ms": (("criterion.run_test", "criterion.sweep"), "ms"),
    "criterion.naive_ms": ("criterion.product_naive", "ms"),
    "criterion.naive_calls": ("criterion.product_naive", "calls"),
    "criterion.structured_ms": ("criterion.product_structured", "ms"),
    "criterion.structured_calls": ("criterion.product_structured", "calls"),
    "modmath.reduce_ms": (REDUCE, "ms"),
    "modmath.reduce_calls": (REDUCE, "calls"),
    "modmath.fold_ms": ("modmath.fold_reduce_pow2", "ms"),
    "modmath.fold_calls": ("modmath.fold_reduce_pow2", "calls"),
    "modmath.build_ms": ("modmath.build_modulus", "ms"),
    "modmath.build_calls": ("modmath.build_modulus", "calls"),
    "modmath.mult_order_ms": ("modmath.mult_order", "ms"),
    "cosets.decompose_ms": ("cosets.decompose", "ms"),
    "cosets.decompose_calls": ("cosets.decompose", "calls"),
    "oracle.is_prime_ms": ("oracle.is_prime_trial", "ms"),
    "oracle.is_prime_calls": ("oracle.is_prime_trial", "calls"),
    "cyclotomic.verify_lemma_ms": ("cyclotomic.verify_lemma", "ms"),
    "cyclotomic.verify_lemma_calls": ("cyclotomic.verify_lemma", "calls"),
    "cyclotomic.poly_ms": ("cyclotomic.cyclotomic_poly", "ms"),
    "cyclotomic.poly_calls": ("cyclotomic.cyclotomic_poly", "calls"),
}


class Recorder:
    """In-memory spans of the current op, and per-span-name totals over all ops."""

    def __init__(self) -> None:
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.ops = 0  # ops folded so far
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.calls = [0] * len(SPAN_NAMES)
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn):
        nid = self.ids[span]
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace every binding of the traced functions in the loaded package."""
        modules = {n: m for n, m in sys.modules.items() if n == "vantieghem" or n.startswith("vantieghem.")}
        for span, (home, attr) in TARGETS.items():
            original = getattr(modules.get(f"vantieghem.{home}"), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(span, original)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        cls = getattr(modules.get("vantieghem.modmath"), "RepunitModulus", None)
        if cls is not None and "reduce" in vars(cls):
            self._patch(cls, "reduce", self.wrap(REDUCE, vars(cls)["reduce"]))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def fold(self) -> None:
        """Add the current op's spans to the totals and clear them."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        for i, nid in enumerate(self.name):
            self.self_s[nid] += dur[i] - child[i]
            self.calls[nid] += 1
        for a in (self.name, self.parent, self.start, self.end):
            del a[:]
        self.ops += 1

    def per_op(self) -> dict[str, float]:
        """Every per-layer metric, averaged over the traced ops."""
        out = {}
        for metric, (spans, what) in LAYER_METRICS.items():
            ids = [self.ids[s] for s in ((spans,) if isinstance(spans, str) else spans)]
            if what == "ms":
                total = sum(self.self_s[i] for i in ids) * 1000.0
            else:
                total = sum(self.calls[i] for i in ids)
            out[metric] = total / self.ops if self.ops else 0.0
        return out
