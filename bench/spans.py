"""Span tracing of jd3's layers, installed from outside the package.

`install()` replaces the functions and methods named in `LAYERS` by
wrappers that record one span per call: name, start, end, thread and the
span that was open on that thread when the call began (its parent).  A
span's self time is its duration minus the durations of its direct child
spans.  Each thread keeps its own stack of open spans, so calls made from a
thread pool nest under their own thread's spans, never under another's.  Every module of
the package that imported a traced function by name gets the wrapper too,
so calls through `from .x import f` aliases are traced as well.

Next to the spans the wrappers keep exact counters (polynomial term pairs
multiplied, rows fed to `rank`, rows that enlarged a `RowSpan`) and the
slices returned by the slice builders, from which per-slice facts are read
after the timed region.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field

# layer metric prefix -> (module, attribute path of the traced callable)
LAYERS: dict[str, tuple[str, str]] = {
    "verifier.odd": ("jd3.verifier", "verify_odd_vanishing"),
    "verifier.even": ("jd3.verifier", "verify_even_dims"),
    "verifier.lemma": ("jd3.verifier", "verify_lemma"),
    "verifier.asym": ("jd3.verifier", "verify_asymptotics"),
    "verifier.props": ("jd3.verifier", "verify_properties"),
    "diagram_spaces.tet_slice": ("jd3.diagram_spaces", "tet_slice"),
    "diagram_spaces.ihx_image_slice": ("jd3.diagram_spaces", "ihx_image_slice"),
    "diagram_spaces.subring_family_slice": ("jd3.diagram_spaces", "subring_family_slice"),
    "diagram_spaces.skew_row": ("jd3.diagram_spaces", "_SkewSliceContext.skew_row"),
    "diagram_spaces.eliminate_y4": ("jd3.diagram_spaces", "eliminate_y4"),
    "linalg.rank": ("jd3.linalg", "rank"),
    "linalg.qmatrix": ("jd3.linalg", "QMatrix.__init__"),
    "linalg.rowspan_add": ("jd3.linalg", "RowSpan.add"),
    "multipoly.mul": ("jd3.multipoly", "Poly.__mul__"),
    "multipoly.symmetrize": ("jd3.multipoly", "symmetrize"),
    "multipoly.q_poly": ("jd3.multipoly", "q_poly"),
    "multipoly.substitute": ("jd3.multipoly", "Poly.substitute"),
    "multipoly.divide_exact": ("jd3.multipoly", "divide_exact"),
    "multipoly.express_product_in_uvw": ("jd3.multipoly", "express_product_in_uvw"),
    "asymptotics.substituted_q": ("jd3.asymptotics", "substituted_q"),
    "asymptotics.substitute_regime": ("jd3.asymptotics", "substitute_regime"),
    "asymptotics.puiseux_mul": ("jd3.asymptotics", "PuiseuxPoly.__mul__"),
    "asymptotics.leading_term": ("jd3.asymptotics", "leading_term"),
}

SLICE_BUILDERS = ("tet_slice", "ihx_image_slice", "subring_family_slice")


@dataclass
class Tracer:
    # one span: [name, start_ns, end_ns, parent index or -1, ns covered by children, thread]
    spans: list[list] = field(default_factory=list)
    local: threading.local = field(default_factory=threading.local)
    counts: dict[str, int] = field(default_factory=dict)
    slices: dict[int, tuple[str, tuple, object]] = field(default_factory=dict)
    missing: set[str] = field(default_factory=set)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def bump(self, name: str, n: int) -> None:
        with self.lock:  # counters stay exact when layers run on several threads
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, observe=None):
        spans = self.spans
        local = self.local
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0, parent, 0, threading.get_ident()]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if observe is not None:
                try:
                    observe(args, result)
                except (AttributeError, TypeError, ValueError) as exc:
                    # a changed signature loses this counter, not the workload
                    self.missing.add(f"{name} counter: {type(exc).__name__}")
            return result

        return traced

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in LAYERS}
        for name, start, end, _parent, child_ns, _thread in self.spans:
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += (end - start) / 1e9
            s["self_s"] += (end - start - child_ns) / 1e9
        return stats

    def spans_json(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0
        threads: dict[int, int] = {}
        return [
            {
                "id": i,
                "name": name,
                "start_s": (start - origin) / 1e9,
                "end_s": (end - origin) / 1e9,
                "parent": parent if parent >= 0 else None,
                "self_s": (end - start - child_ns) / 1e9,
                "thread": threads.setdefault(thread, len(threads)),
            }
            for i, (name, start, end, parent, child_ns, thread) in enumerate(self.spans)
        ]


def _observers(tracer: Tracer) -> dict:
    def mul(args, result):
        a, b = args
        tracer.bump("multipoly.mul.term_pairs", len(a.terms) * len(b.terms))

    def rank(args, result):
        tracer.bump("linalg.rank.rows_in", args[0].rows)
        tracer.bump("linalg.rank.rank_out", result)

    def rowspan_add(args, result):
        tracer.bump("linalg.rowspan_add.enlarged", 1 if result else 0)

    def slice_builder(name):
        def observe(args, result):
            tracer.slices.setdefault(id(result), (name, args, result))

        return observe

    out = {
        "multipoly.mul": mul,
        "linalg.rank": rank,
        "linalg.rowspan_add": rowspan_add,
    }
    for b in SLICE_BUILDERS:
        out[f"diagram_spaces.{b}"] = slice_builder(b)
    return out


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "jd3" or n.startswith("jd3.")]


def install(tracer: Tracer) -> None:
    """Wrap every callable in LAYERS; absent ones are added to tracer.missing."""
    observers = _observers(tracer)
    packages = _package_modules()
    for name, (module_name, path) in LAYERS.items():
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            tracer.missing.add(name)
            continue
        wrapped = tracer.wrap(name, original, observers.get(name))
        if outer:
            setattr(owner, attr, wrapped)
            continue
        for module in packages:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def _coeff_bits(matrix) -> int:
    bits = 0
    for i in range(matrix.rows):
        for x in matrix.row(i):
            if x:
                bits = max(bits, abs(x.numerator).bit_length(), x.denominator.bit_length())
    return bits


def slice_facts(tracer: Tracer) -> list[dict]:
    """Facts of every distinct slice a traced builder returned, in call order.

    `generators_used` is the number of spanning-set rows the slice kept: for
    the spanning families, the generators consumed before the span reached
    the ambient rank; for `tet_slice`, one row per basis monomial.
    """
    facts = []
    for name, args, space in tracer.slices.values():
        try:
            matrix = space.span_matrix
            facts.append(
                {
                    "builder": name,
                    "args": [a for a in args if isinstance(a, (int, str))],
                    "dim": space.dim,
                    "generators_used": matrix.rows,
                    "basis_cols": len(space.basis),
                    "coeff_bits": _coeff_bits(matrix),
                }
            )
        except (AttributeError, TypeError) as exc:
            tracer.missing.add(f"{name} slice facts: {type(exc).__name__}")
    return facts


def lru_entries() -> int:
    """Entries held by the package's function caches at this moment."""
    total = 0
    seen = set()
    for module in _package_modules():
        for value in vars(module).values():
            info = getattr(value, "cache_info", None)
            if info is not None and id(value) not in seen:
                seen.add(id(value))
                total += info().currsize
    return total
