"""Spans around modsym's public entry points, recorded from outside the package.

Each entry point is wrapped once, and every module attribute of the
package that is bound to the original function is rebound to the
wrapper (``spectrum`` holds its own ``gibbs_moments``, the package root
re-exports most names).
Methods are wrapped on their class, which covers every caller.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name, size of the result); "Class.method"
# patches the class.  Sizes: bytes of an assembled operator, witness words
# of an irreducibility report.
ENTRY_POINTS = [
    ("modsym.cosets", "CosetTable.__init__", "cosets.table", None),
    ("modsym.shiftspace", "build_graph", "shiftspace.graph", None),
    ("modsym.shiftspace", "check_finitely_irreducible", "shiftspace.irreducible",
     lambda report: len(report.witnesses)),
    ("modsym.homology", "manin_presentation", "homology.presentation", None),
    ("modsym.homology", "cuspidal_basis", "homology.cuspidal", None),
    ("modsym.homology", "build_homology", "homology.build", None),
    ("modsym.thermo", "build_level_data", "thermo.level_data", None),
    ("modsym.thermo", "TransferOperator.assemble", "thermo.assemble", lambda L: L.nbytes),
    ("modsym.thermo", "TransferOperator.leading", "thermo.leading", None),
    ("modsym.thermo", "pressure_collocation", "thermo.pressure", None),
    ("modsym.thermo", "solve_beta", "thermo.solve_beta", None),
    ("modsym.thermo", "gibbs_moments", "thermo.moments", None),
    ("modsym.spectrum", "spectrum_point", "spectrum.point", None),
    ("modsym.spectrum", "legendre", "spectrum.legendre", None),
    ("modsym.spectrum", "limiting_symbol_periodic", "spectrum.periodic_symbol", None),
]


class Tracer:
    """Nested spans: [name, parent index, start, end, size of the result]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, parent, time.perf_counter(), None, 0]
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[3] = time.perf_counter()
            if size is not None:
                span[4] = size(result)
            return result

        return traced

    def records(self) -> list[dict]:
        """Every closed span with its duration and self time (duration minus children)."""
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0 and t1 is not None:
                child[parent] += t1 - t0
        return [
            {"id": i, "name": name, "parent": parent, "start": t0, "seconds": t1 - t0,
             "self_seconds": t1 - t0 - child[i], "size": size}
            for i, (name, parent, t0, t1, size) in enumerate(self.spans)
            if t1 is not None
        ]


# Per-layer metrics: (metric, unit, span name, what to add up per span, parent span
# name or None for any parent).
LAYER_METRICS = [
    ("cosets.table_s", "s", "cosets.table", "seconds", None),
    ("cosets.tables", "count", "cosets.table", "calls", None),
    ("shiftspace.graph_s", "s", "shiftspace.graph", "seconds", None),
    ("shiftspace.irreducible_s", "s", "shiftspace.irreducible", "seconds", None),
    ("shiftspace.witness_words", "count", "shiftspace.irreducible", "size", None),
    ("homology.presentation_s", "s", "homology.presentation", "seconds", None),
    ("homology.cuspidal_s", "s", "homology.cuspidal", "seconds", None),
    ("homology.build_s", "s", "homology.build", "seconds", None),
    ("thermo.assemble_s", "s", "thermo.assemble", "seconds", None),
    ("thermo.assemble_calls", "count", "thermo.assemble", "calls", None),
    ("thermo.operator_bytes", "B", "thermo.assemble", "size", None),
    ("thermo.leading_s", "s", "thermo.leading", "seconds", None),
    ("thermo.leading_calls", "count", "thermo.leading", "calls", None),
    ("thermo.pressure_s", "s", "thermo.pressure", "seconds", None),
    ("thermo.pressure_calls", "count", "thermo.pressure", "calls", None),
    ("thermo.solve_beta_s", "s", "thermo.solve_beta", "seconds", None),
    ("thermo.brent_evals", "count", "thermo.pressure", "calls", "thermo.solve_beta"),
    ("thermo.moments_s", "s", "thermo.moments", "seconds", None),
    ("thermo.self_check_solves", "count", "thermo.pressure", "calls", "thermo.moments"),
    ("thermo.self_check_s", "s", "thermo.pressure", "seconds", "thermo.moments"),
    ("spectrum.point_s", "s", "spectrum.point", "seconds", None),
    ("spectrum.legendre_s", "s", "spectrum.legendre", "seconds", None),
    ("spectrum.legendre_moments_calls", "count", "thermo.moments", "calls", "spectrum.legendre"),
    ("spectrum.periodic_symbol_s", "s", "spectrum.periodic_symbol", "seconds", None),
]


def layer_totals(records: list[dict], since: float, rounds: int) -> dict:
    """Each per-layer metric summed over spans that began at or after ``since``, per round."""
    by_id = {r["id"]: r for r in records}
    out = {}
    for metric, unit, name, what, parent in LAYER_METRICS:
        total = 0.0
        for r in records:
            if r["name"] != name or r["start"] < since:
                continue
            if parent is not None and by_id.get(r["parent"], {}).get("name") != parent:
                continue
            total += 1 if what == "calls" else r[what]
        out[metric] = (total / rounds, unit)
    return out


@contextmanager
def installed(tracer: Tracer):
    """Rebind every entry point to a traced wrapper; restore on exit."""
    undo = []
    for modname, attr, name, size in ENTRY_POINTS:
        module = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, orig, size))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(module, attr)
        wrapper = tracer.wrap(name, orig, size)
        for modkey, mod in list(sys.modules.items()):
            if modkey != "modsym" and not modkey.startswith("modsym."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, orig))
    try:
        yield tracer
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
