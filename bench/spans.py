"""Spans around z2bord's public functions, installed from outside the package.

A Tracer replaces each listed function with a wrapper, both in the module
that defines it and in every loaded z2bord module that imported it by
name.  Each call records a span (name, parent, start, end) in memory,
where parent is the index of the enclosing span (-1 at top level).
restore() puts every original object back; write() saves the spans.  The benchmark is
single-threaded, so spans nest properly and child spans never overlap.

The hot leaf helpers gf2.dot and Mat.apply are not wrapped: they run more
than 200k times per reproduce-paper run, so a wrapper there would measure
itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from time import perf_counter


def _rows_in(counts, args):
    rows = args[0] if hasattr(args[0], "__len__") else list(args[0])
    counts["gf2.row_reduce.rows_in"] += len(rows)
    return (rows,) + args[1:]


def _accepted(counts, cert):
    counts["membership.check_membership.accepted"] += cert.accepted


def _orbit_elements(counts, o):
    counts["orbits.orbit.elements"] += len(o)


def _faithful(counts, monomials):
    counts["membership.faithful_monomials"] += len(monomials)


def _constraint_rows(counts, cs):
    counts["membership.constraint_rows"] += len(cs.rows)


def _search(counts, report):
    counts["milnor.families_tried"] += report.families_tried
    counts["milnor.skipped_non_isolated"] += report.skipped_non_isolated


# (module, attribute path, hook on the arguments, hook on the result).
WRAPPED = (
    ("gf2", "row_reduce", _rows_in, None),
    ("gf2", "enumerate_gl", None, None),
    ("gf2", "enumerate_subspaces", None, None),
    ("repalg", "apply_automorphism", None, None),
    ("repalg", "sub_multiset_multiplicity", None, None),
    ("membership", "enumerate_faithful_monomials", None, _faithful),
    ("membership", "build_constraint_system", None, _constraint_rows),
    ("membership", "ConstraintSystem.nullspace_dimension", None, None),
    ("membership", "ConstraintSystem.nullspace_basis", None, None),
    ("membership", "decompose_for_rho", None, None),
    ("membership", "check_membership", None, _accepted),
    ("orbits", "orbit", None, _orbit_elements),
    ("orbits", "stabilizer_matches", None, None),
    ("orbits", "span_dimension", None, None),
    ("orbits", "verify_generating_set", None, None),
    ("milnor", "search_orbit_hits", None, _search),
    ("milnor", "milnor_fixed_polynomial", None, None),
    ("smallcover", "tangent_reps", None, None),
    ("smallcover", "admissible_subgroups", None, None),
    ("smallcover", "restricted_polynomial", None, None),
    ("report", "run_reproduction", None, None),
    ("cli", "main", None, None),
)

# Span names whose call count is a per-layer metric.
COUNTED_CALLS = (
    "gf2.row_reduce",
    "repalg.apply_automorphism",
    "repalg.sub_multiset_multiplicity",
    "membership.decompose_for_rho",
    "membership.check_membership",
    "orbits.orbit",
    "milnor.milnor_fixed_polynomial",
)


def self_times(parents, starts, ends) -> list[float]:
    """Per span: its duration minus the time covered by its child spans."""
    own = [end - start for start, end in zip(starts, ends)]
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            own[parent] -= end - start
    return own


class Tracer:
    """Spans in parallel arrays: a check-stream run records over a million."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("B")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, before, after):
        name_id = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(counts, args)
            span = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result

        return traced

    def install(self):
        """Wrap every function in WRAPPED, importing its module first.

        Every z2bord module is loaded before the first patch, so no module
        can bind a wrapper by name that restore() would not see.
        """
        for module_name, *_ in WRAPPED:
            importlib.import_module("z2bord." + module_name)
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "z2bord" or n.startswith("z2bord.")]
        for module_name, path, before, after in WRAPPED:
            owner = sys.modules["z2bord." + module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(f"{module_name}.{path}", original, before, after)
            self._patch(owner, attr, wrapper)
            if outer:
                continue
            for module in loaded:
                if module is not owner and module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Self time per span name, call counts and the hook counters."""
        own = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for name_id, t in zip(self.name_ids,
                              self_times(self.parents, self.starts, self.ends)):
            own[name_id] += t
            calls[name_id] += 1
        out: dict[str, float] = {}
        for name, t in zip(self.names, own):
            out[f"{name}.self_s"] = t
        for name in COUNTED_CALLS:
            out[f"{name}.calls"] = calls[self.names.index(name)]
        for key in ("gf2.row_reduce.rows_in", "membership.check_membership.accepted",
                    "orbits.orbit.elements", "membership.faithful_monomials",
                    "membership.constraint_rows", "milnor.families_tried"):
            out[key] = self.counts[key]
        tried = self.counts["milnor.families_tried"]
        out["milnor.skipped_ratio"] = (
            self.counts["milnor.skipped_non_isolated"] / tried if tried else 0.0
        )
        return out

    def write(self, path):
        """Write the spans: a JSON line {"names": [...], "count": n}, then
        name ids (uint8), parents (int32), starts and ends (float64), each n
        long, in native byte order."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.starts)}
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(fh)
