"""Per-layer tracing of matident, installed from outside the package.

`Tracer.install()` replaces each listed public function with a wrapper at
every `matident` module attribute that binds it (methods are replaced on
their class).  Span wrappers record (name, query, parent, start, end) in
flat arrays; count wrappers only count.  Group operations are count-only
because a span per group op would swamp the run.  A target that a later
refactor removed is reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# metric name -> targets "module:attribute" or "module:Class.method"
SPANS = {
    "cli.main": ["matident.cli:main"],
    "freealg.parse_polynomial": ["matident.freealg:parse_polynomial"],
    "freealg.parse_word": ["matident.freealg:parse_word"],
    "freealg.multihomogeneous_components": ["matident.freealg:multihomogeneous_components"],
    "freealg.format_polynomial": ["matident.freealg:format_polynomial"],
    "commpoly.poly_ops": [
        "matident.commpoly:Poly.__add__",
        "matident.commpoly:Poly.scale",
        "matident.commpoly:Poly.monomial",
    ],
    "generic.evaluate": ["matident.generic:evaluate"],
    "generic.word_product_closed": ["matident.generic:word_product_closed"],
    "generic.matching_entry": ["matident.generic:matching_entry"],
    "generic.matching_permutation": ["matident.generic:matching_permutation"],
    "grading.lset": ["matident.grading:Grading.lset"],
    "grading.grading_from_config": ["matident.grading:grading_from_config"],
    "monomials.is_minimal_identity": ["matident.monomials:is_minimal_identity"],
    "monomials.enumerate_monomial_identities": ["matident.monomials:enumerate_monomial_identities"],
    "monomials.shortest_monomial_identity": ["matident.monomials:shortest_monomial_identity"],
    "rewrite.certify_membership": ["matident.rewrite:certify_membership"],
    "rewrite.derive_equivalence": ["matident.rewrite:derive_equivalence"],
    "rewrite.check_membership_certificate": ["matident.rewrite:check_membership_certificate"],
    "rewrite.check_equivalence_certificate": ["matident.rewrite:check_equivalence_certificate"],
    "rewrite.serialize": [
        "matident.rewrite:membership_to_dict",
        "matident.rewrite:membership_from_dict",
        "matident.rewrite:equivalence_to_dict",
        "matident.rewrite:equivalence_from_dict",
    ],
}

COUNTS = {
    "groups.op": [
        "matident.groups:CyclicGroup.op",
        "matident.groups:IntegerGroup.op",
        "matident.groups:ProductGroup.op",
        "matident.groups:CayleyGroup.op",
    ],
    "groups.check": ["matident.groups:Group.check"],
    "grading.step": ["matident.grading:Grading.step"],
    "monomials.transition": ["matident.monomials:transition"],
    "rewrite.apply_step": ["matident.rewrite:apply_step"],
}


# counters fed from a wrapped function's result: metric -> (span, function)
def _found(result) -> int:
    return result is not None


def _kept(result) -> int:
    return bool(result)


def _length(result) -> int:
    return len(result)


def _pairings(result) -> int:
    return len(getattr(result, "pairings", ()))


RESULT_COUNTS = {
    "generic.matching_entry.found": ("generic.matching_entry", _found),
    "monomials.is_minimal_identity.kept": ("monomials.is_minimal_identity", _kept),
    "monomials.sequences_emitted": ("monomials.enumerate_monomial_identities", _length),
    "rewrite.pairings": ("rewrite.certify_membership", _pairings),
}


class Tracer:
    def __init__(self):
        self.names = list(SPANS)
        self.name_ = array("i")
        self.query_ = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.query = -1
        self.counts = {name: [0] for name in list(COUNTS) + list(RESULT_COUNTS)}
        self.absent: list = []

    def _span(self, name: str, fn):
        nid = self.names.index(name)
        hooks = [(self.counts[m], f) for m, (span, f) in RESULT_COUNTS.items() if span == name]
        names, queries, parents = self.name_, self.query_, self.parent
        starts, ends, stack, clock = self.start, self.end, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            queries.append(self.query)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            for cell, f in hooks:
                cell[0] += f(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for name, targets in table.items():
                if not sum(_patch(target, lambda fn, n=name: make(n, fn)) for target in targets):
                    self.absent.append(name)

    def write(self, path: str) -> None:
        """Spans as five binary int arrays, then names, counts and absences."""
        with open(path + ".bin", "wb") as f:
            for arr in (self.name_, self.query_, self.parent, self.start, self.end):
                arr.tofile(f)
        with open(path + ".json", "w", encoding="utf-8") as f:
            json.dump({"names": self.names, "spans": len(self.start),
                       "counts": {k: v[0] for k, v in self.counts.items()},
                       "absent": self.absent}, f)


def _patch(target: str, make) -> int:
    """Wrap one target everywhere it is bound; 1 when it exists, else 0."""
    modname, path = target.split(":")
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return 0
    if "." in path:
        clsname, attr = path.split(".")
        cls = getattr(module, clsname, None)
        raw = getattr(cls, "__dict__", {}).get(attr)
        if raw is None:
            return 0
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))
        return 1
    original = getattr(module, path, None)
    if original is None:
        return 0
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "matident" or name.startswith("matident.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)
    return 1


def load(path: str) -> dict:
    """Read back what `write` stored."""
    with open(path + ".json", encoding="utf-8") as f:
        meta = json.load(f)
    n = meta["spans"]
    arrays = []
    with open(path + ".bin", "rb") as f:
        for code in "iiiqq":
            arr = array(code)
            arr.fromfile(f, n)
            arrays.append(arr)
    meta["name"], meta["query"], meta["parent"], meta["start"], meta["end"] = arrays
    return meta
