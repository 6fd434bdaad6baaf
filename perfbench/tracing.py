"""Spans and counters around the library's public functions, installed from
outside the library by replacing module attributes and class methods.

A span records (name, start, end, parent) and stays in memory until the
run ends.  A layer's self time is its spans' duration minus the time their
child spans cover.  Functions are wrapped at every module attribute that
holds them, which is where their callers look them up, so a call made from
inside the library is seen as well as one made by the benchmark.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from localsym import cli, distinction, forms, invgraph, localfield, numfield, prasad, symspace, weyl

ROOT_SPAN = "bench.query"


def _decide_counts(counts, verdict):
    counts["distinction.decide.yes"] += verdict.distinguished
    counts["distinction.decide.log_entries"] += len(verdict.failure_log)


def _enumerate_counts(counts, involutions):
    counts["weyl.enumerate_involutions.returned"] += len(involutions)


def _descend_counts(counts, result):
    counts["invgraph.descend.steps"] += len(result[0])


# (module, function, hook adding counts from the result); the span is named
# "<module>.<function>"
SPANNED_FUNCTIONS = [
    (numfield, "recover_hilbert90_matrix", None),
    (symspace, "classify_x", None),
    (forms, "congruent_diagonal", None),
    (forms, "invariants", None),
    (weyl, "build_xw", None),
    (weyl, "enumerate_involutions", _enumerate_counts),
    (distinction, "decide", _decide_counts),
    (cli, "main", None),
    (invgraph, "cone_contains", None),
    (invgraph, "descend", _descend_counts),
    (localfield, "hilbert_rational", None),
    (localfield, "reciprocity_check", None),
    (prasad, "spinor_norm_rational", None),
    (prasad, "prasad_character", None),
    (prasad, "wsn", None),
]

SPANNED_METHODS = [
    (numfield.Mat, ("__mul__", "__rmul__"), "numfield.Mat.mul"),
    (numfield.Mat, ("inv",), "numfield.Mat.inv"),
    (numfield.Mat, ("det",), "numfield.Mat.det"),
]

# Field operations run millions of times per run; they are counted, not
# timed, so that a matrix span's self time keeps its own arithmetic.
COUNTED_METHODS = [
    (numfield.Bq, ("__mul__", "__rmul__"), "numfield.Bq.mul"),
    (numfield.Bq, ("inverse",), "numfield.Bq.inverse"),
]
COUNTED_FUNCTIONS = [(localfield, "reduce")]


def _name(module, attr):
    return module.__name__.rsplit(".", 1)[-1] + "." + attr


CACHES = {
    "symspace.z_orbit_representatives": symspace.z_orbit_representatives,
    "symspace.jn_invariants": symspace.jn_invariants,
    "weyl.unitary_parity_bits": weyl.unitary_parity_bits,
    "invgraph.constraining_roots": invgraph.constraining_roots,
}


def library_caches():
    """Every lru cache at a module attribute of the library."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "localsym" or name.startswith("localsym."):
            for value in vars(mod).values():
                if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                    found[id(value)] = value
    return list(found.values())


def clear_caches():
    for cache in library_caches():
        cache.cache_clear()


def cache_stats():
    """(hits, misses) per reported cache."""
    out = {}
    for name, cache in CACHES.items():
        info = cache.cache_info()
        out[name] = (info.hits, info.misses)
    return out


class Tracer:
    """Span and counter recorder; `enabled` switches recording on and off
    while the wrappers stay installed."""

    def __init__(self):
        self.names = []
        self.spans = []  # (name index, start, end, parent span index or -1)
        self.stack = []
        self.counts = defaultdict(int)
        self.enabled = False
        self._undo = []

    def reset(self):
        """Drop the recorded spans and counts; the span names stay."""
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def _index(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name, fn, post=None):
        """`fn` wrapped in a span; `post(counts, result)` adds counts."""
        nid = self._index(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if post is not None:
                post(counts, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, wrapped):
        for name, mod in list(sys.modules.items()):
            if name == "localsym" or name.startswith("localsym."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._undo.append((mod, attr, original))

    def _replace_method(self, cls, attrs, wrapped):
        for attr in attrs:
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapped)

    def install(self):
        """Wrap every traced function and method (recording stays off)."""
        for module, attr, post in SPANNED_FUNCTIONS:
            original = getattr(module, attr)
            self._replace_everywhere(original, self.span(_name(module, attr), original, post))
        for module, attr in COUNTED_FUNCTIONS:
            original = getattr(module, attr)
            self._replace_everywhere(original, self.counter(_name(module, attr), original))
        for cls, attrs, name in SPANNED_METHODS:
            self._replace_method(cls, attrs, self.span(name, cls.__dict__[attrs[0]]))
        for cls, attrs, name in COUNTED_METHODS:
            self._replace_method(cls, attrs, self.counter(name, cls.__dict__[attrs[0]]))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """{name: (total self seconds, span count)}."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(lambda: [0.0, 0])
        for i, (nid, start, end, _) in enumerate(self.spans):
            agg = out[self.names[nid]]
            agg[0] += end - start - covered[i]
            agg[1] += 1
        return {name: tuple(v) for name, v in out.items()}

    def write(self, path):
        """Write the spans as CSV: name, start, end, parent index."""
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for nid, start, end, parent in self.spans:
                fh.write(f"{self.names[nid]},{start:.9f},{end:.9f},{parent}\n")
