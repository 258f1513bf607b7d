"""Per-layer spans recorded from outside the library.

``Tracer.install`` replaces every public function of the nine
``zeta_heights`` modules, in every module namespace that binds it (so
``grid.total_height``, ``cli.total_height`` and ``curves.total_height``
are seen as well as ``torsion.total_height``), with a wrapper that
records a span: start, end, thread, function and the span that caused
it.  ``uninstall`` puts the original objects back.  No source file is
changed.

``analyse`` turns one operation's spans into self times and counters.
Self time is the wall time during which a span is the innermost running
span.  Spans opened in a worker thread are children of the innermost
span open in the client thread; while such a child runs, its parent is
waiting, not running.  When several spans run at once (worker threads),
each gets an equal share of the interval.  So the self times of all
spans plus the time covered by no span add up to the operation's wall
time, with or without threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "grid", "torsion", "arith", "symmetry", "quad", "constants", "curves", "amoeba")

# Sub-layers reported on their own; their self time is not in the layer's.
BUCKETS = {"cli.grid_csv": "cli.format", "cli.grid_pgm": "cli.format", "grid.stats": "grid.stats"}

# Library functions whose arguments or results feed a counter.
_CAPTURE = {
    "grid.compute_grid": lambda a, kw, res, exc: a[0] if a else kw["d"],
    "torsion.archimedean_height": lambda a, kw, res, exc: a[0] if a else kw["pt"],
    "curves.limit_height": lambda a, kw, res, exc: (a[0] if a else kw["curve"]).e,
}


def _quad_capture(a, kw, res, exc):
    result = res if exc is None else getattr(exc, "result", None)
    return (getattr(result, "evaluations", 0), type(exc).__name__ == "BudgetExceeded")


def _is_traceable(obj) -> bool:
    return isinstance(obj, types.FunctionType) or (callable(obj) and hasattr(obj, "cache_clear"))


class Tracer:
    """Records spans of the library's public functions while installed.

    Create it in the client thread: spans opened in other threads hang
    under that thread's innermost open span.
    """

    def __init__(self, package) -> None:
        self.package = package
        self.modules = [getattr(package, name) for name in LAYERS]
        self.names: list[str] = []  # function id -> "layer.function"
        self.spans: list[tuple] = []  # (id, t0, t1, thread, fid, parent id, payload)
        self._ids = itertools.count()
        self._local = threading.local()
        self._client_stack: list[int] = []
        self._client = threading.get_ident()
        self._restore: list[tuple] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = self._client_stack if threading.get_ident() == self._client else []
            return stack

    def _wrap(self, fid: int, fn, capture):
        spans, ids, clock, get_ident = self.spans, self._ids, time.perf_counter, threading.get_ident
        client_stack = self._client_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not client_stack and client_stack:
                parent = client_stack[-1]
            else:
                parent = -1
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans.append((sid, t0, t1, get_ident(), fid, parent, capture(args, kwargs, None, exc) if capture else None))
                raise
            t1 = clock()
            stack.pop()
            spans.append((sid, t0, t1, get_ident(), fid, parent, capture(args, kwargs, res, None) if capture else None))
            return res

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not _is_traceable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                capture = _quad_capture if layer == "quad" else _CAPTURE.get(qual)
                wrappers[id(obj)] = self._wrap(len(self.names), obj, capture)
                self.names.append(qual)
        for mod in [self.package, *self.modules]:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def take(self) -> list[tuple]:
        """Spans recorded since the last call, ordered by opening."""
        out = sorted(self.spans)
        self.spans.clear()
        return out


@dataclass
class OpProfile:
    """Self times and counters of one traced operation."""

    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))  # by bucket
    busy_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))  # by layer
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))  # entries into a layer
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    remainder_s: float = 0.0  # time covered by no span


def _parents(spans: list[tuple]) -> list[int]:
    """Position of each span's parent in ``spans``, -1 for a root."""
    pos = {s[0]: i for i, s in enumerate(spans)}
    return [pos.get(s[5], -1) for s in spans]


def self_times(spans: list[tuple], t_begin: float, t_end: float) -> tuple[list[float], float]:
    """Self time of each span and the time in [t_begin, t_end] covered by none.

    ``spans`` are (id, t0, t1, thread, fid, parent id, payload) ordered by
    id, as ``Tracer.take`` returns them.
    """
    parent = _parents(spans)
    remote = [p >= 0 and spans[p][3] != s[3] for s, p in zip(spans, parent)]
    events = sorted(
        [(s[1], 1, i) for i, s in enumerate(spans)] + [(s[2], 0, i) for i, s in enumerate(spans)]
    )
    own = [0.0] * len(spans)
    waiting = [0] * len(spans)  # open children in other threads
    stacks: dict[int, list[int]] = {}
    last, rest = t_begin, 0.0
    for t, opening, i in events:
        if t > last:
            running = [st[-1] for st in stacks.values() if st and not waiting[st[-1]]]
            if running:
                share = (t - last) / len(running)
                for j in running:
                    own[j] += share
            else:
                rest += t - last
            last = t
        stack = stacks.setdefault(spans[i][3], [])
        if opening:
            stack.append(i)
            if remote[i]:
                waiting[parent[i]] += 1
        else:
            stack.remove(i)
            if remote[i]:
                waiting[parent[i]] -= 1
    rest += max(0.0, t_end - last)
    return own, rest


def analyse(spans: list[tuple], names: list[str], t_begin: float, t_end: float, phi) -> OpProfile:
    """Per-layer self and busy times and counters of one operation.

    ``phi`` is Euler's totient, used to count the terms of each Galois
    orbit sum and the segments of each torsion curve.
    """
    prof = OpProfile()
    own, prof.remainder_s = self_times(spans, t_begin, t_end)
    n = len(spans)
    parent = _parents(spans)
    layer_of = [names[s[4]].split(".", 1)[0] for s in spans]
    bit = {layer: 1 << k for k, layer in enumerate(LAYERS)}
    above = [0] * n  # bitmask of layers among the ancestors
    in_amoeba_op = [False] * n  # below a legendre_dual or monge_ampere_density span
    for i, p in enumerate(parent):
        if p >= 0:
            above[i] = above[p] | bit[layer_of[p]]
            in_amoeba_op[i] = in_amoeba_op[p] or names[spans[p][4]] in ("amoeba.legendre_dual",
                                                                         "amoeba.monge_ampere_density")
    inclusive = own[:]
    for i in range(n - 1, -1, -1):
        if parent[i] >= 0:
            inclusive[parent[i]] += inclusive[i]
    c = prof.counts
    for i, s in enumerate(spans):
        name, layer, payload = names[s[4]], layer_of[i], s[6]
        prof.self_s[BUCKETS.get(name, layer)] += own[i]
        outer = not above[i] & bit[layer]
        if outer:
            prof.busy_s[layer] += inclusive[i]
            prof.calls[layer] += 1
        if name == "grid.compute_grid":
            c["grid.cells"] += payload * payload - 1
        elif name == "torsion.total_height" and above[i] & bit["grid"]:
            c["grid.heights"] += 1
        elif name == "torsion.archimedean_height":
            c["torsion.terms"] += phi(payload.d // math.gcd(math.gcd(payload.c1, payload.c2), payload.d))
        elif name == "curves.limit_height":
            c["curves.segments"] += phi(payload)
        elif name == "amoeba.ronkin":
            c["amoeba.ronkin_calls"] += 1
            c["amoeba.ronkin_in_ops"] += in_amoeba_op[i]
        elif name in ("amoeba.legendre_dual", "amoeba.monge_ampere_density"):
            c["amoeba.ops"] += 1
        if layer == "quad" and outer:
            c["quad.evals"] += payload[0]
            c["quad.budget_exceeded"] += payload[1]
    return prof
