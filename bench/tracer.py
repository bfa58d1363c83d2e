"""Per-layer tracing of fibsum, done from outside the program.

The package binds its functions by ``from .x import f``, so one function
object can be reachable under several module names (``fibsum.cli``,
``fibsum.search``, ``fibsum``).  :meth:`Tracer.wrap` replaces every binding
of the original with one timing wrapper and :meth:`Tracer.restore` puts the
originals back, so no line of the program changes.

Each wrapped layer accumulates inclusive busy time and a call count.  Layers
called a few hundred times a round also record spans (id, parent id, name,
start, end); hot layers, such as the determinant that the hill climb calls
about 180 thousand times a round, keep only the aggregates so the trace stays
small.  A call that re-enters the same wrapper (``invert_unit_triangular``
recurses once for lower triangular input) is counted once.
"""

from __future__ import annotations

import time
from fractions import Fraction

VERIFY_SUITES = ("theorem", "corollaries", "pattern", "remark", "gsampling")


class Tracer:
    def __init__(self, modules):
        self.modules = modules
        self.busy = {}
        self.calls = {}
        self.counts = {}
        self.spans = []
        self._open = []
        self._active = {}
        self._patched = []
        self._t0 = time.perf_counter()

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def inside(self, layer: str) -> bool:
        return self._active.get(layer, 0) > 0

    def snapshot(self) -> tuple:
        return dict(self.busy), dict(self.calls), dict(self.counts)

    def wrap(self, module, attr: str, layer, span: bool = True, after=None) -> None:
        """Time every call of ``module.attr`` under ``layer`` (a name, or a
        function of the call's positional arguments returning one)."""
        original = getattr(module, attr)
        busy, calls, active, spans, open_ = (self.busy, self.calls, self._active,
                                             self.spans, self._open)
        clock, t0 = time.perf_counter, self._t0
        depth = 0

        def wrapper(*args, **kwargs):
            nonlocal depth
            if depth:
                return original(*args, **kwargs)
            name = layer if isinstance(layer, str) else layer(args)
            depth += 1
            active[name] = active.get(name, 0) + 1
            if span:
                span_id = len(spans)
                spans.append([span_id, open_[-1] if open_ else None, name, 0.0, 0.0])
                open_.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                depth -= 1
                active[name] -= 1
                busy[name] = busy.get(name, 0.0) + (end - start)
                calls[name] = calls.get(name, 0) + 1
                if span:
                    open_.pop()
                    spans[span_id][3:] = [start - t0, end - t0]
            if after is not None:
                after(result)
            return result

        for mod in self.modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def restore(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()


def _inv_tri_layer(args) -> str:
    rows = args[0]
    if any(isinstance(x, Fraction) for row in rows for x in row):
        return "linalg.inv_tri.frac"
    return "linalg.inv_tri.int"


def install(fibsum, cli, search, linalg, construct, fibonacci) -> Tracer:
    """Wrap the layers the benchmark reports and return the tracer."""
    t = Tracer([fibsum, cli, search, linalg, construct, fibonacci])
    t.wrap(cli, "main", lambda args: f"cli.{args[0][0]}")
    t.wrap(cli, "_write_json", "cli.json_out")
    for suite in VERIFY_SUITES:
        t.wrap(cli, f"_suite_{suite}", f"cli.verify.{suite}")
    t.wrap(search, "enumerate_triangular", "search.tri",
           after=lambda d: t.add("search.tri.matrices", d.total))

    def gen_done(d):
        t.add("search.gen.words", 1 << (d.n * d.n))
        t.add("search.gen.invertible", d.total)

    t.wrap(search, "enumerate_general", "search.gen", after=gen_done)
    t.wrap(search, "enumerate_w_determinants", "search.wdet",
           after=lambda d: t.add("search.wdet.dets", d.total))

    def climb_done(r):
        t.add("search.climb.steps", r.steps_taken)
        t.add("search.climb.restarts", r.restarts_used)

    t.wrap(search, "hill_climb_general", "search.climb", after=climb_done)
    # One objective call per restart scores the start matrix; every other
    # call scores one candidate flip.
    t.wrap(search, "_objective", "search.climb.objective", span=False)

    def det_done(_):
        if t.inside("search.climb"):
            t.add("search.climb.det_calls", 1)

    t.wrap(linalg, "determinant_exact", "linalg.det", span=False, after=det_done)
    t.wrap(linalg, "invert_unit_triangular", _inv_tri_layer, span=False)
    t.wrap(construct, "sample_g_matrix", "construct.sample_g", span=False)
    t.wrap(construct, "extremal_pattern_matrix", "construct.extremal")
    t.wrap(construct, "small_extremal", "construct.extremal")
    for name in ("check_lemma1", "check_corollary3", "check_corollary4"):
        t.wrap(fibonacci, name, "fibonacci.identities")
    return t


def layer_metrics(busy: dict, calls: dict, counts: dict) -> dict:
    """Per-layer metric values for one round, from the round's deltas."""
    def b(layer):
        return busy.get(layer, 0.0)

    def c(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    flips_scored = calls.get("search.climb.objective", 0) - c("search.climb.restarts")
    out = {
        "search.tri.busy_s": b("search.tri"),
        "search.tri.matrices": c("search.tri.matrices"),
        "search.tri.matrices_per_s": ratio(c("search.tri.matrices"), b("search.tri")),
        "search.gen.busy_s": b("search.gen"),
        "search.gen.words": c("search.gen.words"),
        "search.gen.invertible": c("search.gen.invertible"),
        "search.gen.useful_ratio": ratio(c("search.gen.invertible"), c("search.gen.words")),
        "search.gen.words_per_s": ratio(c("search.gen.words"), b("search.gen")),
        "search.wdet.busy_s": b("search.wdet"),
        "search.wdet.dets_per_s": ratio(c("search.wdet.dets"), b("search.wdet")),
        "search.climb.busy_s": b("search.climb"),
        "search.climb.steps": c("search.climb.steps"),
        "search.climb.restarts": c("search.climb.restarts"),
        "search.climb.det_calls": c("search.climb.det_calls"),
        "search.climb.accept_ratio": ratio(c("search.climb.steps"), flips_scored),
        "linalg.det.calls": calls.get("linalg.det", 0),
        "linalg.det.busy_s": b("linalg.det"),
        "linalg.det.us_per_call": ratio(b("linalg.det") * 1e6, calls.get("linalg.det", 0)),
        "linalg.inv_tri.int.calls": calls.get("linalg.inv_tri.int", 0),
        "linalg.inv_tri.int.busy_s": b("linalg.inv_tri.int"),
        "linalg.inv_tri.frac.calls": calls.get("linalg.inv_tri.frac", 0),
        "linalg.inv_tri.frac.busy_s": b("linalg.inv_tri.frac"),
        "construct.sample_g.busy_s": b("construct.sample_g"),
        "construct.extremal.busy_s": b("construct.extremal"),
        "fibonacci.identities.busy_s": b("fibonacci.identities"),
        "cli.json_out.busy_s": b("cli.json_out"),
    }
    for suite in VERIFY_SUITES:
        out[f"cli.verify.{suite}.busy_s"] = b(f"cli.verify.{suite}")
    return out
