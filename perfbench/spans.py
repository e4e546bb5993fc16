"""Spans around the calls into each kronproj layer, and the per-layer metrics.

Each public function is wrapped where its caller looks it up: on the module
that imported it by name, on the module it is called through, or on its
class.  A span is (name, attribute, parent id, start, end, raised); the
attribute carries a sketch family or a computed flop count.  Spans stay in
memory until the run ends.  A layer's self time is its spans' duration minus
the time their child spans cover.
"""

import contextlib
import functools
import json
import time

import numpy as np

from kronproj import adaptive, kronlinalg, oracle, projmaint, sketch

FAMILIES = ("gaussian", "srht", "ams", "countsketch", "sparse_embedding")


def _family_arg(family, *args, **kwargs):
    return family.tag


def _family_self(self, *args, **kwargs):
    return self.family.tag


def _solve_spd_flops(A, B, *args, **kwargs):
    """Cholesky (k^3/3) plus two triangular solves per right-hand side."""
    k = np.shape(A)[0]
    r = int(np.prod(np.shape(B)[1:]))
    return k**3 / 3.0 + 2.0 * k * k * r


# (owner, attribute, span name, attribute function)
TARGETS = (
    (projmaint.MaintainedProjection, "update", "projmaint.update", None),
    (projmaint.MaintainedProjection, "query", "projmaint.query", None),
    (projmaint, "kron_apply_block", "projmaint.kron_apply_block", None),
    (projmaint, "kron_apply", "kronlinalg.kron_apply", None),
    (kronlinalg, "solve_spd", "kronlinalg.solve_spd", _solve_spd_flops),
    (kronlinalg, "woodbury_update", "kronlinalg.woodbury_update", None),
    (sketch, "generate", "sketch.generate", _family_arg),
    (adaptive, "generate_sketch", "sketch.generate", _family_arg),
    (sketch.Sketch, "apply", "sketch.apply", _family_self),
    (sketch.SketchBatch, "transpose_dense", "sketch.transpose_dense", None),
    (sketch, "ce_estimate", "sketch.ce_estimate", None),
    (adaptive, "private_median", "dpcore.private_median", None),
    (adaptive, "round_to_grid", "dpcore.round_to_grid", None),
    (adaptive, "median_rank_error", "dpcore.median_rank_error", None),
    (adaptive, "setquery_step", "adaptive.setquery_step", None),
    (adaptive.SketchedNormEstimator, "update", "adaptive.estimator.update", None),
    (adaptive.SketchedNormEstimator, "query_set", "adaptive.estimator.query_set", None),
    (oracle, "exact_projection", "oracle.exact_projection", None),
)

NAME, ATTR, PARENT, START, END, RAISED = range(6)

# Per-layer metrics that the workloads read from the program's public state.
STATE_METRICS = (
    ("projmaint.update.lazy", "count"),
    ("projmaint.update.woodbury", "count"),
    ("projmaint.update.rebuild", "count"),
    ("projmaint.lazy_frac", "fraction"),
    ("projmaint.woodbury_rank.sum", "count"),
    ("projmaint.query_fallbacks", "count"),
    ("projmaint.pool.regens", "count"),
    ("projmaint.pool.used_frac", "fraction"),
    ("projmaint.state_bytes", "bytes"),
    ("adaptive.copy_updates", "count"),
    ("adaptive.inner_queries", "count"),
    ("adaptive.overflow_clamps.wrapper", "count"),
    ("adaptive.overflow_clamps.copies", "count"),
    ("adaptive.envelope_miss_wrappers", "count"),
)


class Tracer:
    """Records spans in memory; single-threaded, like the benchmark."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, attr_fn=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attr = attr_fn(*args, **kwargs) if attr_fn else None
            span = [name, attr, open_[-1] if open_ else -1, 0.0, 0.0, False]
            open_.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                open_.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
        try:
            for owner, attr, name, attr_fn in TARGETS:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), attr_fn))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, (name, attr, parent, start, end, raised) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "start": start,
                    "end": end, "attr": attr, "raised": raised,
                }) + "\n")


def _aggregate(spans, since):
    """Per name: calls, total and self seconds, raises, attribute sums.

    Spans that start before ``since`` belong to set-up, and spans under an
    oracle span to the benchmark's checks; both are left out, the latter
    from every layer but the oracle's.
    """
    child = [0.0] * len(spans)
    in_check = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child[parent] += span[END] - span[START]
            in_check[i] = in_check[parent] or spans[parent][NAME].startswith("oracle.")
    agg = {}
    for i, span in enumerate(spans):
        if in_check[i] or span[START] < since:
            continue
        dur = span[END] - span[START]
        keys = [span[NAME]]
        if isinstance(span[ATTR], str):
            keys.append(f"{span[NAME]}.{span[ATTR]}")
        for key in keys:
            a = agg.setdefault(key, {"calls": 0, "total": 0.0, "self": 0.0, "raised": 0, "attr": 0.0})
            a["calls"] += 1
            a["total"] += dur
            a["self"] += dur - child[i]
            a["raised"] += span[RAISED]
            if isinstance(span[ATTR], float):
                a["attr"] += span[ATTR]
    return agg


def _p50_ms(seconds):
    return float(np.percentile(seconds, 50)) * 1e3 if seconds else 0.0


def layer_metrics(spans, since, run, overhead_frac):
    """Every per-layer metric as name -> (value, unit), zero where unused."""
    agg = _aggregate(spans, since)
    zero = {"calls": 0, "total": 0.0, "self": 0.0, "raised": 0, "attr": 0.0}

    def get(name):
        return agg.get(name, zero)

    out = {}

    def calls_self(name):
        out[f"{name}.calls"] = (get(name)["calls"], "count")
        out[f"{name}.self_ms"] = (get(name)["self"] * 1e3, "ms")

    def per_call_ms(name):
        a = get(name)
        return a["total"] * 1e3 / a["calls"] if a["calls"] else 0.0

    for name in ("projmaint.update", "projmaint.query", "projmaint.kron_apply_block"):
        calls_self(name)
    for branch in ("lazy", "woodbury", "rebuild"):
        out[f"projmaint.update.{branch}.ms_p50"] = (_p50_ms(run.branch_s[branch]), "ms")
    for name, unit in STATE_METRICS:
        out[name] = (run.counts.get(name, 0), unit)

    calls_self("kronlinalg.solve_spd")
    out["kronlinalg.solve_spd.raised"] = (get("kronlinalg.solve_spd")["raised"], "count")
    out["kronlinalg.solve_spd.gflop"] = (get("kronlinalg.solve_spd")["attr"] / 1e9, "gflop_computed")
    calls_self("kronlinalg.kron_apply")
    out["kronlinalg.woodbury_update.calls"] = (get("kronlinalg.woodbury_update")["calls"], "count")

    for fam in FAMILIES:
        out[f"sketch.generate.calls.{fam}"] = (get(f"sketch.generate.{fam}")["calls"], "count")
        out[f"sketch.generate.ms_per_call.{fam}"] = (per_call_ms(f"sketch.generate.{fam}"), "ms")
    calls_self("sketch.apply")
    for fam in FAMILIES:
        out[f"sketch.apply.ms_per_call.{fam}"] = (per_call_ms(f"sketch.apply.{fam}"), "ms")
    calls_self("sketch.transpose_dense")
    out["sketch.ce_estimate.self_ms"] = (get("sketch.ce_estimate")["self"] * 1e3, "ms")

    for name in ("private_median", "round_to_grid", "median_rank_error"):
        calls_self(f"dpcore.{name}")

    calls_self("adaptive.setquery_step")
    calls_self("adaptive.estimator.update")
    calls_self("adaptive.estimator.query_set")
    out["adaptive.first_step.ms_p50"] = (_p50_ms(run.first_step_s), "ms")

    calls_self("oracle.exact_projection")
    out["trace.overhead_frac"] = (overhead_frac, "fraction")
    return out

