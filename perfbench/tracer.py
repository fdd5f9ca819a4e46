"""Outside-in tracer: times calls into stgreed's public functions.

The tracer replaces a public function by a timing wrapper under every name
that a caller can look it up by: each ``stgreed`` module attribute bound to
that function object. ``stgreed.features`` imports ``downsample`` from
``stgreed.video`` by name, so ``stgreed.features.downsample`` is replaced as
well as ``stgreed.video.downsample``. Private helpers (``_rbf``,
``_solve_smo``, ...) are never wrapped, so their time stays inside the
public caller's self time.

Spans are kept in memory and written once, after ``uninstall``. A span
opened on a thread whose own stack is empty (a thread-pool worker) takes
the innermost open span of the main thread as its parent, because that is
the call that submitted the work.

A hook that reads a traced call's arguments or result into the span's
attributes cannot fail the call: if it raises, the span has no attributes,
and ``layer_metrics`` leaves it out of the attribute metrics and counts it
in ``trace.attrs_missing``.
"""

import itertools
import sys
import threading
import time
from collections import namedtuple

import numpy as np

Span = namedtuple("Span", "id parent name t0 t1 thread attrs")


def _frames_mb(video):
    return video.frames.nbytes / 1e6


def _load_attrs(args, kwargs, out):
    return {"mb_out": _frames_mb(out), "pixels": out.frames.size,
            "hw": [out.height, out.width]}


def _downsample_attrs(args, kwargs, out):
    video = args[0] if args else kwargs["video"]
    return {"pixels_in": video.frames.size, "hw_in": [video.height, video.width]}


def _pseudo_ref_attrs(args, kwargs, out):
    ref = args[0] if args else kwargs["ref"]
    # A pseudo reference that shares the reference's buffer costs no memory.
    shared = np.may_share_memory(out.video.frames, ref.frames)
    return {"mb_out": 0.0 if shared else _frames_mb(out.video)}


def _train_attrs(args, kwargs, out):
    features = args[0] if args else kwargs["features"]
    return {"rows": len(features)}


# Public functions traced, as (module, function, attribute hook or None).
TARGETS = (
    ("stgreed.video", "load_y4m", _load_attrs),
    ("stgreed.video", "downsample", _downsample_attrs),
    ("stgreed.video", "make_pseudo_reference", _pseudo_ref_attrs),
    ("stgreed.bandpass", "temporal_filter", None),
    ("stgreed.bandpass", "spatial_ms", None),
    ("stgreed.ggd", "beta_from_kurtosis", None),
    ("stgreed.features", "block_entropies", None),
    ("stgreed.features", "average_reference_entropies", None),
    ("stgreed.features", "tgreed_frame", None),
    ("stgreed.features", "sgreed_frame", None),
    ("stgreed.features", "compute_features", None),
    ("stgreed.features", "append_cache_record", None),
    ("stgreed.features", "read_cache", None),
    ("stgreed.svr", "grid_search", None),
    ("stgreed.svr", "train_svr", _train_attrs),
    ("stgreed.svr", "predict", None),
    ("stgreed.evaluate", "run_protocol", None),
    ("stgreed.evaluate", "plcc_rmse", None),
    ("stgreed.evaluate", "srocc", None),
    ("stgreed.evaluate", "krocc", None),
    ("stgreed.evaluate", "read_manifest", None),
)


class Tracer:
    """Install timing wrappers, collect spans, restore the originals."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._patched = []  # (module, attribute, original)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main and main is not stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = None
            if hook:
                try:
                    attrs = hook(args, kwargs, out)
                except Exception:  # a hook must never change the program's result
                    pass
            self.spans.append(Span(sid, parent, name, t0, t1, threading.get_ident(), attrs))
            return out

        traced.__wrapped__ = fn
        return traced

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "stgreed" or n.startswith("stgreed."))]

    def install(self):
        """Wrap every target under each module attribute bound to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._stack() if threading.current_thread() is threading.main_thread() \
            else None
        modules = self._modules()
        for mod_name, fn_name, hook in TARGETS:
            original = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name.split('.', 1)[-1]}.{fn_name}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []


def _union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Map span id to its duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {s.id: (s.t1 - s.t0) - _union_length(children.get(s.id, ()), s.t0, s.t1)
            for s in spans}


def root_coverage(spans, t0, t1):
    """Seconds of [t0, t1] covered by spans without a parent."""
    return _union_length([(s.t0, s.t1) for s in spans if s.parent is None], t0, t1)


# Per-layer self times: metric -> the span names whose self times it sums.
SELF_S = {
    "video.load_y4m.s": ("video.load_y4m",),
    "video.downsample.s": ("video.downsample",),
    "video.make_pseudo_reference.s": ("video.make_pseudo_reference",),
    "bandpass.temporal_filter.s": ("bandpass.temporal_filter",),
    "bandpass.spatial_ms.s": ("bandpass.spatial_ms",),
    "ggd.beta_from_kurtosis.s": ("ggd.beta_from_kurtosis",),
    "features.block_entropies.s": ("features.block_entropies",),
    "features.average_reference_entropies.s": ("features.average_reference_entropies",),
    "features.index_pooling.s": ("features.tgreed_frame", "features.sgreed_frame"),
    "features.compute_features.self_s": ("features.compute_features",),
    "features.cache.s": ("features.append_cache_record", "features.read_cache"),
    "svr.grid_search.self_s": ("svr.grid_search",),
    "svr.train_svr.s": ("svr.train_svr",),
    "svr.predict.s": ("svr.predict",),
    "evaluate.run_protocol.self_s": ("evaluate.run_protocol",),
    "evaluate.plcc_rmse.s": ("evaluate.plcc_rmse",),
    "evaluate.rank_corr.s": ("evaluate.srocc", "evaluate.krocc"),
    "evaluate.read_manifest.s": ("evaluate.read_manifest",),
}
# Call counts: metric -> the span names it counts.
CALLS = {
    "video.downsample.calls": ("video.downsample",),
    "bandpass.temporal_filter.calls": ("bandpass.temporal_filter",),
    "bandpass.spatial_ms.calls": ("bandpass.spatial_ms",),
    "ggd.beta_from_kurtosis.calls": ("ggd.beta_from_kurtosis",),
    "features.block_entropies.calls": ("features.block_entropies",),
    "features.index_pooling.calls": ("features.tgreed_frame", "features.sgreed_frame"),
    "svr.train_svr.calls": ("svr.train_svr",),
    "svr.predict.calls": ("svr.predict",),
}
UNITS = {**{k: "s" for k in SELF_S}, **{k: "count" for k in CALLS},
         "video.load_y4m.mb_out": "MB", "video.make_pseudo_reference.mb_out": "MB",
         "video.downsample.dup_ratio": "ratio", "svr.train_svr.rows_mean": "rows",
         "trace.overhead_s": "s", "trace.unattributed_s": "s", "trace.attrs_missing": "count"}


def layer_metrics(spans, t0, t1):
    """Per-layer metrics of one traced pass that ran over [t0, t1].

    trace.overhead_s needs an untraced pass, so the caller adds it.
    Layers a pass never calls read 0.
    """
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def pick(names):
        return [s for n in names for s in by_name.get(n, ())]

    out = {k: sum(own[s.id] for s in pick(names)) for k, names in SELF_S.items()}
    out.update({k: len(pick(names)) for k, names in CALLS.items()})

    def with_attrs(name):
        return [s for s in by_name.get(name, ()) if s.attrs is not None]

    loads = with_attrs("video.load_y4m")
    out["video.load_y4m.mb_out"] = sum(s.attrs["mb_out"] for s in loads)
    out["video.make_pseudo_reference.mb_out"] = sum(
        s.attrs["mb_out"] for s in with_attrs("video.make_pseudo_reference"))
    # Full-resolution pixels pooled over pixels of the distinct decoded videos;
    # 1.0 means no decoded frame is pooled twice.
    decoded_hw = {tuple(s.attrs["hw"]) for s in loads}
    decoded = sum(s.attrs["pixels"] for s in loads)
    pooled = sum(s.attrs["pixels_in"] for s in with_attrs("video.downsample")
                 if tuple(s.attrs["hw_in"]) in decoded_hw)
    out["video.downsample.dup_ratio"] = pooled / decoded if decoded else 0.0
    trains = with_attrs("svr.train_svr")
    out["svr.train_svr.rows_mean"] = sum(s.attrs["rows"] for s in trains) / len(trains) \
        if trains else 0.0
    out["trace.unattributed_s"] = (t1 - t0) - root_coverage(spans, t0, t1)
    hooked = {f"{m.split('.', 1)[-1]}.{f}" for m, f, hook in TARGETS if hook}
    out["trace.attrs_missing"] = sum(1 for s in spans if s.name in hooked and s.attrs is None)
    return out
