"""Span recorder for the benchmark's traced run.

Tracing is installed from outside the program: each traced callable is
replaced, at every module binding that refers to it, by a wrapper that
records a span (name, start, end, parent). Spans stay in memory until the
benchmark reads them; nothing is written while a chain runs. Uninstalling
puts every original object back, so untraced chains run the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> callables ("name" for a function, "Class.method" for a method)
TRACED = {
    "schema": [
        "load_microdata", "restructure", "encode_onehot", "decode_onehot_with_stats",
        "marginal_counts", "load_target_marginals",
    ],
    "nn": [
        f"{cls}.{meth}"
        for cls in ("Affine", "BatchNorm", "Relu", "GroupSoftmax")
        for meth in ("forward", "backward")
    ],
    "vae": [
        "VaeModel.encode", "VaeModel.decode", "VaeModel.encode_backward",
        "VaeModel.decode_backward", "VaeModel.checksum", "save_model", "load_model",
    ],
    "losses": [
        "focal_loss", "latent_kl", "dbce", "marginal_rmse_loss", "pairwise_mean_bce", "softmin",
    ],
    "training": ["pretrain", "finetune", "Lion.step", "save_latent", "load_latent"],
    "generation": ["generate_inventory", "inventory_from_table", "write_inventory", "sanity_check"],
    "evaluation": [
        "marginal_report", "joint_pair_metrics", "dcr", "person_level_matrix",
        "household_matrix", "ks_test",
    ],
    "oracle": ["sample_records", "analytic_marginals"],
}

# span name -> (counter suffix, work done by one call, from its arguments)
COUNTERS = {
    "losses.dbce": ("pairs", lambda a, kw: a[0].shape[0] * a[1].shape[0]),
    "evaluation.dcr": ("pairs", lambda a, kw: a[0].shape[0] * a[1].shape[0]),
    "training.Lion.step": ("scalars", lambda a, kw: sum(p.value.size for p in a[0].params)),
}


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name. A span's self time is its duration
    minus its children's durations: the recorder is single-threaded and
    stack-based, so children are disjoint and lie inside their parent."""
    out: dict[str, list] = {}
    for name, start, end, _ in spans:
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start
    for _, start, end, parent in spans:
        if parent >= 0:
            out[spans[parent][0]][1] -= end - start
    return {name: (calls, s) for name, (calls, s) in out.items()}


def span_names() -> list[str]:
    return [f"{mod}.{attr}" for mod, attrs in TRACED.items() for attr in attrs]


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every traced callable for the duration of the block."""
    undo = []
    try:
        for mod_name, attrs in TRACED.items():
            module = importlib.import_module(f"popsynth.{mod_name}")
            for attr in attrs:
                name = f"{mod_name}.{attr}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, recorder.wrap(orig, name))
                    continue
                orig = getattr(module, attr)
                wrapped = recorder.wrap(orig, name)
                # every binding, e.g. popsynth.training.dbce as well as
                # popsynth.losses.dbce
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("popsynth"):
                        for key, value in list(vars(other).items()):
                            if value is orig:
                                undo.append((other, key, orig))
                                setattr(other, key, wrapped)
        yield recorder
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
