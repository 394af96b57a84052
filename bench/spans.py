"""In-memory spans around calls into codecbench's public functions.

The traced run replaces each listed module attribute with a wrapper that
records a span (name, start, end, parent) and restores the original when
it ends, so nothing under src/ changes. Spans opened on a worker thread
of ``sequence_quality``'s pool take the open ``sequence_quality`` span as
their parent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Public calls wrapped per module; "Class.method" wraps a method.
LAYER_CALLS = {
    "video_io": ("Y4MReader.read_frame", "RawReader.read_frame"),
    "metrics": ("mse", "psnr_from_mse", "ssim_frame", "sequence_quality"),
    "profiling": ("parse_callgrind", "aggregate_stages"),
    "rd": ("load_rd_csv", "bd_rate", "bd_quality", "interpolate_log_rate"),
    "subjective": (
        "load_scores_csv", "load_pvs_csv", "screen_subjects", "mos_point",
        "anova_oneway",
    ),
    "report": ("render_json", "render_csv"),
}

# Counts recorded at the boundary where the work happens.
_COUNTERS = {
    "video_io.read_frame": lambda args, kwargs, frame: {
        "bytes": 0 if frame is None else sum(p.nbytes for p in frame.planes)
    },
    "metrics.sequence_quality": lambda args, kwargs, result: {
        "jobs": kwargs.get("jobs", 1)
    },
    "profiling.parse_callgrind": lambda args, kwargs, costs: {"functions": len(costs)},
    "report.render_csv": lambda args, kwargs, text: {"rows": len(args[1])},
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter: Span | None = None

    @contextlib.contextmanager
    def span(self, name, adopt=False, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1].id
        else:
            parent = self._adopter.id if self._adopter else None
        sp = Span(next(self._ids), parent, name, time.perf_counter_ns(), attrs=attrs)
        stack.append(sp)
        outer = self._adopter
        if adopt:
            self._adopter = sp
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            stack.pop()
            if adopt:
                self._adopter = outer
            self.spans.append(sp)

    def to_json(self) -> list[dict]:
        t0 = min((s.start_ns for s in self.spans), default=0)
        return [
            {"id": s.id, "parent": s.parent, "name": s.name,
             "start_ns": s.start_ns - t0, "end_ns": s.end_ns - t0, **s.attrs}
            for s in sorted(self.spans, key=lambda s: s.start_ns)
        ]


def _wrap(tracer, name, fn):
    count = _COUNTERS.get(name)
    adopt = name == "metrics.sequence_quality"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, adopt=adopt) as sp:
            result = fn(*args, **kwargs)
            if count is not None:
                sp.attrs.update(count(args, kwargs, result))
            return result

    return traced


@contextlib.contextmanager
def traced_layers(tracer, package="codecbench"):
    """Wrap every call in LAYER_CALLS for the duration of the block."""
    saved = []
    try:
        for module_name, calls in LAYER_CALLS.items():
            module = importlib.import_module(f"{package}.{module_name}")
            for call in calls:
                owner, _, attr = call.rpartition(".")
                target = getattr(module, owner) if owner else module
                original = getattr(target, attr)
                setattr(target, attr, _wrap(tracer, f"{module_name}.{attr}", original))
                saved.append((target, attr, original))
        yield
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def self_seconds(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered, reach = 0, s.start_ns
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end_ns - s.start_ns - covered) / 1e9
    return out


def descendants(spans, root_id) -> list[Span]:
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out, todo = [], [root_id]
    while todo:
        for s in children.get(todo.pop(), ()):
            out.append(s)
            todo.append(s.id)
    return out
