"""Span tracing of waveshrink's layers from outside the package.

Each public function of a layer is wrapped where its caller binds it (for
example ``waveshrink.experiments.haar_dwt`` as well as
``waveshrink.shrinkage.haar_dwt``), so no file of the package changes.  A span
records its name, start, end and the span that caused it; self time is the
span's duration minus the time its child spans cover.  Spans stay in memory
and are written once, when the run ends.

Pool workers fork after the wrappers are installed, so they inherit them.
Each worker starts with an empty span list and writes its spans to a file in
``spool_dir`` when it exits; :meth:`Tracer.collect_workers` merges them.
"""
from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import time
from contextlib import contextmanager

_BYTES = 8  # float64


def _levels(n: int) -> int:
    return n.bit_length() - 1


# Computed counters: derived from argument shapes, never measured.  A pass
# over m float64 values reads and writes them once: 16 m bytes.  The Haar
# recursion makes one pass per level (2^j values at level j) after copying the
# input; a dense interval apply reads the n x n matrix once.
def _haar_dwt_bytes(args, kwargs, result):
    n, j0 = len(args[0]), args[1]
    passes = n + sum(2 ** j for j in range(j0 + 1, _levels(n) + 1))
    return {"transform.bytes_moved_computed": 2 * _BYTES * passes}


def _haar_idwt_bytes(args, kwargs, result):
    n = args[0].n
    passes = sum(2 ** j for j in range(args[0].coarse_level + 1, _levels(n) + 1))
    return {"transform.bytes_moved_computed": 2 * _BYTES * passes}


def _with_scaling_bytes(args, kwargs, result):
    self, scaled = args[0], args[1]
    moved = 0 if scaled == self.scaled else 2 * _BYTES * self.n
    return {"transform.bytes_moved_computed": moved}


def _interval_apply_bytes(args, kwargs, result):
    n = args[1].n
    return {"interval.bytes_moved_computed": _BYTES * (n * n + 2 * n)}


def system_bytes(n: int, coarse_level: int) -> int:
    """Dense interval system: the n x n matrix, ``scaling_rows`` for levels
    J0..J (2^j x n each, the identity at J included) and ``detail_rows`` for
    levels J0..J-1."""
    J = _levels(n)
    scaling = sum(2 ** j for j in range(coarse_level, J + 1))
    detail = sum(2 ** j for j in range(coarse_level, J))
    return _BYTES * n * (n + scaling + detail)


def _build_counters(args, kwargs, result):
    return {"interval.system_bytes_computed": system_bytes(args[1], args[2])}


def _event_counters(args, kwargs, result):
    return {"noise.event_A.tests": 1, "noise.event_A.members": int(result.member)}


def _event_name(args, kwargs):
    system = args[2] if len(args) > 2 else kwargs.get("system", "haar")
    return "noise.in_event_A." + ("haar" if isinstance(system, str) else "interval")


# (module, attribute, span name, counter hook).  A function bound in several
# namespaces is listed once per namespace and shares one wrapper.
_FUNCTIONS = [
    ("waveshrink.cli", "cmd_simulate", "cli.simulate", None),
    ("waveshrink.cli", "run_plan", "experiments.run_plan", None),
    ("waveshrink.cli", "summarize", "experiments.summarize", None),
    ("waveshrink.cli", "write_reports", "experiments.write_reports", None),
    ("waveshrink.cli", "write_summaries", "experiments.write_summaries", None),
    ("waveshrink.experiments", "run_trial", "experiments.run_trial", None),
    ("waveshrink.experiments", "_assert_detail_contraction",
     "experiments.contraction_check", None),
    ("waveshrink.experiments", "estimate_event_probability",
     "experiments.estimate_event_probability", None),
    ("waveshrink.experiments", "make_signal", "signals.make_signal", None),
    ("waveshrink.experiments", "sample_noise", "noise.sample_noise", None),
    ("waveshrink.experiments", "in_event_A", _event_name, _event_counters),
    ("waveshrink.experiments", "haar_dwt", "transform.haar_dwt", _haar_dwt_bytes),
    ("waveshrink.experiments", "haar_idwt", "transform.haar_idwt", _haar_idwt_bytes),
    ("waveshrink.experiments", "interval_dwt", "interval.dwt", _interval_apply_bytes),
    ("waveshrink.experiments", "interval_idwt", "interval.idwt", _interval_apply_bytes),
    ("waveshrink.experiments", "apply_threshold", "shrinkage.apply_threshold", None),
    ("waveshrink.experiments", "build_interval_system", "interval.build",
     _build_counters),
    ("waveshrink.shrinkage", "shrink", "shrinkage.shrink", None),
    ("waveshrink.shrinkage", "haar_dwt", "transform.haar_dwt", _haar_dwt_bytes),
    ("waveshrink.shrinkage", "haar_idwt", "transform.haar_idwt", _haar_idwt_bytes),
    ("waveshrink.shrinkage", "apply_threshold", "shrinkage.apply_threshold", None),
    ("waveshrink.interval", "interval_dwt", "interval.dwt", _interval_apply_bytes),
    ("waveshrink.interval", "interval_idwt", "interval.idwt", _interval_apply_bytes),
    ("waveshrink.interval", "build_interval_system", "interval.build",
     _build_counters),
]
# (module, class, method, span name, counter hook)
_METHODS = [
    ("waveshrink.shrinkage", "ShrinkageConfig", "build", "shrinkage.config_build", None),
    ("waveshrink.signals", "HolderSignal", "sample", "signals.sample", None),
    ("waveshrink.transform", "CoefficientPyramid", "with_scaling",
     "transform.with_scaling", _with_scaling_bytes),
]


class Tracer:
    """In-memory span recorder with per-process self-time accounting."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self._patched: list[tuple[object, str, object]] = []
        self._reset(root_parent=None)
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self, root_parent):
        self.spans: list[tuple] = []   # (id, parent, name, start, end, self, phase)
        self.counters: dict = {}
        self._stack: list[list] = []   # [span id, child time]
        self._next_id = 0
        self._root_parent = root_parent
        self.paused = False
        self.phase = "loop"

    def _after_fork(self):
        if not self._patched:
            return
        parent = self._stack[-1][0] if self._stack else None
        self._reset(root_parent=(os.getppid(), parent))
        multiprocessing.util.Finalize(self, self._spool, exitpriority=10)

    def _spool(self):
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "parent": self._root_parent,
                       "spans": self.spans, "counters": self.counters}, fh)

    def collect_workers(self) -> list[dict]:
        """Read and remove the span files of workers that have exited."""
        out = []
        for name in sorted(os.listdir(self.spool_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                path = os.path.join(self.spool_dir, name)
                with open(path) as fh:
                    out.append(json.load(fh))
                os.unlink(path)
        return out

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (the harness's own time)."""
        frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(frame, name, start, time.perf_counter())

    @contextmanager
    def pause(self):
        """Run library calls without spans (input generation, output checks)."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def _open(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, start, end):
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append((frame[0], parent[0] if parent else None, name,
                           start, end, duration - frame[1], self.phase))

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                label = name(args, kwargs) if callable(name) else name
                self._close(frame, label, start, end)
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result
        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module_name, attr, name, hook in _FUNCTIONS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name, hook)
            self._patched.append((module, attr, fn))
            setattr(module, attr, wrappers[id(fn)])
        for module_name, cls_name, attr, name, hook in _METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, hook))
            else:
                wrapped = self._wrap(raw, name, hook)
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def self_times(spans) -> dict[str, list[float]]:
    """name -> [calls, total seconds, self seconds]."""
    out: dict[str, list[float]] = {}
    for _sid, _parent, name, start, end, self_s, _phase in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += self_s
    return out
