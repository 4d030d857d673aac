"""Span tracing around the package's public calls, installed from outside.

The tracer replaces each traced function or method at the name its caller
looks up (a module attribute or a class attribute) with a wrapper that
records one span: name, start, end and the span that was open when the call
began.  Nothing inside the package changes; uninstalling restores the
original objects.  Spans live in typed arrays while the workload runs and
are reduced to per-name self time afterwards.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter

import numpy as np


def _true(result) -> bool:
    return result is True


def _matrix_bytes(args, kwargs, result) -> int:
    n = args[0].positions.shape[0]
    return 8 * n * n


def _written_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[1])


def boundaries(pkg):
    """(owner, attribute, span name, outcome, bytes) for every traced call.

    outcome maps a return value to "useful" (counted into <name>.useful);
    bytes maps (args, kwargs, result) to bytes touched by the call.
    """
    analysis, engine, quantum, topology, cli = (
        pkg.analysis, pkg.engine, pkg.quantum, pkg.topology, pkg.cli)
    state = engine.PercolationState
    return [
        (cli, "main", "cli.main", None, None),
        (analysis, "find_threshold", "analysis.find_threshold", None, None),
        (analysis, "min_d0_for_target", "analysis.min_d0_for_target", None, None),
        (analysis, "scenario_params", "analysis.scenario_params", None, None),
        # analysis binds the engine entry points by name at import time
        (analysis, "init_state", "engine.init_state", None, None),
        (analysis, "run", "engine.run", None, None),
        (engine, "init_state", "engine.init_state", None, None),
        (engine, "run", "engine.run", None, None),
        (engine, "save_event_log", "engine.save", None, _written_bytes),
        (engine, "save_partition", "engine.save", None, _written_bytes),
        (state, "connectable_pairs", "engine.scan", bool, None),
        (state, "is_isolated", "engine.isolation", _true, None),
        (state, "merge", "engine.merge", None, None),
        (state, "reduce_and_remove", "engine.reduce", None, None),
        (quantum.ModelParams, "component_range_km", "quantum.component_range",
         None, None),
        (topology.PointCloud, "distance_matrix", "topology.distance_matrix",
         None, _matrix_bytes),
        (topology, "generate_uniform_points", "topology.generate", None, None),
        (topology, "generate_fiber_network", "topology.generate", None, None),
        (topology, "insert_repeaters", "topology.insert_repeaters", None, None),
        (topology, "load_edge_list", "topology.load_edge_list", None, None),
    ]


class Tracer:
    """Records spans for the calls listed by boundaries() while installed."""

    def __init__(self, pkg):
        self._boundaries = boundaries(pkg)
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.useful: Counter = Counter()
        self.nbytes: Counter = Counter()
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, fn, span, outcome, size):
        if span not in self._name_id:
            self._name_id[span] = len(self.names)
            self.names.append(span)
        nid = self._name_id[span]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, useful, nbytes = self._stack, self.useful, self.nbytes
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                useful[span] += 1
            if size is not None:
                nbytes[span] += size(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for owner, attr, span, outcome, size in self._boundaries:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, outcome, size))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds, useful, bytes.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run is single-threaded.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {span: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(own[i]), "useful": self.useful[span],
                       "bytes": self.nbytes[span]}
                for i, span in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end))
