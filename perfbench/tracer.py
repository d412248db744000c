"""Per-layer tracing from outside the program.

The tracer wraps only per-batch and per-round public functions of the
program (and the campaign's per-frame pickling) while a traced pass runs,
records one span per call — name, start, end, parent and a few counters —
in memory, and restores every original when the pass ends.  It never
wraps a per-node or per-entry function: those run millions of times a
pass, and a wrapper on each distorts the pass it measures.  A layer that
can only be seen through such a function is reported as unmeasured, with
the reason, and never estimated.

Self time of a span is its duration minus the durations of its direct
child spans (spans of one thread nest, so children never overlap).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Per-layer metrics the tracer cannot measure from outside the program.
_PER_NODE = ("the single-query geometry kernels are called once per "
             "expanded node; wrapping them would be a per-node wrapper")
UNMEASURED = {"kernels.single_calls": _PER_NODE, "kernels.single_s": _PER_NODE}

#: Multi-query kernels (called once per round lane) and the position of
#: their ``(k, n, ...)`` block argument, whose ``k * n`` is the width.
MULTI_KERNELS = {
    "point_dists_multi": 1,
    "trans_dists_multi": 1,
    "mindist_multi": 1,
    "point_bounds_multi": 1,
    "trans_bounds_multi": 1,
    "trans_lower_multi": 2,
    "point_weak_bounds_multi": 1,
    "trans_weak_bounds_multi": 1,
    "trans_corner_minmax_multi": 1,
    "point_dists_raw": 1,
    "trans_dists_raw": 1,
}


def _rows(arg_index: int) -> Callable:
    return lambda args, kw, out: {"rows": len(args[arg_index])}


def _lane_rows(args, kw, out) -> dict:
    # stage_lane(self, searches, nodes, n, ...) / stage_lane_ids(self,
    # sids, nids, n, ...): k owners each stage n children.
    return {"rows": len(args[1]) * args[3]}


def _faulty_rows(args, kw, out) -> dict:
    return {"rows": len(args[1]), "attempts": int(args[3].sum())}


def _kernel_width(pos: int) -> Callable:
    def width(args, kw, out) -> dict:
        block = args[pos]
        return {"width": block.size // block.shape[-1]}

    return width


class Tracer:
    """In-memory span recorder with install/uninstall of its wrappers."""

    def __init__(self) -> None:
        #: Finished spans: (id, name, start, end, parent id, attrs).
        self.spans: List[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, {}))

    def event(self, name: str, attrs: dict) -> None:
        """A zero-length span (frame sent, hello received)."""
        t = time.perf_counter()
        stack = self._stack()
        self.spans.append(
            (next(self._ids), name, t, t, stack[-1] if stack else -1, attrs)
        )

    def _wrapper(self, fn: Callable, name: str, count: Optional[Callable]):
        tracer = self
        spans = self.spans
        ids = self._ids

        def traced(*args, **kw):
            stack = tracer._stack()
            parent = stack[-1] if stack else -1
            sid = next(ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            spans.append(
                (sid, name, t0, t1, parent,
                 count(args, kw, out) if count is not None else {})
            )
            return out

        return traced

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, count=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            new = classmethod(self._wrapper(raw.__func__, name, count))
        else:
            new = self._wrapper(raw, name, count)
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced boundary of the program."""
        import pickle

        import repro.broadcast.layout as layout
        import repro.core.base as core_base
        import repro.core.double as core_double
        import repro.core.hybrid as core_hybrid
        import repro.engine.batch as engine_batch
        import repro.engine.distributed.coordinator as coordinator
        import repro.engine.distributed.protocol as protocol
        import repro.engine.distributed.worker as worker
        import repro.engine.shared_scan as shared_scan
        from repro.broadcast.tuner import TunerLedger
        from repro.client.frontier import FrontierArena, NodeStore
        from repro.core.environment import TNNEnvironment
        from repro.engine.query import QueryEngine
        from repro.geometry import kernels

        patch = self._patch
        # Build layer.
        patch(TNNEnvironment, "build", "env.build")
        for cls in _layout_classes(layout):
            if "build_index" in cls.__dict__:
                patch(cls, "build_index", "layout.build_index")
            if "build_program" in cls.__dict__:
                patch(cls, "build_program", "layout.build_program")
        # Per-batch entry points of the shared scan.
        for mod in (engine_batch, shared_scan, worker, coordinator):
            if hasattr(mod, "execute_tnn_batch"):
                patch(mod, "execute_tnn_batch", "executor.batch")
        patch(QueryEngine, "run_many", "executor.batch")
        patch(shared_scan, "combine_lane_blocks", "executor.lane_blocks")
        patch(NodeStore, "build", "executor.node_store")
        # Per-round arena, ledger and kernel calls.
        patch(FrontierArena, "begin_round", "arena.begin_round")
        patch(FrontierArena, "serve", "arena.serve", _rows(1))
        patch(FrontierArena, "flush", "arena.flush")
        patch(FrontierArena, "stage_lane", "arena.stage_lane", _lane_rows)
        patch(FrontierArena, "stage_lane_ids", "arena.stage_lane", _lane_rows)
        patch(TunerLedger, "flush_round", "ledger.flush", _rows(1))
        patch(TunerLedger, "flush_round_faulty", "ledger.faulty_flush",
              _faulty_rows)
        for fname, pos in MULTI_KERNELS.items():
            patch(kernels, fname, "kernels.multi", _kernel_width(pos))
        # The per-query reference path.
        patch(QueryEngine, "tnn", "perquery.tnn")
        for mod in (core_base, core_double, core_hybrid):
            patch(mod, "run_all", "perquery.run_all")
        # The campaign protocol: per-chunk merge and per-frame pickling.
        patch(coordinator.ChunkMerger, "book", "campaign.merge")
        self._saved.append((protocol, "pickle", protocol.pickle))
        protocol.pickle = _FrameCodec(self, pickle)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def dump(self, path) -> None:
        """Write every span once, as JSON lines (name, start, end, parent)."""
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": t0, "end": t1,
                    "parent": parent, **attrs,
                }) + "\n")


def _layout_classes(layout) -> list:
    return [
        obj for obj in vars(layout).values()
        if isinstance(obj, type) and issubclass(obj, layout.BroadcastLayout)
    ]


class _FrameCodec:
    """Stands in for ``pickle`` inside the campaign protocol module.

    Every frame is pickled once by its sender and unpickled once by its
    receiver, so encoding sees each frame exactly once and decoding sees
    the coordinator's ``hello``.
    """

    def __init__(self, tracer: Tracer, pickle) -> None:
        self._tracer = tracer
        self._pickle = pickle
        self.HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL

    def dumps(self, obj, protocol=None) -> bytes:
        data = self._pickle.dumps(obj, protocol=protocol)
        self._tracer.event(
            "campaign.frame", {"kind": obj.get("kind"), "bytes": len(data) + 8}
        )
        return data

    def loads(self, data: bytes):
        msg = self._pickle.loads(data)
        if isinstance(msg, dict) and msg.get("kind") == "hello":
            self._tracer.event("campaign.hello", {})
        return msg


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def aggregate(spans: List[tuple], start: float) -> Dict[str, float]:
    """Raw per-layer sums of one traced region (times in raw seconds).

    ``start`` is when the region began (the worker-ready time counts from
    it).  Time sums are rescaled by the caller.
    """
    by_name: Dict[str, List[tuple]] = defaultdict(list)
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        by_name[span[1]].append(span)
        if span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]

    def total(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(s[3] - s[2] - child_time[s[0]] for s in by_name[name])

    def attr(name: str, key: str) -> float:
        return float(sum(s[5].get(key, 0) for s in by_name[name]))

    faulty_attempts = attr("ledger.faulty_flush", "attempts")
    faulty_rows = attr("ledger.faulty_flush", "rows")
    frames = by_name["campaign.frame"]
    welcomes = [s for s in frames if s[5].get("kind") == "welcome"]
    hellos = by_name["campaign.hello"]
    return {
        "build.index_s": total("layout.build_index"),
        "build.program_s": total("layout.build_program"),
        "build.env_s": total("env.build"),
        "build.warmup_s": total("bench.warmup"),
        "executor.batch_s": total("executor.batch"),
        "executor.self_s": self_time("executor.batch"),
        "executor.rounds": float(len(by_name["arena.begin_round"])),
        "executor.lane_blocks_s": total("executor.lane_blocks"),
        "executor.lane_blocks_calls": float(len(by_name["executor.lane_blocks"])),
        "executor.node_store_s": total("executor.node_store"),
        "executor.node_store_calls": float(len(by_name["executor.node_store"])),
        "arena.begin_round_s": total("arena.begin_round"),
        "arena.serve_s": total("arena.serve"),
        "arena.serve_rows": attr("arena.serve", "rows"),
        "arena.flush_s": total("arena.flush"),
        "arena.stage_lane_s": total("arena.stage_lane"),
        "arena.stage_lane_rows": attr("arena.stage_lane", "rows"),
        "ledger.flush_s": total("ledger.flush"),
        "ledger.flush_rows": attr("ledger.flush", "rows"),
        "ledger.faulty_flush_s": total("ledger.faulty_flush"),
        "ledger.faulty_rows": faulty_rows,
        "ledger.retry_share": (
            (faulty_attempts - faulty_rows) / faulty_attempts
            if faulty_attempts else 0.0
        ),
        "kernels.multi_calls": float(len(by_name["kernels.multi"])),
        "kernels.multi_width": attr("kernels.multi", "width"),
        "kernels.multi_s": total("kernels.multi"),
        "perquery.run_all_s": total("perquery.run_all"),
        "perquery.run_all_calls": float(len(by_name["perquery.run_all"])),
        "perquery.self_s": self_time("perquery.tnn"),
        "campaign.worker_ready_s": (
            min(s[2] for s in hellos) - start if hellos else 0.0
        ),
        "campaign.welcome_bytes": float(sum(s[5]["bytes"] for s in welcomes)),
        "campaign.frames": float(len(frames)),
        "campaign.frame_bytes": float(sum(s[5]["bytes"] for s in frames)),
        "campaign.merge_s": total("campaign.merge"),
        "trace.spans": float(len(spans)),
    }
