"""The benchmark's four workloads.

Each workload generates its inputs from the benchmark seed, sets up (raw
points -> ``TNNEnvironment.build`` -> one small warm-up call to its entry
point), runs timed passes through the public API, and checks a seeded
sample of its answers against a reference outside the timed region.
Load always comes from this one process, with at most one campaign
worker connection.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import repro.engine.distributed as distributed
from repro import BruteForceTNN, DoubleNN, HybridNN, QueryEngine, TNNEnvironment
from repro.broadcast import SystemParameters, make_fault_model
from repro.datasets import gaussian_clusters, sized_uniform
from repro.datasets.synthetic import PAPER_REGION_SIDE
from repro.engine import (
    KNNRequest,
    NNRequest,
    QueryWorkload,
    RangeRequest,
    SharedScanRunner,
    WindowRequest,
)
from repro.geometry import Point, Rect

from probe import HostClock


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; :data:`FULL` is the benchmark, :data:`TINY` the tests."""

    shared_points: int = 30_000
    shared_queries: int = 1_000
    perquery_points: int = 30_000
    perquery_queries: int = 1_000
    #: Calls between two probes in the per-query loop, and calls per
    #: block (a block's latencies are rescaled by the probes inside it).
    perquery_probe_every: int = 8
    perquery_block: int = 16
    #: Latency samples one run must collect (p99 then has 10 beyond it).
    perquery_min_samples: int = 1_000
    mixed_points: int = 20_000
    mixed_clusters: int = 12
    mixed_requests: int = 2_000
    campaign_points: int = 2_000
    campaign_queries: int = 3_000
    warmup_queries: int = 8
    #: Set-ups per run; ``setup_s`` is their median.
    setups: int = 3
    #: Timed passes a run makes at least, whatever ``--seconds`` says.
    min_passes: int = 3
    #: Answers checked per run (``check_brute`` for the brute-force oracle).
    check_sample: int = 48
    check_brute: int = 4


FULL = Sizes()
TINY = Sizes(
    shared_points=300,
    shared_queries=24,
    perquery_points=300,
    perquery_queries=24,
    perquery_probe_every=4,
    perquery_block=8,
    perquery_min_samples=24,
    mixed_points=400,
    mixed_clusters=4,
    mixed_requests=32,
    campaign_points=200,
    campaign_queries=40,
    warmup_queries=2,
    setups=2,
    min_passes=2,
    check_sample=8,
    check_brute=2,
)

SMALL_PAGES = SystemParameters(page_capacity=64)
LARGE_PAGES = SystemParameters(page_capacity=512)


@dataclass
class PassOutput:
    """One timed pass: its answers, cost sums and latency samples.

    Latencies are ``(ms, weight)`` pairs: a batch call answers all its
    queries when it returns, so each of its queries has the call's
    latency; the per-query loop records one sample per call.
    """

    n_queries: int
    raw_s: float
    norm_s: float
    latencies: List[Tuple[float, int]]
    raw_latencies: List[Tuple[float, int]]
    access_sum: float
    tune_in_sum: float
    answers: list
    stats: dict = field(default_factory=dict)


def _batch_pass(clock: HostClock, fn, n: int, costs) -> PassOutput:
    answers, region = clock.time_call(fn)
    access, tune = costs(answers)
    return PassOutput(
        n_queries=n,
        raw_s=region.raw_s,
        norm_s=region.norm_s,
        latencies=[(region.norm_s * 1e3, n)],
        raw_latencies=[(region.raw_s * 1e3, n)],
        access_sum=access,
        tune_in_sum=tune,
        answers=answers,
    )


def _tnn_costs(results) -> Tuple[float, float]:
    return (
        math.fsum(r.access_time for r in results),
        float(sum(r.tune_in_time for r in results)),
    )


def _tnn_same(a, b) -> bool:
    """Bit-identity of the answer and the paper's two cost metrics."""
    return (
        a.pair == b.pair
        and a.distance == b.distance
        and a.access_time == b.access_time
        and a.tune_in_s == b.tune_in_s
        and a.tune_in_r == b.tune_in_r
    )


def _check_each(indices, compare) -> Tuple[int, int, List[str]]:
    """Run ``compare(i)`` per index; a raise counts as a wrong answer."""
    failed = 0
    notes: List[str] = []
    for i in indices:
        try:
            ok = compare(i)
        except Exception as exc:  # a raising query is a failed query
            ok = False
            notes.append(f"query {i} raised {type(exc).__name__}: {exc}")
        if not ok:
            failed += 1
            if len(notes) < 5:
                notes.append(f"query {i}: answer differs from the reference")
    return len(indices), failed, notes


def _sub_seeds(name: str, seed: int, k: int) -> List[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(2**31) for _ in range(k)]


#: Dataset seeds of the S and R channels.  Datasets are fixed, as in the
#: paper's evaluation; the run seed draws the queries, their phases and
#: the fault seed.  (Cluster placement alone moved client_mixed's tune-in
#: by +-40% between dataset seeds, which would drown any change.)
DATA_S, DATA_R = 11, 12


class Workload:
    """Interface of one workload; see the module docstring.

    ``traced`` marks the instance of a traced run (see
    :class:`CampaignLossy`).
    """

    name = ""
    #: Run one untimed pass before the timed ones.
    warm_pass = True

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced

    def inputs(self, seed: int, sizes: Sizes) -> dict:
        raise NotImplementedError

    def setup(self, inp: dict, sizes: Sizes, mark) -> TNNEnvironment:
        """Build the environment, then call ``mark`` around the warm-up."""
        raise NotImplementedError

    def prepare(self, env: TNNEnvironment, inp: dict, sizes: Sizes) -> dict:
        """Untimed per-run state (materialised queries) after set-up."""
        raise NotImplementedError

    def run_pass(self, state: dict, clock: HostClock, sizes: Sizes) -> PassOutput:
        raise NotImplementedError

    def check(self, state: dict, out: PassOutput, indices: List[int]):
        raise NotImplementedError

    def n_queries(self, sizes: Sizes) -> int:
        raise NotImplementedError


def _check_tnn(state: dict, out: PassOutput, indices: List[int]):
    """Sampled answers against the per-query ``HybridNN().run`` oracle."""
    env, queries, results = state["env"], state["queries"], out.answers
    algo = HybridNN()
    return _check_each(
        indices, lambda i: _tnn_same(algo.run(env, *queries[i]), results[i])
    )


class TNNShared(Workload):
    """Hybrid-NN TNN queries page-major through the serial shared scan."""

    name = "tnn_shared"

    def n_queries(self, sizes):
        return sizes.shared_queries

    def inputs(self, seed, sizes):
        (c,) = _sub_seeds(self.name, seed, 1)
        return {
            "s": sized_uniform(sizes.shared_points, seed=DATA_S),
            "r": sized_uniform(sizes.shared_points, seed=DATA_R),
            "workload": QueryWorkload(sizes.shared_queries, seed=c),
            "warmup": QueryWorkload(sizes.warmup_queries, seed=c + 1),
        }

    def setup(self, inp, sizes, mark):
        env = TNNEnvironment.build(inp["s"], inp["r"], params=SMALL_PAGES)
        with mark():
            SharedScanRunner(env, inp["warmup"], workers=0).run_algorithm(
                HybridNN(), record_log=False
            )
        return env

    def prepare(self, env, inp, sizes):
        runner = SharedScanRunner(env, inp["workload"], workers=0)
        return {"env": env, "runner": runner, "queries": runner.queries}

    def run_pass(self, state, clock, sizes):
        runner = state["runner"]
        return _batch_pass(
            clock,
            lambda: runner.run_algorithm(HybridNN(), record_log=False),
            sizes.shared_queries,
            _tnn_costs,
        )

    def check(self, state, out, indices):
        return _check_tnn(state, out, indices)


class TNNPerQuery(Workload):
    """Double-NN queries one ``QueryEngine.tnn`` call at a time."""

    name = "tnn_per_query"

    def n_queries(self, sizes):
        return sizes.perquery_queries

    def inputs(self, seed, sizes):
        (c,) = _sub_seeds(self.name, seed, 1)
        return {
            "s": sized_uniform(sizes.perquery_points, seed=DATA_S),
            "r": sized_uniform(sizes.perquery_points, seed=DATA_R),
            "workload": QueryWorkload(sizes.perquery_queries, seed=c),
            "warmup": QueryWorkload(sizes.warmup_queries, seed=c + 1),
        }

    def setup(self, inp, sizes, mark):
        env = TNNEnvironment.build(inp["s"], inp["r"], params=LARGE_PAGES)
        with mark():
            engine = QueryEngine(env)
            algo = DoubleNN()
            for p, ps, pr in inp["warmup"].queries(env):
                engine.tnn(p, algo, ps, pr)
        return env

    def prepare(self, env, inp, sizes):
        return {
            "env": env,
            "engine": QueryEngine(env),
            "queries": inp["workload"].queries(env),
        }

    def run_pass(self, state, clock, sizes):
        """Closed loop: the next call starts when the previous returned.

        A probe runs between calls every ``perquery_probe_every`` calls
        (never inside one); each call's latency is rescaled by the mean
        of the probes of its ``perquery_block``-call block.
        """
        engine, queries = state["engine"], state["queries"]
        algo = DoubleNN()
        every, block = sizes.perquery_probe_every, sizes.perquery_block
        results = []
        lat: List[Tuple[float, int]] = []
        raw_lat: List[Tuple[float, int]] = []
        raw_total = norm_total = 0.0
        for at in range(0, len(queries), block):
            times = []
            probes = [clock.probe()]
            for j, (p, ps, pr) in enumerate(queries[at : at + block], 1):
                t0 = time.perf_counter()
                results.append(engine.tnn(p, algo, ps, pr))
                times.append(time.perf_counter() - t0)
                if j % every == 0:
                    probes.append(clock.probe())
            factor = clock.factor(probes)
            for t in times:
                lat.append((t * factor * 1e3, 1))
                raw_lat.append((t * 1e3, 1))
                raw_total += t
                norm_total += t * factor
        access, tune = _tnn_costs(results)
        return PassOutput(
            n_queries=len(queries),
            raw_s=raw_total,
            norm_s=norm_total,
            latencies=lat,
            raw_latencies=raw_lat,
            access_sum=access,
            tune_in_sum=tune,
            answers=results,
        )

    def check(self, state, out, indices):
        env, queries, results = state["env"], state["queries"], out.answers
        brute = BruteForceTNN()

        def same(i):
            ref = brute.run(env, *queries[i])
            got = results[i]
            return ref.pair == got.pair and math.isclose(
                ref.distance, got.distance, rel_tol=1e-12
            )

        return _check_each(indices, same)


class ClientMixed(Workload):
    """Mixed NN / kNN / range / window batches through ``run_many``."""

    name = "client_mixed"

    def n_queries(self, sizes):
        return sizes.mixed_requests

    def inputs(self, seed, sizes):
        (c,) = _sub_seeds(self.name, seed, 1)
        return {
            "s": gaussian_clusters(
                sizes.mixed_points, sizes.mixed_clusters, seed=DATA_S
            ),
            "r": gaussian_clusters(
                sizes.mixed_points, sizes.mixed_clusters, seed=DATA_R
            ),
            "seed": c,
        }

    @staticmethod
    def requests(env: TNNEnvironment, n: int, seed: int) -> list:
        """``n`` requests in equal NN / kNN / range / window shares.

        Points are uniform over the paper's square, each request picks a
        channel and a phase within that channel's cycle; the radius and
        the window side are 1% of the square's side.
        """
        rng = random.Random(seed)
        side = PAPER_REGION_SIDE
        radius = 0.01 * side
        half = 0.005 * side
        cycles = {"s": env.s_program.cycle_length, "r": env.r_program.cycle_length}
        out = []
        for i in range(n):
            p = Point(rng.uniform(0.0, side), rng.uniform(0.0, side))
            channel = rng.choice("sr")
            phase = rng.uniform(0.0, cycles[channel])
            kind = i % 4
            if kind == 0:
                out.append(NNRequest(p, phase, channel))
            elif kind == 1:
                out.append(KNNRequest(p, 8, phase, channel))
            elif kind == 2:
                out.append(RangeRequest(p, radius, phase, channel))
            else:
                out.append(
                    WindowRequest(
                        Rect(p.x - half, p.y - half, p.x + half, p.y + half),
                        phase,
                        channel,
                    )
                )
        return out

    def setup(self, inp, sizes, mark):
        env = TNNEnvironment.build(inp["s"], inp["r"], params=SMALL_PAGES)
        with mark():
            QueryEngine(env).run_many(
                self.requests(env, 4 * sizes.warmup_queries, inp["seed"] + 1),
                record_log=False,
            )
        return env

    def prepare(self, env, inp, sizes):
        return {
            "env": env,
            "engine": QueryEngine(env),
            "requests": self.requests(env, sizes.mixed_requests, inp["seed"]),
        }

    def run_pass(self, state, clock, sizes):
        engine, reqs = state["engine"], state["requests"]
        return _batch_pass(
            clock,
            lambda: engine.run_many(reqs, record_log=False),
            len(reqs),
            lambda answers: (
                math.fsum(a.access_time for a in answers),
                float(sum(a.tune_in for a in answers)),
            ),
        )

    def check(self, state, out, indices):
        engine, reqs, answers = state["engine"], state["requests"], out.answers

        def single(req):
            if isinstance(req, NNRequest):
                return engine.nn(req.point, req.phase, req.channel)
            if isinstance(req, KNNRequest):
                return engine.knn(req.point, req.k, req.phase, req.channel)
            if isinstance(req, RangeRequest):
                return engine.range(req.center, req.radius, req.phase, req.channel)
            return engine.window(req.window, req.phase, req.channel)

        return _check_each(indices, lambda i: single(reqs[i]) == answers[i])


class CampaignLossy(Workload):
    """Hybrid-NN campaigns over one localhost worker on a lossy channel."""

    name = "campaign_lossy"

    #: Every campaign spawns a fresh worker process, so a pass leaves
    #: nothing warm for the next one.
    warm_pass = False

    def n_queries(self, sizes):
        return sizes.campaign_queries

    def inputs(self, seed, sizes):
        c, d = _sub_seeds(self.name, seed, 2)
        return {
            "s": sized_uniform(sizes.campaign_points, seed=DATA_S),
            "r": sized_uniform(sizes.campaign_points, seed=DATA_R),
            "loss_seed": d,
            "workload": QueryWorkload(sizes.campaign_queries, seed=c),
            "warmup": QueryWorkload(sizes.warmup_queries, seed=c + 1),
        }

    def _campaign(self, env, workload):
        # A traced run hosts its one worker in-process (a thread through
        # ``run_worker``) so the worker-side spans reach the tracer.
        with _in_process_worker() if self.traced else _worker_beside_probe():
            return QueryEngine(env).run_campaign(
                workload, HybridNN(), spawn_workers=1
            )

    def setup(self, inp, sizes, mark):
        env = TNNEnvironment.build(
            inp["s"],
            inp["r"],
            params=SMALL_PAGES,
            loss=make_fault_model("gilbert-elliott", seed=inp["loss_seed"]),
        )
        with mark():
            self._campaign(env, inp["warmup"])
        return env

    def prepare(self, env, inp, sizes):
        return {
            "env": env,
            "workload": inp["workload"],
            "queries": inp["workload"].queries(env),
        }

    def run_pass(self, state, clock, sizes):
        env, workload = state["env"], state["workload"]
        out = _batch_pass(
            clock,
            lambda: self._campaign(env, workload),
            workload.n_queries,
            lambda campaign: _tnn_costs(campaign.results),
        )
        out.stats = dict(out.answers.stats)
        out.answers = out.answers.results
        return out

    def check(self, state, out, indices):
        return _check_tnn(state, out, indices)


class _ThreadWorker:
    """A ``Popen``-shaped handle over an in-process ``run_worker`` thread."""

    def __init__(self, address) -> None:
        self._thread = threading.Thread(
            target=distributed.run_worker, args=(address,), kwargs={"name": "w0"},
            daemon=True,
        )
        self._thread.start()

    def wait(self, timeout: Optional[float] = None) -> int:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("in-process worker did not stop")
        return 0

    def terminate(self) -> None:  # a thread cannot be killed; wait() reports it
        pass

    kill = terminate


@contextmanager
def _worker_beside_probe():
    """Start the worker on the core this thread, the probe's, is moved to.

    The worker computes on one core while this process mostly waits, and
    the two cores of a shared host drift independently: on a 2-core host
    a probe on the other core correlated 0.24 with pass times, one on the
    same core 0.71, and pinning cut the ten-seed spread of campaign
    throughput from 13% to 7%.  The coordinator's threads, started before
    the spawn, keep every core.
    """
    spawn = distributed.spawn_local_workers
    allowed = os.sched_getaffinity(0)

    def pinned(address, n, **kw):
        os.sched_setaffinity(0, {max(allowed)})
        return spawn(address, n, **kw)

    distributed.spawn_local_workers = pinned
    try:
        yield
    finally:
        distributed.spawn_local_workers = spawn
        os.sched_setaffinity(0, allowed)


@contextmanager
def _in_process_worker():
    """Swap ``spawn_local_workers`` for in-process threads while active."""
    saved = distributed.spawn_local_workers
    distributed.spawn_local_workers = lambda address, n, **_: [
        _ThreadWorker(address) for _ in range(n)
    ]
    try:
        yield
    finally:
        distributed.spawn_local_workers = saved


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (TNNShared, TNNPerQuery, ClientMixed, CampaignLossy)
}
