"""The three workloads and their end-to-end runs.

Every workload fixes its instance, its stack configuration and its
offered loads here, so that a later change is measured at the same
load as its parent.  Only the requests, sources, arrival times and
metrics A/B are drawn from the run's ``--seed``.

* ``trees-batch``   — whole-tree throughput of a 2-worker ``PhastPool``
  over a witness CH at n=16,384 (the paper's §VI diameter sweep).  Its
  "requests" are single-source diameter jobs submitted open-loop to the
  pool; no server or router code runs.
* ``serve-depot``   — one ``repro serve`` process over a witness CH at
  n=4,096, hot-depot mix (7/8 ``one_to_many``, 1/8 ``query``).
* ``serve-swap-matrix`` — two ``repro serve --topology`` replicas behind
  ``repro route``: one_to_many, tree and 16x16 matrix reads while
  ``swap_metric`` alternates two metrics at a fixed period.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.apps.diameter import DiameterReducer
from repro.ch import build_topology, contract_graph, customize
from repro.core import PhastPool
from repro.graph import (
    StaticGraph,
    dfs_order,
    europe_like,
    save_graph,
    save_hierarchy,
    save_metric,
    save_topology,
)
from repro.graph.csr import INF
from repro.server import ServerConfig
from repro.sssp.dijkstra import dijkstra

import loadgen
import stack
from stats import summarize

WORK = Path(__file__).resolve().parent / ".work"

#: Offered loads and limits, fixed per workload.  ``ladder`` is the
#: ascending list of rates (requests/s; jobs/s on trees-batch) searched
#: for ``max_rps_slo``; ``light`` and ``busy`` are members of it and are
#: measured for longer.  ``limit_ms`` bounds the tail latency of a rung.
WORKLOADS = {
    "trees-batch": {
        "scale": 128, "setups": 3,
        "workers": 2, "k": 16, "job_sources": 1, "reduce_sources": 128,
        "shares": {"trees": 0.25, "light": 0.3, "busy": 0.3, "rung": 0.06},
        "limit_ms": 36.0,
        "light": 35.0, "busy": 93.0,
        "ladder": [35.0, 93.0, 140.0, 840.0],
    },
    "serve-depot": {
        "scale": 64, "setups": 3,
        "depots": 8, "targets": 8,
        "shares": {"trees": 0.12, "light": 0.3, "busy": 0.3, "rung": 0.1},
        "limit_ms": 40.0,
        "light": 75.0, "busy": 200.0,
        "ladder": [75.0, 200.0, 300.0, 3000.0],
    },
    "serve-swap-matrix": {
        "scale": 64, "setups": 3, "replicas": 2,
        "targets": 8, "matrix_k": 16, "target_sets": 96,
        "swap_period_s": 2.0,
        "shares": {"trees": 0.08, "light": 0.35, "busy": 0.25, "rung": 0.06},
        "limit_ms": 600.0,
        "light": 15.0, "busy": 30.0,
        "ladder": [15.0, 30.0, 45.0, 68.0],
    },
}

#: Sampled replies checked against the oracle per open-loop phase.
CHECK_SAMPLES = 6
#: Rounds of a run: each measures one throughput window and one
#: separately seeded light and busy schedule, so every end-to-end figure
#: samples the whole run.
SUBPASSES = 5


@dataclass
class Outcome:
    """What one run measured, and whether the answers were right."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    checked: int = 0
    leaks: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def count(self, step: loadgen.StepResult) -> None:
        self.attempted += step.sent
        self.failed += step.failed

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.leaks and self.checked > 0


# -- instances ---------------------------------------------------------------


def make_graph(scale: int) -> StaticGraph:
    """The workload's fixed europe-like instance in DFS order."""
    g = europe_like(scale=scale)
    return g.permute(dfs_order(g))


def seeded_metric(g: StaticGraph, rng: np.random.Generator) -> np.ndarray:
    """Travel times scaled by a seeded per-arc factor in [1, 1.5)."""
    factor = rng.uniform(1.0, 1.5, size=g.m)
    return np.maximum(1, (g.arc_len * factor).astype(np.int64))


def swap_payloads(g: StaticGraph, seed: int) -> dict:
    """Metrics A and B of serve-swap-matrix, as swap_metric weight lists."""
    return {"A": seeded_metric(g, phase_rng(seed, 10)).tolist(),
            "B": seeded_metric(g, phase_rng(seed, 11)).tolist()}


async def swap_loop(call, payloads: dict, period: float,
                    stop: asyncio.Event, swap_ms: list, out: "Outcome") -> None:
    """``swap_metric`` every ``period`` seconds, alternating B and A."""
    loop = asyncio.get_running_loop()
    nxt = "B"
    while True:
        try:
            await asyncio.wait_for(stop.wait(), period)
            return
        except asyncio.TimeoutError:
            pass
        t0 = loop.time()
        reply = await call({"op": "swap_metric", "weights": payloads[nxt]})
        out.attempted += 1
        if reply.get("ok"):
            swap_ms.append((loop.time() - t0) * 1e3)
            nxt = "A" if nxt == "B" else "B"
        else:
            out.failed += 1


def instance_info(g: StaticGraph, *, ch=None, topology=None) -> dict:
    info = {"n": int(g.n), "m": int(g.m)}
    if ch is not None:
        info["hierarchy_arcs"] = int(ch.upward.m + ch.downward_rev.m)
    if topology is not None:
        info["closure_arcs"] = int(topology.arc_tail.size)
    return info


class Oracle:
    """Dijkstra distances per (metric, source), computed on demand."""

    def __init__(self, graphs: dict[str, StaticGraph]) -> None:
        self.graphs = graphs
        self._cache: dict = {}

    def dist(self, metric: str, source: int) -> np.ndarray:
        key = (metric, int(source))
        if key not in self._cache:
            self._cache[key] = dijkstra(
                self.graphs[metric], int(source), with_parents=False
            ).dist
        return self._cache[key]

    def classify(self, source: int, targets, got) -> set:
        """Metrics under which ``got`` equals the oracle's answer."""
        got = np.asarray(got, dtype=np.int64)
        return {
            m for m in self.graphs
            if np.array_equal(
                self.dist(m, source)
                if targets is None else self.dist(m, source)[targets],
                got,
            )
        }


def reply_metrics(oracle: Oracle, req: dict, reply: dict, rows: int) -> set:
    """Metrics consistent with one whole reply (empty set = wrong)."""
    op = req["op"]
    if op == "one_to_many":
        return oracle.classify(req["source"], req["targets"], reply["dist"])
    if op == "tree":
        return oracle.classify(req["source"], None, reply["dist"])
    if op == "query":
        want = {m for m in oracle.graphs
                if int(oracle.dist(m, req["source"])[req["target"]])
                == int(reply["distance"])}
        return want
    if op == "matrix":
        cols = req["targets"]
        agree = set(oracle.graphs)
        for i in range(min(rows, len(req["sources"]))):
            agree &= oracle.classify(req["sources"][i], cols,
                                     reply["matrix"][i])
        return agree
    raise ValueError(f"cannot check op {op!r}")


def check_replies(out: Outcome, oracle: Oracle, kept: list,
                  matrix_rows: int = 4) -> None:
    """Count wrong answers among ``kept`` ``(index, request, reply)``."""
    for _, req, reply in kept:
        if not reply.get("ok"):
            continue  # already counted as failed
        out.checked += 1
        if not reply_metrics(oracle, req, reply, matrix_rows):
            out.wrong += 1


# -- shared phases -------------------------------------------------------------


def phase_rng(seed: int, phase: int) -> np.random.Generator:
    return np.random.default_rng([seed, phase])


def sample_keep(rng: np.random.Generator, count: int, k: int) -> frozenset:
    if count == 0:
        return frozenset()
    return frozenset(int(i) for i in rng.choice(count, size=min(k, count),
                                                replace=False))


def rung_tail(passes: list) -> float:
    """Median over a rung's sub-passes of each one's exact tail."""
    return statistics.median(summarize(p.latencies_ms)["tail"]
                             for p in passes)


def slo_ok(passes: list, limit_ms: float) -> bool:
    """A rung passes: tail within the limit, nothing failed, no backlog."""
    if any(p.failed or not p.latencies_ms or p.backlog_grew(limit_ms)
           for p in passes):
        return False
    return rung_tail(passes) <= limit_ms


async def open_loop_phases(call, make_request, wl: dict, seed: int,
                           seconds: float, out: Outcome, *, each_round,
                           keep_per_phase: int = CHECK_SAMPLES) -> dict:
    """Measure throughput and the light and busy rungs, then climb the ladder.

    Returns ``{rate: [sub-pass results]}``.  The run is ``SUBPASSES``
    rounds of ``await each_round(i)`` (one throughput window), a light
    and a busy schedule, each separately seeded; a slow stretch of a
    shared host thus lands in a minority of every figure's windows.  The
    light and busy p50 pool every sample, their tail is the median of
    the sub-passes' tails.  The climb then runs each remaining rung once
    and stops at the first failing rung above the busy rate.
    """
    steps: dict[float, list] = {}
    shares = wl["shares"]

    async def one_pass(index: int, rate: float, sub: int,
                       window: float) -> None:
        rng = phase_rng(seed, 100 + 10 * index + sub)
        offsets = loadgen.poisson_offsets(rng, rate, window)
        requests = [make_request(rng) for _ in range(len(offsets))]
        keep = sample_keep(rng, len(requests), keep_per_phase)
        step = await loadgen.run_open_loop(call, offsets, requests,
                                           rate=rate, keep=keep)
        out.count(step)
        steps.setdefault(rate, []).append(step)
        await asyncio.sleep(0.05)

    for sub in range(SUBPASSES):
        await each_round(sub)
        for name in ("light", "busy"):
            rate = wl[name]
            await one_pass(wl["ladder"].index(rate), rate, sub,
                           seconds * shares[name] / SUBPASSES)
    best = None
    for index, rate in enumerate(wl["ladder"]):
        if rate not in steps:
            await one_pass(index, rate, 0, seconds * shares["rung"])
        if slo_ok(steps[rate], wl["limit_ms"]):
            best = steps[rate]
        elif rate >= wl["busy"]:
            break
    out.detail["ladder"] = [
        {"rate": r, "sent": sum(p.sent for p in ps),
         "failed": sum(p.failed for p in ps),
         "outstanding_end": max(p.outstanding_end for p in ps),
         "tails": [round(summarize(p.latencies_ms)["tail"], 3) for p in ps],
         "tail_q": [round(summarize(p.latencies_ms)["tail_q"], 4) for p in ps],
         "n": [len(p.latencies_ms) for p in ps],
         "pass": slo_ok(ps, wl["limit_ms"])}
        for r, ps in steps.items()
    ]
    for name in ("light", "busy"):
        passes = steps[wl[name]]
        pooled = [x for p in passes for x in p.latencies_ms]
        out.put(f"p50_ms.{name}", summarize(pooled)["p50"], "ms")
        out.put(f"p99_ms.{name}", rung_tail(passes), "ms")
    if best is None:
        # Not even the light rung met the limit: report its goodput so
        # the metric stays a measurement, and say so.
        best = steps[wl["ladder"][0]]
        out.detail["slo_unmet"] = True
    out.put("max_rps_slo", sum(p.completed for p in best)
            / sum(p.elapsed for p in best), "req/s")
    out.detail["max_rps_rung"] = best[0].rate
    lags = [x for p in steps[wl["busy"]] for x in p.lags_ms]
    out.detail["gen_lag_ms_tail_busy"] = summarize(lags)["tail"]
    return steps


def kept_of(steps: dict) -> list:
    return [k for passes in steps.values() for p in passes for k in p.kept]


# -- trees-batch ---------------------------------------------------------------


class PoolTarget:
    """Diameter jobs against one PhastPool through a one-thread executor.

    The pool takes one batch at a time, so the executor's queue is the
    job backlog an open-loop arrival process builds.
    """

    def __init__(self, pool: PhastPool) -> None:
        self.pool = pool
        self.executor = ThreadPoolExecutor(max_workers=1)

    def _run(self, sources: list[int]) -> dict:
        value, s, t = self.pool.reduce(sources, DiameterReducer())
        return {"ok": True, "value": value, "s": s, "t": t}

    async def call(self, req: dict) -> dict:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self.executor, self._run,
                                          req["sources"])

    def close(self) -> None:
        self.executor.shutdown(wait=True)


def server_pool(ch) -> PhastPool:
    """A pool configured as ``repro serve`` configures its own."""
    config = ServerConfig()
    return PhastPool(ch, num_workers=config.num_workers,
                     sources_per_sweep=config.batch_max,
                     search_cache=config.search_cache)


def start_pool(ch, wl: dict) -> PhastPool:
    return PhastPool(ch, num_workers=wl["workers"],
                     sources_per_sweep=wl["k"], force_pool=True)


def check_diameter_job(out: Outcome, oracle: Oracle, req: dict,
                       reply: dict) -> None:
    """Re-verify a job's ``(value, s, t)`` with one Dijkstra from ``s``."""
    out.checked += 1
    dist = oracle.dist("base", reply["s"])
    finite = dist[dist < INF]
    if (reply["s"] not in req["sources"]
            or int(dist[reply["t"]]) != reply["value"]
            or int(finite.max()) != reply["value"]):
        out.wrong += 1


def run_trees_batch(seed: int, seconds: float) -> Outcome:
    wl = WORKLOADS["trees-batch"]
    out = Outcome()
    g = make_graph(wl["scale"])
    oracle = Oracle({"base": g})

    t0 = time.perf_counter()
    ch = contract_graph(g)
    preprocess_s = time.perf_counter() - t0
    n = g.n
    rng = phase_rng(seed, 1)
    warm = [int(s) for s in rng.integers(0, n, wl["job_sources"])]

    starts = []
    pool = None
    for i in range(wl["setups"]):
        t0 = time.perf_counter()
        pool = start_pool(ch, wl)
        pool.reduce(warm, DiameterReducer())
        starts.append(time.perf_counter() - t0)
        if i + 1 < wl["setups"]:
            pool.close()
    out.put("setup_s", preprocess_s + statistics.median(starts), "s")
    out.detail["preprocess_s"] = preprocess_s
    out.detail["pool_start_s"] = starts
    pids = [os.getpid()] + [p.pid for p in pool.supervisor.processes()]
    target = PoolTarget(pool)
    try:
        # Whole-tree throughput: back-to-back reduce calls over seeded
        # uniform sources, one window per round.  The median over calls
        # keeps one stalled call from moving it.
        trng = phase_rng(seed, 2)
        rates = []
        window_s = seconds * wl["shares"]["trees"] / SUBPASSES

        def tree_window() -> None:
            stop = time.perf_counter() + window_s
            while time.perf_counter() < stop:
                batch = [int(s) for s in
                         trng.integers(0, n, wl["reduce_sources"])]
                t0 = time.perf_counter()
                pool.reduce(batch, DiameterReducer())
                rates.append(len(batch) / (time.perf_counter() - t0))

        async def each_round(_: int) -> None:
            await asyncio.get_running_loop().run_in_executor(
                target.executor, tree_window)

        def make_job(r: np.random.Generator) -> dict:
            return {"op": "diameter", "sources": [
                int(s) for s in r.integers(0, n, wl["job_sources"])]}

        steps = asyncio.run(open_loop_phases(
            target.call, make_job, wl, seed, seconds, out,
            each_round=each_round, keep_per_phase=1))
        out.put("trees_per_s", statistics.median(rates), "trees/s")
        out.attempted += len(rates)
        for _, req, reply in kept_of(steps)[:2]:
            if reply.get("ok"):
                check_diameter_job(out, oracle, req, reply)

        # Sampled rows of PhastPool.trees against the oracle.
        sample = [int(s) for s in phase_rng(seed, 3).integers(0, n, 2)]
        rows = pool.trees(sample)
        for s, row in zip(sample, rows):
            out.checked += 1
            if not np.array_equal(row, oracle.dist("base", s)):
                out.wrong += 1

        out.put("rss_mb", sum(stack.peak_rss_kb(p) for p in pids) / 1024,
                "MB")
    finally:
        target.close()
        pool.close()
    out.leaks = stack.leaked_segments(pids)
    return out, instance_info(g, ch=ch)


# -- serving workloads --------------------------------------------------------


def depot_requests(wl: dict, n: int, seed: int):
    depots = [int(d) for d in phase_rng(seed, 0).choice(
        n, size=wl["depots"], replace=False)]

    def make(r: np.random.Generator) -> dict:
        depot = depots[int(r.integers(len(depots)))]
        if r.random() < 1 / 8:
            return {"op": "query", "source": depot,
                    "target": int(r.integers(n))}
        return {"op": "one_to_many", "source": depot,
                "targets": [int(t) for t in r.integers(n, size=wl["targets"])]}

    return depots, make


def swap_requests(wl: dict, n: int, seed: int):
    pool_rng = phase_rng(seed, 0)
    target_sets = [
        [int(t) for t in pool_rng.choice(n, size=wl["matrix_k"],
                                         replace=False)]
        for _ in range(wl["target_sets"])
    ]

    def make(r: np.random.Generator) -> dict:
        u = r.random()
        if u < 0.60:
            return {"op": "one_to_many", "source": int(r.integers(n)),
                    "targets": [int(t) for t in r.integers(n, size=wl["targets"])]}
        if u < 0.75:
            return {"op": "tree", "source": int(r.integers(n))}
        return {"op": "matrix",
                "sources": [int(s) for s in r.integers(n, size=wl["matrix_k"])],
                "targets": target_sets[int(r.integers(len(target_sets)))]}

    return make


class TreeWindows:
    """Closed-loop full-tree requests from uniform sources: trees/s.

    ``window`` runs one window per round of :func:`open_loop_phases`;
    ``finish`` reports the median rate over windows, so one stall does
    not move the figure.
    """

    def __init__(self, call, n: int, seed: int, seconds: float,
                 out: Outcome) -> None:
        self.call, self.n, self.out = call, n, out
        self.rng = phase_rng(seed, 4)
        self.window_s = seconds / SUBPASSES
        self.steps: list[loadgen.StepResult] = []

    async def window(self, index: int) -> None:
        sources = [int(s) for s in self.rng.integers(0, self.n, 20_000)]
        step = await loadgen.run_closed_loop(
            self.call, lambda i: {"op": "tree", "source": sources[i]},
            seconds=self.window_s, window=8,
            keep=frozenset({0}) if index < 2 else frozenset())
        self.out.count(step)
        self.steps.append(step)

    def finish(self) -> None:
        self.out.put("trees_per_s", statistics.median(
            step.completed / step.elapsed for step in self.steps), "trees/s")


async def first_answer(host: str, port: int, req: dict) -> dict:
    target = loadgen.NetTarget(host, port, connections=1)
    await target.open()
    try:
        return await target.call(req)
    finally:
        await target.close()


def run_serve_depot(seed: int, seconds: float) -> Outcome:
    wl = WORKLOADS["serve-depot"]
    out = Outcome()
    g = make_graph(wl["scale"])
    n = g.n
    oracle = Oracle({"base": g})
    depots, make = depot_requests(wl, n, seed)
    workdir = WORK / f"depot-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    procs: list[stack.Proc] = []
    try:
        t0 = time.perf_counter()
        ch = contract_graph(g)
        save_graph(g, workdir / "g.npz")
        save_hierarchy(ch, workdir / "g.ch.npz")
        preprocess_s = time.perf_counter() - t0
        starts = []
        probe = {"op": "one_to_many", "source": depots[0], "targets": [0]}
        for i in range(wl["setups"]):
            t0 = time.perf_counter()
            proc = stack.serve(str(workdir / "g.npz"), str(workdir / "g.ch.npz"),
                               "--max-pending", "4096")
            procs.append(proc)
            reply = asyncio.run(first_answer(proc.host, proc.port, probe))
            if not reply.get("ok"):
                raise RuntimeError(f"first request failed: {reply}")
            starts.append(time.perf_counter() - t0)
            if i + 1 < wl["setups"]:
                proc.stop()
        server = procs[-1]
        out.put("setup_s", preprocess_s + statistics.median(starts), "s")
        out.detail["preprocess_s"] = preprocess_s
        out.detail["start_s"] = starts

        async def drive() -> dict:
            target = loadgen.NetTarget(server.host, server.port)
            await target.open()
            try:
                trees = TreeWindows(target.call, n, seed,
                                    seconds * wl["shares"]["trees"], out)
                steps = await open_loop_phases(
                    target.call, make, wl, seed, seconds, out,
                    each_round=trees.window, keep_per_phase=10**9)
                trees.finish()
            finally:
                await target.close()
            return {"trees": trees.steps, **steps}

        steps = asyncio.run(drive())
        out.put("rss_mb", server.peak_rss_kb() / 1024, "MB")
        check_replies(out, oracle, kept_of(steps))
    finally:
        for proc in procs:
            proc.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    out.leaks = stack.leaked_segments([os.getpid()] + [p.pid for p in procs])
    return out, instance_info(g, ch=ch)


def start_swap_stack(workdir: Path, wl: dict) -> list[stack.Proc]:
    """Replicas (started side by side) plus the router in front."""
    replicas = [None] * wl["replicas"]
    errors = []

    def spawn(i: int) -> None:
        try:
            replicas[i] = stack.serve(
                "--topology", str(workdir / "g.topo.npz"),
                "--metric", str(workdir / "a.metric.npz"),
                "--max-pending", "4096")
        except Exception as exc:  # re-raised below, after the join
            errors.append(exc)

    threads = [threading.Thread(target=spawn, args=(i,))
               for i in range(wl["replicas"])]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    started = [r for r in replicas if r is not None]
    if errors:
        for r in started:
            r.stop()
        raise errors[0]
    try:
        router = stack.route(started)
    except Exception:
        for r in started:
            r.stop()
        raise
    return started + [router]


def run_serve_swap_matrix(seed: int, seconds: float) -> Outcome:
    wl = WORKLOADS["serve-swap-matrix"]
    out = Outcome()
    g = make_graph(wl["scale"])
    n = g.n
    payloads = swap_payloads(g, seed)
    wa = np.asarray(payloads["A"], dtype=np.int64)
    wb = np.asarray(payloads["B"], dtype=np.int64)
    oracle = Oracle({
        "A": StaticGraph.from_csr(g.first, g.arc_head, wa),
        "B": StaticGraph.from_csr(g.first, g.arc_head, wb),
    })
    make = swap_requests(wl, n, seed)
    workdir = WORK / f"swap-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    all_procs: list[stack.Proc] = []
    try:
        t0 = time.perf_counter()
        topo = build_topology(g)
        metric = customize(topo, wa)
        save_topology(topo, workdir / "g.topo.npz")
        save_metric(metric, workdir / "a.metric.npz")
        preprocess_s = time.perf_counter() - t0
        starts = []
        probe = {"op": "one_to_many", "source": 0, "targets": [1]}
        procs = []
        for i in range(wl["setups"]):
            t0 = time.perf_counter()
            procs = start_swap_stack(workdir, wl)
            all_procs.extend(procs)
            router = procs[-1]
            reply = asyncio.run(first_answer(router.host, router.port, probe))
            if not reply.get("ok"):
                raise RuntimeError(f"first request failed: {reply}")
            starts.append(time.perf_counter() - t0)
            if i + 1 < wl["setups"]:
                for p in reversed(procs):
                    p.stop()
        router = procs[-1]
        out.put("setup_s", preprocess_s + statistics.median(starts), "s")
        out.detail["preprocess_s"] = preprocess_s
        out.detail["start_s"] = starts
        async def drive() -> tuple[dict, list]:
            target = loadgen.NetTarget(router.host, router.port)
            await target.open()
            swap_ms: list[float] = []
            stop = asyncio.Event()
            try:
                trees = TreeWindows(target.call, n, seed,
                                    seconds * wl["shares"]["trees"], out)
                swap_task = asyncio.ensure_future(swap_loop(
                    target.call, payloads, wl["swap_period_s"], stop,
                    swap_ms, out))
                try:
                    steps = await open_loop_phases(
                        target.call, make, wl, seed, seconds, out,
                        each_round=trees.window)
                    trees.finish()
                finally:
                    stop.set()
                    await swap_task
            finally:
                await target.close()
            return {"trees": trees.steps, **steps}, swap_ms

        steps, swap_ms = asyncio.run(drive())
        out.put("rss_mb",
                sum(p.peak_rss_kb() for p in procs) / 1024, "MB")
        if not swap_ms:
            raise RuntimeError("no swap_metric completed during the run")
        out.put("swap_ms", statistics.median(swap_ms), "ms")
        out.detail["swaps"] = len(swap_ms)
        check_replies(out, oracle, kept_of(steps))
    finally:
        for proc in reversed(all_procs):
            proc.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    out.leaks = stack.leaked_segments(
        [os.getpid()] + [p.pid for p in all_procs])
    return out, instance_info(g, topology=topo)


RUNNERS = {
    "trees-batch": run_trees_batch,
    "serve-depot": run_serve_depot,
    "serve-swap-matrix": run_serve_swap_matrix,
}
