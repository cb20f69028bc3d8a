"""The traced run: per-layer metrics measured from outside the program.

A seeded sample of requests is replayed one at a time at each depth of
the stack, each call wrapped in a benchmark-side span:

1. in-process engine calls (``upward_search``, ``PhastEngine.trees``,
   ``ch_query``, ``RPhastEngine``, ``customize``);
2. ``PhastPool``;
3. ``ServerClient`` straight to a replica;
4. ``ServerClient`` through the router.

A layer's self time is its span minus the inner depth's span for the
same request.  Counters come from the program's own ``metrics`` ops.
Two passes at the workload's busy rate, spans off and on, give the
tracing overhead.  Spans are written to ``perfbench/.out`` at the end.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from repro.ch import build_topology, ch_query, contract_graph, customize, upward_search
from repro.core import PhastEngine, PhastPool, RPhastEngine
from repro.graph import (
    StaticGraph,
    save_graph,
    save_hierarchy,
    save_metric,
    save_topology,
)
from repro.router import HashRing, PhastRouter
from repro.server import ServerClient, ServerConfig, protocol

import loadgen
import stack
import workloads as W
from stats import summarize

OUT = Path(__file__).resolve().parent / ".out"

#: Replayed requests per op at every depth.
REPLAY = {"one_to_many": 8, "query": 8, "tree": 8, "matrix": 4}
#: The serving stack's own cache sizes, so depth 1 runs as warm as it.
SERVER = ServerConfig()


class Tracer:
    """Spans kept in memory: ``(name, start, end, parent, request_id)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []

    def timed(self, name: str, req_id, fn, parent: str | None = None):
        t0 = time.perf_counter()
        value = fn()
        t1 = time.perf_counter()
        self.spans.append((name, t0, t1, parent, req_id))
        return value, (t1 - t0) * 1e3

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for name, t0, t1, parent, req in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "request": req}) + "\n")


def p50(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def replay_sample(workload: str, wl: dict, n: int, seed: int) -> list[dict]:
    """Seeded requests of every op, sources drawn as the workload draws them."""
    rng = W.phase_rng(seed, 500)
    if workload == "serve-depot":
        depots, _ = W.depot_requests(wl, n, seed)
        source = lambda: depots[int(rng.integers(len(depots)))]  # noqa: E731
    else:
        source = lambda: int(rng.integers(n))  # noqa: E731
    if workload == "serve-swap-matrix":
        pool_rng = W.phase_rng(seed, 0)
        sets = [[int(t) for t in pool_rng.choice(n, size=16, replace=False)]
                for _ in range(wl["target_sets"])]
        target_set = lambda: sets[int(rng.integers(len(sets)))]  # noqa: E731
    else:
        target_set = lambda: [int(t) for t in rng.choice(n, size=16, replace=False)]  # noqa: E731
    reqs = []
    for _ in range(REPLAY["one_to_many"]):
        reqs.append({"op": "one_to_many", "source": source(),
                     "targets": [int(t) for t in rng.integers(n, size=8)]})
    for _ in range(REPLAY["query"]):
        reqs.append({"op": "query", "source": source(),
                     "target": int(rng.integers(n))})
    for _ in range(REPLAY["tree"]):
        reqs.append({"op": "tree", "source": source()})
    for _ in range(REPLAY["matrix"]):
        reqs.append({"op": "matrix",
                     "sources": [int(s) for s in rng.integers(n, size=16)],
                     "targets": target_set()})
    return reqs


def engine_answer(engine: PhastEngine, ch, req: dict, selections: dict):
    op = req["op"]
    if op == "one_to_many":
        return engine.trees([req["source"]])[0][req["targets"]]
    if op == "tree":
        return engine.trees([req["source"]])[0]
    if op == "query":
        return ch_query(ch, req["source"], req["target"]).distance
    # Selections are kept per target set, as the server's cache keeps
    # them, so the warm pass compares like with like.
    targets = np.asarray(req["targets"], dtype=np.int64)
    key = tuple(sorted(set(req["targets"])))
    if key not in selections:
        selections[key] = RPhastEngine(ch, targets,
                                       search_cache=SERVER.matrix_search_cache)
    reng = selections[key]
    return reng.many_to_many(req["sources"])[:, np.searchsorted(reng.targets, targets)]


def pool_answer(pool: PhastPool, ch, req: dict, published: dict):
    op = req["op"]
    if op == "one_to_many":
        return pool.trees([req["source"]])[0][req["targets"]].copy()
    if op == "tree":
        return pool.trees([req["source"]])[0].copy()
    if op == "matrix":
        targets = np.asarray(req["targets"], dtype=np.int64)
        key = tuple(sorted(set(req["targets"])))
        if key not in published:
            reng = RPhastEngine(ch, targets).freeze()
            published[key] = (reng, pool.publish_arrays(reng.selection_arrays()))
        reng, handle = published[key]
        rows = pool.matrix(req["sources"], selection=handle)
        return rows[:, np.searchsorted(reng.targets, targets)]
    return None  # point-to-point queries never reach the pool


def client_answer(client: ServerClient, req: dict) -> dict:
    params = {k: v for k, v in req.items() if k != "op"}
    return client.call(req["op"], **params)


def sweep_floor_ms(engine: PhastEngine, reps: int = 15) -> float:
    """One gather-add over every downward arc: the linear sweep's floor."""
    sw = engine.sweep
    dist = np.zeros(sw.n, dtype=np.int64)
    tails, lens = sw.arc_tail_pos, sw.arc_len
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        cand = dist[tails] + lens
        times.append((time.perf_counter() - t0) * 1e3)
    del cand
    return p50(times)


def bytes_per_tree(engine: PhastEngine) -> int:
    """Computed bytes one k=1 sweep moves: arc stream, label gathers, writes."""
    sw = engine.sweep
    arcs = sw.num_arcs
    return int(arcs * (sw.arc_tail_pos.itemsize + sw.arc_len.itemsize)
               + arcs * engine._dist.itemsize
               + sw.n * engine._dist.itemsize)


def in_process_layers(out: W.Outcome, tracer: Tracer, ch, topology,
                      weights, reqs: list[dict], n: int, seed: int) -> dict:
    """Depth 1 per-layer metrics; returns per-request engine span (ms)."""
    sources = [r["source"] for r in reqs if "source" in r]
    up_us, settled = [], []
    for s in sources:
        space, ms = tracer.timed("ch.upward_search", None,
                                 lambda s=s: upward_search(ch, s))
        up_us.append(ms * 1e3)
        settled.append(space.vertices.size)
    out.put("ch.upward_us", p50(up_us), "us")
    out.put("ch.upward_settled", p50(settled), "count")
    q_us = [tracer.timed("ch.ch_query", None,
                         lambda r=r: ch_query(ch, r["source"], r["target"]))[1] * 1e3
            for r in reqs if r["op"] == "query"]
    out.put("ch.query_us", p50(q_us), "us")

    custom = []
    for _ in range(3):
        custom.append(tracer.timed("ch.customize", None,
                                   lambda: customize(topology, weights))[1])
    out.put("ch.customize_ms", p50(custom), "ms")

    engine = PhastEngine(ch, search_cache=SERVER.search_cache)
    selections: dict = {}
    depth1 = {}
    for warm_pass in (True, False):
        for i, req in enumerate(reqs):
            _, ms = tracer.timed(
                f"engine.{req['op']}", i,
                lambda r=req: engine_answer(engine, ch, r, selections))
            if not warm_pass:
                depth1[i] = ms
        if warm_pass:  # the sample's own repeats, before re-use
            hits = engine.search_cache_hits
            misses = engine.search_cache_misses
    out.put("phast.search_cache_hit_rate", hits / max(1, hits + misses),
            "ratio")

    # Sweep cost per tree with the search cache warm, at k=1 and k=16.
    rng = W.phase_rng(seed, 501)
    batch = [int(s) for s in rng.integers(0, n, 16)]
    warm = PhastEngine(ch, search_cache=64)
    warm.trees(batch)
    k1 = []
    for s in batch:
        warm.trees([s])
        k1.append(tracer.timed("engine.sweep_k1", None,
                               lambda s=s: warm.trees([s]))[1])
    k16 = [tracer.timed("engine.sweep_k16", None,
                        lambda: warm.trees(batch))[1] / 16 for _ in range(5)]
    floor = sweep_floor_ms(warm)
    out.put("phast.sweep_ms_k1", p50(k1), "ms")
    out.put("phast.sweep_ms_k16", p50(k16), "ms")
    out.put("phast.floor_ms", floor, "ms")
    out.put("phast.sweep_over_floor", p50(k1) / floor, "ratio")
    out.put("phast.arcs_per_tree", warm.sweep.num_arcs, "count")
    out.put("phast.bytes_per_tree", bytes_per_tree(warm), "bytes.computed")

    select, matrix, arcs = [], [], []
    for req in (r for r in reqs if r["op"] == "matrix"):
        targets = np.asarray(req["targets"], dtype=np.int64)
        reng, ms = tracer.timed(
            "engine.rphast_select", None,
            lambda t=targets: RPhastEngine(ch, t,
                                           search_cache=SERVER.matrix_search_cache))
        select.append(ms)
        arcs.append(reng.num_arcs)
        reng.many_to_many(req["sources"])
        matrix.append(tracer.timed(
            "engine.rphast_matrix", None,
            lambda e=reng, r=req: e.many_to_many(r["sources"]))[1])
    out.put("rphast.select_ms", p50(select), "ms")
    out.put("rphast.matrix_ms", p50(matrix), "ms")
    out.put("rphast.selected_arcs", p50(arcs), "count")
    return {"depth1": depth1, "k16_ms": p50(k16), "batch": batch}


def pool_layers(out: W.Outcome, tracer: Tracer, ch, reqs, make_pool,
                k16_ms: float, batch: list[int], oracle,
                metric_name: str) -> None:
    """Depth 2: the workload's pool configuration."""
    starts, pool = [], None
    for i in range(3):
        t0 = time.perf_counter()
        pool = make_pool()
        starts.append(time.perf_counter() - t0)
        if i < 2:
            pool.close()
    out.put("pool.start_s", p50(starts), "s")
    try:
        pool.trees(batch)
        per_tree = [tracer.timed("pool.trees_k16", None,
                                 lambda: pool.trees(batch))[1] / len(batch)
                    for _ in range(5)]
        out.put("pool.ms_per_tree", p50(per_tree), "ms")
        out.put("pool.self_ms_per_tree", p50(per_tree) - k16_ms, "ms")
        published: dict = {}
        for i, req in enumerate(reqs + reqs):
            if req["op"] == "query":
                continue
            got, _ = tracer.timed(
                f"pool.{req['op']}", i % len(reqs),
                lambda r=req: pool_answer(pool, ch, r, published),
                parent=f"engine.{req['op']}")
            if i < len(reqs):
                continue  # warm pass
            out.checked += 1
            if req["op"] == "matrix":
                ok = all(np.array_equal(
                    oracle.dist(metric_name, s)[req["targets"]], got[j])
                    for j, s in enumerate(req["sources"][:4]))
            else:
                want = oracle.dist(metric_name, req["source"])
                if req["op"] == "one_to_many":
                    want = want[req["targets"]]
                ok = np.array_equal(want, got)
            out.wrong += 0 if ok else 1
        health = pool.health()
        out.put("pool.deaths", health["deaths"], "count")
        out.put("pool.chunk_retries", health["chunk_retries"], "count")
    finally:
        pool.close()


def client_depth(tracer: Tracer, endpoints, reqs, name: str,
                 out: W.Outcome, oracle) -> tuple[dict, dict]:
    """Replay at depth 3 or 4; returns per-request rtt and last tree reply.

    ``endpoints[i]`` is the ``(host, port)`` request ``i`` goes to.
    """
    rtt, tree_reply = {}, None
    clients = {ep: ServerClient(*ep, timeout=60.0) for ep in set(endpoints)}
    try:
        for i, req in enumerate(reqs):
            client = clients[endpoints[i]]
            reply, ms = tracer.timed(f"{name}.{req['op']}", i,
                                     lambda r=req, c=client: client_answer(c, r))
            rtt[i] = ms
            out.checked += 1
            if not W.reply_metrics(oracle, req, reply, rows=4):
                out.wrong += 1
            if req["op"] == "tree":
                tree_reply = reply
    finally:
        for client in clients.values():
            client.close()
    return rtt, tree_reply


def owners(replicas, reqs) -> list[tuple]:
    """The replica the router's consistent-hash ring sends each request to."""
    ring = HashRing()
    by_name = {}
    for r in replicas:
        by_name[f"{r.host}:{r.port}"] = (r.host, r.port)
        ring.add(f"{r.host}:{r.port}")
    return [by_name[ring.primary(PhastRouter.affinity_key(q["op"], q))]
            for q in reqs]


def server_layers(out: W.Outcome, reqs, depth1, direct, routed,
                  tree_reply) -> None:
    for op in ("one_to_many", "query", "tree", "matrix"):
        idx = [i for i, r in enumerate(reqs) if r["op"] == op]
        out.put(f"server.rtt_ms.{op}", p50([direct[i] for i in idx]), "ms")
        out.put(f"server.self_ms.{op}",
                p50([direct[i] - depth1[i] for i in idx]), "ms")
    out.put("router.hop_ms",
            p50([routed[i] - direct[i] for i in range(len(reqs))]), "ms")
    enc = []
    for _ in range(9):
        t0 = time.perf_counter()
        protocol.encode_message(tree_reply)
        enc.append((time.perf_counter() - t0) * 1e3)
    out.put("server.encode_ms.tree", p50(enc), "ms")
    bodies = [protocol.encode_message(r)[4:] for r in reqs]
    dec = []
    for body in bodies:
        t0 = time.perf_counter()
        protocol.decode_body(body)
        dec.append((time.perf_counter() - t0) * 1e6)
    out.put("server.decode_us", p50(dec), "us")


def program_counters(out: W.Outcome, replica_ports, router_port) -> None:
    """Counters from the replicas' and the router's own metrics ops."""
    snaps = []
    for host, port in replica_ports:
        with ServerClient(host, port) as c:
            snaps.append(c.metrics())
    first = snaps[0]["batches"]
    out.put("server.batch_wait_ms.p50", first["wait_ms"].get("p50_ms", 0.0),
            "ms.bucketed")
    out.put("server.batch_wait_ms.p99", first["wait_ms"].get("p99_ms", 0.0),
            "ms.bucketed")
    out.put("server.batch_sweep_ms.p50", first["sweep_ms"].get("p50_ms", 0.0),
            "ms.bucketed")
    out.put("server.batch_sweep_ms.p99", first["sweep_ms"].get("p99_ms", 0.0),
            "ms.bucketed")
    size = first["mean_size"]
    lanes = first["mean_lanes"]
    out.put("server.batch_size_mean", size, "count")
    out.put("server.lanes_per_sweep_mean", lanes, "count")
    out.put("server.coalesce_ratio", size / lanes if lanes else 0.0, "ratio")
    out.put("server.rejected",
            sum(sum(s["admission"]["rejected"].values()) for s in snaps),
            "count")
    sel_hits = sum(s["selection_cache"]["hits"] for s in snaps)
    sel_miss = sum(s["selection_cache"]["misses"] for s in snaps)
    out.put("rphast.selection_hit_rate",
            sel_hits / max(1, sel_hits + sel_miss), "ratio")
    out.put("rphast.evictions",
            sum(s["selection_cache"]["evictions"] for s in snaps), "count")
    out.detail["server_pool"] = [s["pool"] for s in snaps]
    with ServerClient(*router_port) as c:
        rm = c.metrics()
    out.put("router.affinity_hit_rate", rm["affinity"]["hit_rate"] or 0.0,
            "ratio")
    out.put("router.failovers", rm["affinity"]["failovers"], "count")


async def busy_passes(call, make, rate: float, seconds: float,
                      seed: int) -> tuple:
    """One seeded busy schedule three times: warm-up, spans off, spans on.

    The warm-up pass leaves the program's caches in the same state for
    the two compared passes.
    """
    results = []
    for spans in (None, None, []):
        rng = W.phase_rng(seed, 600)
        offsets = loadgen.poisson_offsets(rng, rate, seconds)
        requests = [make(rng) for _ in range(len(offsets))]
        results.append((await loadgen.run_open_loop(
            call, offsets, requests, rate=rate, spans=spans), spans))
    return results[1:]


def traced_busy(out: W.Outcome, tracer: Tracer, call_factory, make,
                rate: float, seconds: float, seed: int) -> None:
    async def go():
        call, close, background = await call_factory()
        stop = asyncio.Event()
        task = asyncio.ensure_future(background(stop)) if background else None
        try:
            return await busy_passes(call, make, rate, seconds, seed)
        finally:
            stop.set()
            if task is not None:
                await task
            await close()

    (off, _), (on, spans) = asyncio.run(go())
    out.count(off)
    out.count(on)
    tracer.spans.extend(spans)
    lag = summarize(on.lags_ms)
    out.put("gen.lag_ms.p99", lag["tail"], "ms")
    out.put("gen.sent", on.sent, "count")
    out.put("gen.completed", on.completed, "count")
    p_off = summarize(off.latencies_ms)["p50"]
    p_on = summarize(on.latencies_ms)["p50"]
    out.put("trace.overhead_share", (p_on - p_off) / p_off, "ratio")


def run(workload: str, seed: int, seconds: float):
    wl = W.WORKLOADS[workload]
    out = W.Outcome()
    tracer = Tracer()
    g = W.make_graph(wl["scale"])
    n = g.n
    workdir = W.WORK / f"trace-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    procs: list[stack.Proc] = []
    try:
        if workload == "serve-swap-matrix":
            wa = np.asarray(W.swap_payloads(g, seed)["A"], dtype=np.int64)
            t0 = time.perf_counter()
            topology = build_topology(g)
            metric = customize(topology, wa)
            ch = topology.instantiate(metric)
            out.put("ch.preprocess_s", time.perf_counter() - t0, "s")
            oracle = W.Oracle({"A": StaticGraph.from_csr(g.first, g.arc_head, wa)})
            metric_name, weights = "A", wa
            save_topology(topology, workdir / "g.topo.npz")
            save_metric(metric, workdir / "a.metric.npz")
            instance = W.instance_info(g, topology=topology)
        else:
            t0 = time.perf_counter()
            ch = contract_graph(g)
            out.put("ch.preprocess_s", time.perf_counter() - t0, "s")
            # Witness hierarchies have no topology; customize the
            # workload's own graph over one built here, for the layer
            # cost alone.
            topology = build_topology(g)
            oracle = W.Oracle({"base": g})
            metric_name, weights = "base", g.arc_len
            save_graph(g, workdir / "g.npz")
            save_hierarchy(ch, workdir / "g.ch.npz")
            instance = W.instance_info(g, ch=ch)

        reqs = replay_sample(workload, wl, n, seed)
        d1 = in_process_layers(out, tracer, ch, topology, weights, reqs, n,
                               seed)
        if workload == "trees-batch":
            make_pool = lambda: W.start_pool(ch, wl)  # noqa: E731
        else:
            make_pool = lambda: W.server_pool(ch)  # noqa: E731
        pool_layers(out, tracer, ch, reqs, make_pool, d1["k16_ms"],
                    d1["batch"], oracle, metric_name)

        if workload == "serve-swap-matrix":
            procs = W.start_swap_stack(workdir, wl)
            replicas, router = procs[:-1], procs[-1]
        else:
            replicas = [stack.serve(str(workdir / "g.npz"),
                                    str(workdir / "g.ch.npz"),
                                    "--max-pending", "4096")]
            procs = list(replicas)
            router = stack.route(replicas)
            procs.append(router)
        # Direct calls go to the replica the router would pick, so the
        # hop compares the same replica in the same (warm) state.
        direct_eps = owners(replicas, reqs)
        routed_eps = [(router.host, router.port)] * len(reqs)
        client_depth(tracer, routed_eps, reqs, "warm", out, oracle)
        direct, tree_reply = client_depth(tracer, direct_eps, reqs,
                                          "replica", out, oracle)
        routed, _ = client_depth(tracer, routed_eps, reqs, "router", out,
                                 oracle)
        server_layers(out, reqs, d1["depth1"], direct, routed, tree_reply)

        busy_seconds = seconds * wl["shares"]["busy"]
        if workload == "trees-batch":
            pool = W.start_pool(ch, wl)
            target = W.PoolTarget(pool)

            async def factory():
                async def close():
                    target.close()
                return target.call, close, None

            def make(r):
                return {"op": "diameter", "sources": [
                    int(s) for s in r.integers(0, n, wl["job_sources"])]}
            try:
                traced_busy(out, tracer, factory, make, wl["busy"],
                            busy_seconds, seed)
            finally:
                pool.close()
        else:
            background = None
            if workload == "serve-depot":
                _, make = W.depot_requests(wl, n, seed)
                front = replicas[0]
            else:
                make = W.swap_requests(wl, n, seed)
                front = router
                payloads = W.swap_payloads(g, seed)

            async def factory():
                t = loadgen.NetTarget(front.host, front.port)
                await t.open()
                if workload == "serve-swap-matrix":
                    async def background(stop):
                        await W.swap_loop(t.call, payloads,
                                          wl["swap_period_s"], stop, [], out)
                else:
                    background = None
                return t.call, t.close, background

            traced_busy(out, tracer, factory, make, wl["busy"], busy_seconds,
                        seed)
        program_counters(out, [(r.host, r.port) for r in replicas],
                         (router.host, router.port))
    finally:
        for proc in reversed(procs):
            proc.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    out.leaks = stack.leaked_segments([os.getpid()] + [p.pid for p in procs])
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    out.detail["spans"] = len(tracer.spans)
    return out, instance
