"""Open-loop load generator: one process, asyncio, seeded Poisson arrivals.

Requests are sent on a schedule fixed in advance from the workload seed,
whether or not earlier ones have been answered, so a stall in the system
under test shows up as queueing instead of as a lower offered rate.
Each request is timed from the moment it was *due*, which charges the
wait a stall imposes on later requests; the generator also records how
late it sent each request (its own lag).

The generator talks to the server over at most ``nproc`` multiplexed
connections (the wire protocol carries request ids, so many requests can
be in flight on one connection).  The same loop drives in-process
targets, such as a ``PhastPool`` behind a one-thread executor, through
the ``call`` coroutine it is given.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Sequence

import numpy as np

from repro.server import protocol


#: Unanswered requests at which a schedule is abandoned as overloaded.
MAX_BACKLOG = 2000
#: How long the last requests of a schedule may take to be answered.
DRAIN_TIMEOUT_S = 60.0


def poisson_offsets(rng: np.random.Generator, rate: float,
                    seconds: float) -> np.ndarray:
    """Poisson arrival times in ``[0, seconds)``, exactly ``rate * seconds``.

    A Poisson process conditioned on its count has its arrivals at
    sorted uniform times: the schedule keeps Poisson burstiness while
    every seed offers the same number of requests, so goodput compares
    across seeds without the count's own sampling noise.
    """
    count = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=count))


def max_connections() -> int:
    return max(1, os.cpu_count() or 1)


class Connection:
    """One multiplexed protocol connection: many requests in flight."""

    def __init__(self) -> None:
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._ids = itertools.count(1)
        self._read_task: asyncio.Task | None = None

    async def open(self, host: str, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(host, port)
        self._read_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        error: BaseException = ConnectionError("connection closed")
        try:
            while True:
                msg = await protocol.read_message(self._reader)
                if msg is None:
                    break
                fut = self._pending.pop(msg.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(msg)
        except (ConnectionError, OSError, protocol.ProtocolError) as exc:
            error = exc
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(error)
        self._pending.clear()

    async def call(self, msg: dict) -> dict:
        req_id = next(self._ids)
        fut = asyncio.get_running_loop().create_future()
        self._pending[req_id] = fut
        self._writer.write(protocol.encode_message({**msg, "id": req_id}))
        await self._writer.drain()
        return await fut

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except asyncio.CancelledError:
                pass


class NetTarget:
    """Round-robin over ``connections`` multiplexed connections."""

    def __init__(self, host: str, port: int, connections: int = 2) -> None:
        self.host, self.port = host, port
        self.count = max(1, min(connections, max_connections()))
        self._conns: list[Connection] = []
        self._next = itertools.cycle(range(self.count))

    async def open(self) -> None:
        for _ in range(self.count):
            conn = Connection()
            await conn.open(self.host, self.port)
            self._conns.append(conn)

    async def call(self, msg: dict) -> dict:
        return await self._conns[next(self._next)].call(msg)

    async def close(self) -> None:
        for conn in self._conns:
            await conn.close()
        self._conns.clear()


@dataclass
class StepResult:
    """Outcome of one open-loop schedule at one offered rate."""

    rate: float
    seconds: float
    sent: int = 0
    completed: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)
    lags_ms: list = field(default_factory=list)
    #: Requests sent but unanswered when the schedule ended.
    outstanding_end: int = 0
    #: The schedule was cut short because the backlog ran away.
    aborted: bool = False
    #: Wall seconds from the first due time to the last answer.
    elapsed: float = 0.0
    #: ``(index, request, reply)`` for the indices asked to be kept.
    kept: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def backlog_grew(self, limit_ms: float) -> bool:
        """More in flight at the end than the latency limit allows.

        By Little's law a system meeting a mean latency of ``limit_ms``
        at this rate holds about ``rate * limit_ms`` requests in flight;
        a backlog beyond twice that (plus a small allowance for Poisson
        bursts) means requests arrive faster than they leave.
        """
        allowed = 8 + 2.0 * self.rate * limit_ms / 1e3
        return self.aborted or self.outstanding_end > allowed


async def run_open_loop(
    call: Callable[[dict], Awaitable[dict]],
    offsets: np.ndarray,
    requests: Sequence[dict],
    *,
    rate: float,
    keep: frozenset = frozenset(),
    spans: list | None = None,
) -> StepResult:
    """Send ``requests[i]`` at ``offsets[i]`` seconds; await every answer.

    A reply is a success when it carries ``"ok": true``; error replies,
    exceptions and answers still missing after ``DRAIN_TIMEOUT_S`` count
    as failures.  With ``spans`` given, each request appends a
    ``(name, start, end, parent, request_id)`` tuple for its whole life
    (due to answer) and one child for the call itself (send to answer).
    """
    loop = asyncio.get_running_loop()
    seconds = float(offsets[-1]) if len(offsets) else 0.0
    result = StepResult(rate=rate, seconds=seconds)
    done_count = 0
    last_done = [0.0]
    tasks: list[asyncio.Task] = []

    async def one(index: int, req: dict, due: float, sent_at: float) -> None:
        nonlocal done_count
        try:
            reply = await call(req)
        except Exception as exc:  # transport failure: counted, reported
            reply = {"ok": False, "error": {"code": -1,
                                            "message": repr(exc)}}
        now = loop.time()
        done_count += 1
        last_done[0] = now
        if spans is not None:
            spans.append(("gen.request", due, now, None, index))
            spans.append(("gen.call", sent_at, now, "gen.request", index))
        if reply.get("ok"):
            result.completed += 1
            result.latencies_ms.append((now - due) * 1e3)
        else:
            result.failed += 1
            if len(result.errors) < 5:
                result.errors.append(reply.get("error"))
        if index in keep:
            result.kept.append((index, req, reply))

    # The generator's own collector pauses would be charged to the
    # system under test; collect once up front and hold it off.
    gc.collect()
    gc.disable()
    try:
        start = loop.time() + 0.002
        for index, (offset, req) in enumerate(zip(offsets, requests)):
            due = start + float(offset)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            if result.sent - done_count > MAX_BACKLOG:
                result.aborted = True
                break
            now = loop.time()
            result.lags_ms.append(max(0.0, now - due) * 1e3)
            result.sent += 1
            tasks.append(asyncio.ensure_future(one(index, req, due, now)))
            # Yield so writes go out now, not after the next sleep.
            await asyncio.sleep(0)
        result.outstanding_end = result.sent - done_count
        if tasks:
            finished, missing = await asyncio.wait(tasks,
                                                   timeout=DRAIN_TIMEOUT_S)
            for task in missing:
                task.cancel()
            result.failed += len(missing)
            for task in finished:
                task.result()
    finally:
        gc.enable()
    result.elapsed = max(last_done[0] - start, 1e-9)
    return result


async def run_closed_loop(
    call: Callable[[dict], Awaitable[dict]],
    make_request: Callable[[int], dict],
    *,
    seconds: float,
    window: int,
    keep: frozenset = frozenset(),
) -> StepResult:
    """Keep ``window`` requests in flight for ``seconds``; count answers.

    Used only for saturation throughput; latency is not reported from
    a closed loop.
    """
    loop = asyncio.get_running_loop()
    result = StepResult(rate=0.0, seconds=seconds)
    counter = itertools.count()
    stop_at = loop.time() + seconds
    start = loop.time()

    async def lane() -> None:
        while loop.time() < stop_at:
            index = next(counter)
            req = make_request(index)
            result.sent += 1
            try:
                reply = await call(req)
            except Exception as exc:
                reply = {"ok": False, "error": {"code": -1,
                                                "message": repr(exc)}}
            if reply.get("ok"):
                result.completed += 1
            else:
                result.failed += 1
                if len(result.errors) < 5:
                    result.errors.append(reply.get("error"))
            if index in keep:
                result.kept.append((index, req, reply))

    await asyncio.gather(*(lane() for _ in range(window)))
    result.elapsed = loop.time() - start
    return result
