"""Cross-host fabric workers over the :mod:`repro.net` transport.

Two halves:

- :class:`FabricService` — the coordinator side.  Wraps one
  :class:`~repro.fabric.queue.WorkQueue` + :class:`~repro.fabric.store.ResultStore`
  in an :class:`~repro.net.transport.RpcServer` running on a dedicated
  asyncio thread, so :func:`repro.fabric.coordinator.run_fabric` can serve
  remote workers while (optionally) also driving local ones.
- :func:`run_remote_worker` — the worker side, behind ``repro
  fabric-worker --connect HOST:PORT``.  Lease → execute → ship the result
  home, heartbeating while it works.

The protocol rides the transport's at-least-once / exactly-once-effect
machinery (idempotent request ids, response dedup), and every operation
is itself idempotent on top of that: completions are accepted from any
worker and absorbed by the content-addressed store, failed attempts just
consume retry budget.  A remote worker therefore needs no identity
handshake and no teardown protocol — when the coordinator vanishes
(sweep done, interrupted, or crashed) requests time out and the worker
exits.  On a clean finish the service does not wait for that: it answers
every worker it has heard from with ``over`` (on a completion, an empty
lease or a status poll), and :meth:`FabricService.drain` holds the
listener open until all of them have been told, so workers exit at once.

Results travel as plain JSON in the message frame; the *coordinator*
writes them to the store, so remote hosts need no shared filesystem.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
import traceback
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.fabric.queue import WorkQueue
from repro.fabric.store import ResultStore
from repro.net.transport import (
    ConnectionClosed,
    PeerClient,
    RequestTimeout,
    RpcServer,
    TransportError,
    TransportPolicy,
)

#: process ids carried in transport frames — the fabric has exactly one
#: logical server endpoint, so the ids are fixed tokens, not topology
SERVICE_PROC = 0
WORKER_PROC = 1


class FabricService:
    """Synchronous facade serving a WorkQueue/ResultStore pair over TCP.

    ``start`` spins a daemon thread running its own asyncio loop (the
    coordinator's dispatch loop is synchronous and must keep running);
    ``stop`` is idempotent and safe to call from ``finally``.  All queue
    operations are thread-safe, so the service thread and the coordinator
    thread share the queue without further coordination.
    """

    def __init__(self, queue: WorkQueue, store: ResultStore) -> None:
        self._queue = queue
        self._store = store
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.address: Optional[Tuple[str, int]] = None
        # workers heard from that have not yet been told the sweep is over
        self._untold: set = set()
        self._untold_cv = threading.Condition()

    # ------------------------------------------------------------------
    def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._serve, args=(host, port),
            name="fabric-service", daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("fabric service failed to start within 10s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"fabric service could not listen on {host}:{port}"
            ) from self._startup_error
        assert self.address is not None
        return self.address

    def stop(self) -> None:
        loop, thread = self._loop, self._thread
        if loop is not None and thread is not None and thread.is_alive():
            try:
                loop.call_soon_threadsafe(loop.stop)
            except RuntimeError:  # loop already closing
                pass
            thread.join(timeout=5.0)
        self._loop = None
        self._thread = None

    def drain(self, timeout: float) -> bool:
        """Wait until every worker heard from has been told the sweep is over.

        Called once the queue is finished, before :meth:`stop`, so polling
        workers learn the outcome instead of timing out against a closed
        port.  Returns False if *timeout* ran out first (a worker died, or
        is still executing a reassigned duplicate).
        """
        with self._untold_cv:
            return self._untold_cv.wait_for(
                lambda: not self._untold, timeout=timeout
            )

    def _note(self, worker: str, over: bool) -> None:
        with self._untold_cv:
            if over:
                self._untold.discard(worker)
                self._untold_cv.notify_all()
            else:
                self._untold.add(worker)

    def _over(self) -> bool:
        return self._queue.all_done() or self._queue.failure() is not None

    # ------------------------------------------------------------------
    def _serve(self, host: str, port: int) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = RpcServer(proc=SERVICE_PROC, handler=self._handle)
        try:
            self.address = loop.run_until_complete(server.start(host, port))
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # responses already computed (the "over" answers drain waited
            # for among them) must reach their workers before teardown
            loop.run_until_complete(server.stop(grace=1.0))
            remaining = asyncio.all_tasks(loop)
            for task in remaining:
                task.cancel()
            if remaining:
                loop.run_until_complete(
                    asyncio.gather(*remaining, return_exceptions=True)
                )
            loop.close()

    async def _handle(self, src: int, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        worker = str(message.get("worker", f"net-{src}"))
        if op == "lease":
            leased = self._queue.lease(worker, time.monotonic())
            if leased is None:
                over = self._over()
                self._note(worker, over)
                return {"key": None, "over": over}
            self._note(worker, False)
            key, spec = leased
            return {"key": key, "spec": spec}
        if op == "heartbeat":
            self._note(worker, False)
            held = self._queue.heartbeat(
                message["key"], worker, time.monotonic()
            )
            return {"held": held}
        if op == "complete":
            # store first, complete second — same crash discipline as the
            # local worker path; the blocking fsync goes to a thread so it
            # cannot stall other connections' heartbeats
            await asyncio.to_thread(
                self._store.put, message["key"], message["spec"],
                message["result"],
            )
            first = self._queue.complete(message["key"], worker)
            # a worker ending its session on this cell sends no more
            over = self._over()
            self._note(worker, over or bool(message.get("last")))
            return {"first": first, "over": over}
        if op == "fail":
            self._note(worker, False)
            self._queue.fail_attempt(
                message["key"], worker, str(message.get("error", ""))
            )
            return {"recorded": True}
        if op == "status":
            status = {
                "done": self._queue.done_count(),
                "depth": self._queue.depth(),
                "all_done": self._queue.all_done(),
                "failed": self._queue.failure() is not None,
            }
            if status["all_done"] or status["failed"]:
                self._note(worker, True)
            return status
        raise ValueError(f"unknown fabric op {op!r}")


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
async def _heartbeat_loop(
    client: PeerClient, worker: str, key: str, interval: float,
    stop: asyncio.Event,
) -> None:
    while True:
        try:
            await asyncio.wait_for(stop.wait(), timeout=interval)
            return
        except asyncio.TimeoutError:
            pass
        try:
            await client.request(
                {"op": "heartbeat", "key": key, "worker": worker},
                max_retries=0,
            )
        except TransportError:
            # missed beat: the lease may expire and the cell be
            # reassigned; our eventual completion is still absorbed
            pass


async def _worker_loop(
    host: str,
    port: int,
    worker: str,
    executor: Callable[[Mapping[str, Any]], Any],
    heartbeat_interval: float,
    poll: float,
    max_cells: Optional[int],
) -> int:
    client = PeerClient(
        src=WORKER_PROC,
        dst=SERVICE_PROC,
        resolve=lambda: (host, port),
        policy=TransportPolicy(request_timeout=2.0, max_retries=3),
    )
    completed = 0
    try:
        while max_cells is None or completed < max_cells:
            try:
                leased = await client.request({"op": "lease", "worker": worker})
            except (RequestTimeout, ConnectionClosed):
                break  # coordinator gone: sweep over or interrupted
            key = leased.get("key")
            if key is None:
                if leased.get("over"):
                    break
                await asyncio.sleep(poll)
                continue
            spec = leased["spec"]
            stop = asyncio.Event()
            beat = asyncio.ensure_future(
                _heartbeat_loop(client, worker, key, heartbeat_interval, stop)
            )
            try:
                result = await asyncio.to_thread(executor, spec)
            except BaseException:
                stop.set()
                await beat
                try:
                    await client.request({
                        "op": "fail", "key": key, "worker": worker,
                        "error": traceback.format_exc(),
                    })
                except (RequestTimeout, ConnectionClosed):
                    break
                continue
            stop.set()
            await beat
            last = max_cells is not None and completed + 1 >= max_cells
            try:
                done = await client.request({
                    "op": "complete", "key": key, "worker": worker,
                    "spec": spec, "result": result, "last": last,
                })
            except (RequestTimeout, ConnectionClosed):
                break
            completed += 1
            if done.get("over"):
                break
    finally:
        await client.close()
    return completed


def run_remote_worker(
    host: str,
    port: int,
    *,
    name: Optional[str] = None,
    executor: Optional[Callable[[Mapping[str, Any]], Any]] = None,
    heartbeat_interval: float = 1.0,
    poll: float = 0.2,
    max_cells: Optional[int] = None,
) -> int:
    """Attach to a fabric coordinator and work until the sweep ends.

    Returns the number of cells this worker completed.  Exits cleanly
    when the queue drains, the sweep fails, or the coordinator becomes
    unreachable; ``max_cells`` bounds the session (used by tests).
    """
    if executor is None:
        from repro.fabric.drivers import execute_cell

        executor = execute_cell
    worker = name or f"net-{os.getpid()}"
    return asyncio.run(
        _worker_loop(
            host, port, worker, executor, heartbeat_interval, poll, max_cells
        )
    )
