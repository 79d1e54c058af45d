"""Screening executors: serial or sharded across worker processes.

The staged candidate engine in :mod:`repro.equilibria.support_enumeration`
splits enumeration into *screening* (approximate, embarrassingly
parallel, produces plain picklable candidates) and *certification*
(exact Fractions, always in the calling process).  The executor seam
covers only the screening half, which is what makes sharding sound by
construction: worker processes never produce anything the parent
believes without exact reconstruction and the Lemma-1 gate.

Determinism contract: both executors consume the *same* pre-chunked
work list and return chunk results in submission order, so the
enumeration output is bit-identical for every worker count (including
the serial path).  Chunk boundaries are fixed by the caller, never by
the pool.

:class:`ShardedExecutor` degrades gracefully: sandboxes and restricted
interpreters that cannot fork/spawn process pools (or whose pools break
mid-flight) fall back to in-process execution and record the fact on
:attr:`ShardedExecutor.fell_back` — callers audit the executor that
*actually ran*.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

# Lazily bound fault-injection module (repro.service.faults).  Lazy
# because this module is imported *by* repro.service during its package
# init — a top-level import here would close the cycle against a
# partially initialized package.  After the first call the cost is one
# global load per hit; disarmed, faults.check is itself a no-op test.
_faults = None


def _fault_check(point: str) -> None:
    global _faults
    if _faults is None:
        from repro.service import faults

        _faults = faults
    _faults.check(point)


def pools_disabled() -> bool:
    """True when ``REPRO_FORCE_SERIAL`` forces all fan-out in process.

    The CI job that proves the stack degrades cleanly on a bare
    interpreter sets this: worker pools are never started (and verifier
    thread pools run inline), so every code path that *would* shard
    exercises its serial fallback instead.  By the determinism contract
    this changes cost only, never answers.  The conventional falsy
    spellings (``0``, ``false``, ``no``, empty) leave pools enabled, so
    a CI matrix can set the variable on both legs.
    """
    value = os.environ.get("REPRO_FORCE_SERIAL", "")
    return value.strip().lower() not in ("", "0", "false", "no")


class SerialExecutor:
    """In-process chunk execution (the default, and the fallback)."""

    name = "serial"
    workers = 1

    def map_chunks(self, fn: Callable, chunks: Sequence) -> list:
        """Apply ``fn`` to every chunk, in order."""
        return [fn(chunk) for chunk in chunks]

    def close(self) -> None:
        """Nothing to release."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


class ShardedExecutor:
    """Fan chunks across a process pool, preserving submission order.

    The pool is created lazily on first use and kept open until
    :meth:`close`, so a batch of consultations (or a stream of
    enumeration runs) amortizes worker startup across calls.  Results
    come back in submission order whatever the completion order, and
    chunking is the caller's, so worker count never changes answers.
    """

    name = "sharded"

    def __init__(self, workers: int = 2):
        if workers < 1:
            raise ValueError("ShardedExecutor needs at least one worker")
        self.workers = workers
        self._pool = None
        self.fell_back = False
        self._serial = SerialExecutor()
        #: Lifetime count of successful mid-run pool rebuilds.
        self.rebuilds = 0
        # One-fresh-chance latch: a pool that breaks mid-run is rebuilt
        # once; a rebuilt pool that finishes a run cleanly re-earns the
        # chance, a rebuilt pool that breaks again degrades to serial.
        self._rebuild_attempted = False
        #: Supervision events (dicts with a ``kind`` of ``rebuilt`` or
        #: ``degraded``) for the owner to drain into its audit log.
        self.events: list[dict] = []

    @property
    def effective_name(self) -> str:
        """What actually ran: ``sharded``, or ``serial`` after a fallback."""
        return self._serial.name if self.fell_back else self.name

    def _ensure_pool(self):
        if self.fell_back or self._pool is not None:
            return self._pool
        if pools_disabled():
            self.fell_back = True
            return None
        try:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(max_workers=self.workers)
        except (ImportError, NotImplementedError, OSError, PermissionError,
                ValueError):
            # Restricted sandbox (no fork/spawn, no semaphores): screen
            # in process instead.  Same chunks, same order, same answers.
            self.fell_back = True
            return None
        self._pool = pool
        return pool

    def map_chunks(self, fn: Callable, chunks: Sequence) -> list:
        pool = self._ensure_pool()
        if pool is None:
            return self._serial.map_chunks(fn, chunks)
        try:
            results = self._run_on_pool(pool, fn, chunks)
        except BaseException as exc:
            # A broken pool (killed worker, unpicklable payload, sandbox
            # revoking forks mid-run) must not lose the enumeration.
            # Worker screening has no side effects, so a clean restart
            # is safe: give the pool ONE fresh chance (rebuild and rerun
            # the whole batch); a rebuilt pool that breaks again — or a
            # rebuild that cannot start — degrades to the serial path.
            from concurrent.futures.process import BrokenProcessPool

            if not isinstance(exc, (BrokenProcessPool, OSError, PermissionError)):
                raise
            self.close()
            if not self._rebuild_attempted:
                self._rebuild_attempted = True
                retry = self._ensure_pool()
                if retry is not None:
                    try:
                        results = self._run_on_pool(retry, fn, chunks)
                    except BaseException as again:
                        if not isinstance(
                            again,
                            (BrokenProcessPool, OSError, PermissionError),
                        ):
                            raise
                        self.close()
                        return self._degrade(again, fn, chunks)
                    else:
                        self.rebuilds += 1
                        self.events.append({
                            "kind": "rebuilt",
                            "workers": self.workers,
                            "error": f"{type(exc).__name__}: {exc}",
                        })
                        # A clean run on the rebuilt pool re-earns the
                        # fresh chance for the next mid-run break.
                        self._rebuild_attempted = False
                        return results
            return self._degrade(exc, fn, chunks)
        else:
            self._rebuild_attempted = False
            return results

    def _run_on_pool(self, pool, fn: Callable, chunks: Sequence) -> list:
        futures = []
        for chunk in chunks:
            _fault_check("pool.chunk")
            futures.append(pool.submit(fn, chunk))
        return [future.result() for future in futures]

    def _degrade(self, exc: BaseException, fn: Callable,
                 chunks: Sequence) -> list:
        """Latch the serial fallback; finish the batch in process."""
        self.fell_back = True
        self.events.append({
            "kind": "degraded",
            "error": f"{type(exc).__name__}: {exc}",
        })
        return self._serial.map_chunks(fn, chunks)

    def drain_events(self) -> list[dict]:
        """Pop queued supervision events (rebuilds / degradations)."""
        events, self.events = self.events, []
        return events

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def make_executor(workers: int = 1) -> SerialExecutor | ShardedExecutor:
    """The executor for a resolved worker count (1 means serial).

    With ``REPRO_FORCE_SERIAL`` set (see :func:`pools_disabled`) every
    worker count resolves to the serial executor.
    """
    if workers <= 1 or pools_disabled():
        return SerialExecutor()
    return ShardedExecutor(workers=workers)


def chunk_list(items: Sequence, chunk_size: int) -> list:
    """Deterministic fixed-size chunking (the last chunk may be short).

    Chunk boundaries depend only on ``chunk_size`` — never on worker
    count — which is what keeps sharded screening reproducible and lets
    warm-start caches reset at identical points on every execution plan.
    """
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    return [
        list(items[start:start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]
