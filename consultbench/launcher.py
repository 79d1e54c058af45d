"""The wire workloads' server process: ``python3 -m consultbench.launcher``.

Builds the same world as the client from the workload seed (the
seeded stream of :func:`consultbench.world.wire_inputs`, published
under one inventor), serves it with ``repro.server`` over HTTP with a
write-behind journal flushed every drain, announces ``PORT <n>`` on
stdout, and then answers one JSON command per stdin line with one JSON
line on stdout:

``begin`` / ``end``
    bracket a timed phase; ``end`` returns the consultations served,
    the process's peak RSS and, when traced, the per-layer metrics.
    ``begin`` may carry ``rss_at``: the peak RSS is then read by a
    drain listener when the phase's ``rss_at``-th consultation has
    completed, not at ``end``;
``retain-start`` / ``retain-stop``
    bracket a tracemalloc window; ``retain-stop`` returns KB retained
    per consultation;
``check``
    checks served suggestions against the certified profiles here,
    on the side that holds the games;
``quit``
    stops the server gracefully, writes the spans, and exits.

Stdin closing (the client went away) also stops the server.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
import tracemalloc

from repro.server import ThreadedServer, WriteBehindPersister, state_paths
from repro.service.cache import SolveCache
from repro.service.load import publish_stream
from repro.service.persistence import encode_fraction
from repro.service.service import AuthorityService

from consultbench import world
from consultbench.closed import peak_rss_mb
from consultbench.spans import (
    SpanRecorder,
    cache_ratios,
    instrument,
    search_share,
    span_metrics,
    summarize,
)


class Launcher:
    def __init__(self, workload: str, seed: int, seconds: float,
                 state_dir: str, traced: bool):
        stream, _ = world.wire_inputs(
            workload, seed, seconds,
            extra=world.WORKLOADS[workload].retain_consults,
        )
        self.authority = world.build_authority()
        publish_stream(self.authority, world.INVENTOR, stream)
        snapshot_path, journal_path = state_paths(state_dir)
        self.cache = SolveCache(path=snapshot_path)
        self.service = AuthorityService(self.authority, solve_cache=self.cache)
        self.persister = WriteBehindPersister(
            self.cache, journal_path, flush_every_drains=1,
            snapshot_every_drains=None, snapshot_interval=None,
        )
        self.recorder = SpanRecorder() if traced else None
        self.instrumentation = (
            instrument(self.recorder) if traced else None
        )
        self.server = ThreadedServer(self.service, persister=self.persister)
        self._baseline: dict = {}
        self._retain_before = 0
        self._rss_at = 0
        self._rss: float | None = None
        self._rss_taken = threading.Event()
        self.service.add_drain_listener(self._on_drain)

    def _on_drain(self, _summary) -> None:
        """Reads the peak RSS once the phase's ``rss_at``-th
        consultation has completed (runs on the server's pump)."""
        if self._rss_at and not self._rss_taken.is_set() and (
            self.service.completed_count - self._baseline["completed"]
            >= self._rss_at
        ):
            self._rss = peak_rss_mb()
            self._rss_taken.set()

    def begin(self, rss_at: int = 0) -> dict:
        if self.recorder is not None:
            self.recorder.reset()
        self._rss, self._rss_at = None, 0
        self._rss_taken.clear()
        self._baseline = {
            "completed": self.service.completed_count,
            "persistence": self.persister.stats(),
            "cache": self.cache.stats.as_dict(),
            "bus_bytes": self.authority.bus.total_bytes(),
        }
        self._rss_at = rss_at
        return {"ok": True}

    def end(self) -> dict:
        base = self._baseline
        consults = self.service.completed_count - base["completed"]
        if self._rss_at:
            # The last response can reach the client before the drain
            # that served it has run its listeners.  None: the phase
            # completed fewer than ``rss_at`` consultations.
            self._rss_taken.wait(timeout=30)
            peak = self._rss
        else:
            peak = peak_rss_mb()
        reply = {"consults": consults, "peak_rss_mb": peak}
        if self.recorder is None:
            return reply
        layers = span_metrics(self.recorder, consults)
        layers.update(cache_ratios(base["cache"], self.cache.stats.as_dict()))
        before, after = base["persistence"], self.persister.stats()
        drains = summarize(self.recorder.spans).get(
            "service.drain", {"calls": 0}
        )["calls"]
        per_consult = 1.0 / consults if consults else 0.0
        layers.update({
            "server.journal_frames": (
                after["frames_flushed"] - before["frames_flushed"]
            ) * per_consult,
            "server.journal_bytes": (
                after["journal_bytes"] - before["journal_bytes"]
            ) * per_consult,
            "server.consults_per_drain": consults / drains if drains else 0.0,
            "core.bus_bytes_per_consult": (
                self.authority.bus.total_bytes() - base["bus_bytes"]
            ) * per_consult,
        })
        reply["layers"] = layers
        reply["search_share"] = search_share(self.recorder)
        return reply

    def retain_start(self) -> dict:
        gc.collect()
        tracemalloc.start()
        self._retain_before = tracemalloc.get_traced_memory()[0]
        return {"ok": True}

    def retain_stop(self, consults: int) -> dict:
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return {"kb_per_consult": (after - self._retain_before) / 1024.0
                / max(1, consults)}

    def check(self, served) -> dict:
        checker = world.AdviceChecker(self.authority)
        violations = []
        for game_id, suggestion in served:
            try:
                expected = [encode_fraction(p) for p in checker.expected(game_id)]
            except ValueError as exc:
                violations.append(str(exc))
                continue
            if suggestion != expected:
                violations.append(
                    f"{game_id}: served suggestion is not the certified profile"
                )
        return {"checked": len(served), "violations": violations}

    def serve(self, spans_path: str | None) -> None:
        self.server.start()
        print(f"PORT {self.server.port}", flush=True)
        try:
            for line in sys.stdin:
                command = json.loads(line)
                name = command["cmd"]
                if name == "quit":
                    break
                if name == "begin":
                    reply = self.begin(command.get("rss_at", 0))
                elif name == "end":
                    reply = self.end()
                elif name == "retain-start":
                    reply = self.retain_start()
                elif name == "retain-stop":
                    reply = self.retain_stop(command["consults"])
                elif name == "check":
                    reply = self.check(command["served"])
                else:
                    reply = {"error": f"unknown command {name!r}"}
                print(json.dumps(reply), flush=True)
        finally:
            self.server.stop()
            if self.instrumentation is not None:
                self.instrumentation.remove()
                if spans_path:
                    self.recorder.write(spans_path)
        print(json.dumps({"ok": True}), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m consultbench.launcher")
    parser.add_argument("--workload", required=True,
                        choices=sorted(world.WIRE_SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    Launcher(args.workload, args.seed, args.seconds, args.state_dir,
             bool(args.trace)).serve(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
