"""The closed-loop workloads: ``cold_search`` and ``warm_verify``.

One client, in-process: each consultation is ``submit`` then ``drain``
on an :class:`~repro.service.service.AuthorityService` with its
defaults, and the next one starts only after the previous resolved.
Games are published block by block between timed stretches, so the
timed phase contains consultations only.
"""

from __future__ import annotations

import gc
import itertools
import resource
import statistics
import time
import tracemalloc
from collections import deque
from dataclasses import dataclass, field

from repro.service.load import publish_stream
from repro.service.service import AuthorityService

from consultbench import world
from consultbench.hostspeed import HostSpeed
from consultbench.spans import (
    SpanRecorder,
    cache_ratios,
    instrument,
    search_share,
    span_metrics,
)


@dataclass
class Served:
    """Every consultation a run made, and what went wrong with any."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: (game id, base id or None, suggestion) of each resolved one.
    suggestions: list[tuple] = field(default_factory=list)

    def consult(self, service, entry, privacy: str) -> bool:
        """One closed-loop consultation; True when it was served."""
        self.attempted += 1
        future = service.submit(world.AGENT, entry.game_id, privacy=privacy)
        service.drain()
        outcome = future.peek_outcome()
        if outcome is None:
            self.failures.append(f"{entry.game_id}: {future.inner.exception()!r}")
            return False
        if not (outcome.majority.accepted and outcome.adopted):
            self.failures.append(f"{entry.game_id}: not accepted and adopted")
            return False
        self.suggestions.append(
            (entry.game_id, entry.base_id, outcome.advice.suggestion)
        )
        return True


@dataclass
class Phase:
    latencies_ms: list[float]
    attempted: int
    served: int
    seconds: float
    peak_rss_mb: float | None

    @property
    def consults_per_s(self) -> float:
        return self.served / self.seconds if self.seconds else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set so far (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ClosedLoop:
    """One built world, its service, and its seeded block source."""

    def __init__(self, workload: world.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.authority = world.build_authority()
        self.service = AuthorityService(self.authority)
        self.record = Served()
        #: base game id → the suggestion its cold solve served.
        self.bases: dict = {}
        self._block: deque = deque()
        if workload is world.COLD_SEARCH:
            self._blocks = (
                world.cold_block(seed, i) for i in itertools.count()
            )
        else:
            bases = world.warm_bases(seed)
            self._prewarm(bases)
            self._blocks = (
                world.warm_block(seed, i, bases) for i in itertools.count()
            )
        self._next_block()

    def _prewarm(self, bases) -> None:
        """Solve every base once (set-up): the timed repeats then hit."""
        publish_stream(self.authority, world.INVENTOR, bases)
        for entry in bases:
            if self.record.consult(self.service, entry, "open"):
                self.bases[entry.game_id] = self.record.suggestions[-1][2]

    def _next_block(self) -> None:
        block = next(self._blocks)
        publish_stream(
            self.authority, world.INVENTOR, [entry for entry, _ in block]
        )
        self._block.extend(block)

    def run(self, speed: HostSpeed, seconds: float = 0.0, rss_at: int = 0,
            consults: int = 0, pause=None, pauses: int = 0) -> Phase:
        """Consult until ``seconds`` of consultation time have passed
        and at least ``rss_at`` (the peak RSS is read at that count)
        and ``consults`` consultations were made.

        ``pause()`` is called ``pauses`` times outside the timed
        consultations: as the consultation time passes each of
        ``pauses + 1`` even shares of ``seconds``, but never before the
        peak RSS has been read.  ``speed`` takes its reference slices
        between consultations; the phase's times are reported at the
        reference speed.
        """
        timings = []
        busy = 0.0
        served = 0
        rss = None
        count = 0
        paused = 0
        speed.sample()
        while busy < seconds or count < max(rss_at, consults):
            if not self._block:
                self._next_block()
            entry, privacy = self._block.popleft()
            started = time.perf_counter()
            ok = self.record.consult(self.service, entry, privacy)
            ended = time.perf_counter()
            busy += ended - started
            count += 1
            timings.append((ended - started, (started + ended) / 2, ok))
            if ok:
                served += 1
            speed.after(ended - started)
            if count == rss_at:
                rss = peak_rss_mb()
            if paused < pauses and count >= rss_at \
                    and busy >= seconds * (paused + 1) / (pauses + 1):
                pause()
                paused += 1
        for _ in range(pauses - paused):
            pause()
        speed.sample()
        scaled = [
            (elapsed * speed.scale(moment), ok)
            for elapsed, moment, ok in timings
        ]
        latencies = [elapsed * 1000.0 for elapsed, ok in scaled if ok]
        return Phase(latencies, count, served,
                     sum(elapsed for elapsed, _ in scaled), rss)

    def retained_kb_per_consult(self, consults: int) -> float:
        """tracemalloc's retained bytes across ``consults`` more
        consultations (their games are published before the window)."""
        while len(self._block) < consults:
            self._next_block()
        window = [self._block.popleft() for _ in range(consults)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for entry, privacy in window:
                self.record.consult(self.service, entry, privacy)
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (after - before) / 1024.0 / consults

    def check(self) -> None:
        """Every served suggestion against the certified profile, and
        every repeat against its cold base (bit-identical)."""
        checker = world.AdviceChecker(self.authority)
        for game_id, base_id, suggestion in self.record.suggestions:
            problem = checker.violation(game_id, suggestion)
            if problem is None and base_id is not None \
                    and suggestion != self.bases.get(base_id):
                problem = f"{game_id}: repeat differs from its base {base_id}"
            if problem is not None:
                self.record.failures.append(problem)

    def close(self) -> None:
        self.service.close()
        self.authority.close()


def _setup(workload, seed, speed: HostSpeed) -> tuple[ClosedLoop, tuple]:
    """A new world, and (seconds it took, its middle moment) to scale
    once the slices around it are in."""
    speed.sample()
    started = time.perf_counter()
    loop = ClosedLoop(workload, seed)
    ended = time.perf_counter()
    speed.sample()
    return loop, (ended - started, (started + ended) / 2)


def run(workload: world.Workload, seed: int, seconds: float,
        traced: bool, spans_path=None) -> dict:
    """One benchmark run of a closed-loop workload."""
    with HostSpeed() as speed:
        return _run(workload, seed, seconds, traced, spans_path, speed)


def _run(workload: world.Workload, seed: int, seconds: float,
         traced: bool, spans_path, speed: HostSpeed) -> dict:
    setups = []
    #: The consultations of every world but the last one.
    others = Served()

    def set_up_only() -> None:
        other, setup = _setup(workload, seed, speed)
        setups.append(setup)
        other.check()
        others.attempted += other.record.attempted
        others.failures += other.record.failures
        other.close()
        gc.collect()

    loop, setup = _setup(workload, seed, speed)
    setups.append(setup)
    gc.collect()
    result: dict = {}
    if not traced:
        # The other set-ups are spread over the timed phase, so that
        # their median samples the machine across the whole run.
        phase = loop.run(speed, seconds, rss_at=workload.rss_at_consults,
                         pause=set_up_only,
                         pauses=workload.setup_repeats - 1)
        result.update(_e2e(workload, phase))
    else:
        untraced = loop.run(speed, seconds / 2)
        # A second world from the same seed consults the very same games
        # traced, so the overhead ratio compares identical work.
        loop.check()
        others.attempted += loop.record.attempted
        others.failures += loop.record.failures
        loop.close()
        loop = ClosedLoop(workload, seed)
        recorder = SpanRecorder()
        bus_before = loop.authority.bus.total_bytes()
        stats_before = loop.service.cache.stats.as_dict()
        installed = instrument(recorder)
        try:
            traced_phase = loop.run(speed, consults=untraced.attempted)
        finally:
            installed.remove()
        consults = traced_phase.served
        layers = span_metrics(recorder, consults)
        stats_after = loop.service.cache.stats.as_dict()
        layers.update(cache_ratios(stats_before, stats_after))
        layers["core.bus_bytes_per_consult"] = (
            (loop.authority.bus.total_bytes() - bus_before) / consults
            if consults else 0.0
        )
        layers["core.retained_kb_per_consult"] = loop.retained_kb_per_consult(
            workload.retain_consults
        )
        layers["trace.overhead_ratio"] = (
            untraced.consults_per_s / traced_phase.consults_per_s
            if traced_phase.consults_per_s else 0.0
        )
        result["layers"] = layers
        result["search_share"] = search_share(recorder)
        result.update(_e2e(workload, untraced))
        if spans_path is not None:
            recorder.write(spans_path)
    loop.check()
    result["setup_s"] = statistics.median(
        elapsed * speed.scale(moment) for elapsed, moment in setups
    )
    result["speed_scale"] = speed.median_scale()
    result["slices"] = len(speed.seconds)
    result["attempted"] = others.attempted + loop.record.attempted
    result["failures"] = others.failures + loop.record.failures
    loop.close()
    return result


def _e2e(workload: world.Workload, phase: Phase) -> dict:
    """The end-to-end figures of one timed phase."""
    latencies = phase.latencies_ms
    pct = world.tail_percentile(len(latencies), workload.tail_percentile)
    within = sum(1 for value in latencies if value <= workload.latency_limit_ms)
    return {
        "consults_per_s": phase.consults_per_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": world.percentile(latencies, pct),
        "tail_percentile": pct,
        "samples": len(latencies),
        "within_limit_ratio": within / max(1, phase.attempted),
        "peak_rss_mb": phase.peak_rss_mb or peak_rss_mb(),
        "lag_p99_ms": 0.0,
    }
