"""Workload definitions, seeded inputs, the served world, and the checks.

Everything a workload offers the library is a constant here or a pure
function of the workload seed: game sizes, stream mixes, the offered
rate, latency limits and tail percentiles never depend on the machine
or on an earlier run.  The same module builds the served world in the
benchmark process (closed loops) and in the server launcher
(``wire_mixed``), so both sides see bit-identical games for a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.equilibria.mixed import fraction_nash_check
from repro.games.bimatrix import BimatrixGame
from repro.linalg.backend import MODE_NUMPY, BackendPolicy
from repro.rng import make_rng
from repro.service.load import (
    KIND_REPEAT,
    StreamEntry,
    mixed_game_stream,
    poisson_arrivals,
)

AGENT = "jane"
INVENTOR = "inv"
#: The authority's own seed (verifier randomness), fixed for every run.
AUTHORITY_SEED = 17


@dataclass(frozen=True)
class Workload:
    """One workload's fixed parameters.

    ``tail_percentile`` is the highest percentile of the ladder
    50/75/90/95/99/99.9 with at least 10 samples beyond it at the
    sample count this workload collects in one run of the benchmark's
    ``run_seconds``; fixing it here keeps the metric comparable across
    runs and commits (see :func:`tail_percentile` for short runs).
    ``rss_at_consults`` (closed loops) is the consultation count at
    which the peak RSS is read, so a faster program is not charged for
    the extra consultations it fits into the same seconds; a run that
    reaches it late keeps consulting until it does.  The open loop
    offers a fixed number of requests and reads it at the end (0).
    ``retain_consults`` is the size of a traced run's tracemalloc
    window.
    """

    name: str
    size: int
    latency_limit_ms: float
    tail_percentile: float
    rss_at_consults: int
    setup_repeats: int
    retain_consults: int


COLD_SEARCH = Workload(
    "cold_search", size=7, latency_limit_ms=500.0, tail_percentile=95.0,
    rss_at_consults=100, setup_repeats=9, retain_consults=10,
)
WARM_VERIFY = Workload(
    "warm_verify", size=6, latency_limit_ms=5.0, tail_percentile=99.9,
    rss_at_consults=15000, setup_repeats=3, retain_consults=400,
)
WIRE_MIXED = Workload(
    "wire_mixed", size=6, latency_limit_ms=250.0, tail_percentile=95.0,
    rss_at_consults=100, setup_repeats=5, retain_consults=20,
)
WIRE_OPEN = Workload(
    "wire_open", size=6, latency_limit_ms=250.0, tail_percentile=95.0,
    rss_at_consults=0, setup_repeats=3, retain_consults=20,
)
WORKLOADS = {
    w.name: w for w in (COLD_SEARCH, WARM_VERIFY, WIRE_MIXED, WIRE_OPEN)
}

#: Every how many closed-loop requests one asks for private (P2)
#: advice, so the P2 path is measured beside P1.
PRIVATE_EVERY = 4
#: cold_search: games per published block (blocks are published
#: between timed stretches, never inside one).
COLD_BLOCK = 40
#: warm_verify: distinct base games solved during set-up, and repeats
#: per published block.
WARM_BASES = 96
WARM_BLOCK = 500


@dataclass(frozen=True)
class WireShape:
    """How a wire workload offers its 6×6 mixed stream.

    ``rate`` is the open loop's fixed offered rate (requests/s, Poisson
    arrivals), never calibrated per run; ``None`` is a closed loop.
    ``repeats`` and ``near`` are the stream's shares of exact repeats
    and near-repeats; the rest is cold.
    """

    rate: float | None
    repeats: float
    near: float


#: ``wire_mixed`` (gated) is a closed loop on a mostly-cold stream, so
#: its median request is a cold one; ``wire_open`` is the open loop at
#: about half the default mix's capacity (not gated; see README.md).
WIRE_SHAPES = {
    "wire_mixed": WireShape(rate=None, repeats=0.1, near=0.1),
    "wire_open": WireShape(rate=12.0, repeats=0.4, near=0.2),
}
#: A closed-loop stream holds this many entries per second of its
#: phase: 2.5 to 5 times the 16-31/s the server consulted on a 2-vCPU
#: x86-64 KVM guest, so only a much faster program runs out, and
#: running out is a failure (raise this constant then).
WIRE_CLOSED_ENTRIES_PER_S = 80

LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(samples: int, designed: float) -> float:
    """The workload's designed tail percentile, or — when a run has too
    few samples for it — the highest ladder percentile that still has
    at least 10 samples beyond it (50 when none has)."""
    fitting = [p for p in LADDER if samples * (100.0 - p) / 100.0 >= 10]
    if samples * (100.0 - designed) / 100.0 >= 10:
        return designed
    return max(fitting, default=50.0)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def _sub_seed(seed: int, label: str) -> int:
    return make_rng(seed, label).randrange(1 << 30)


def _privacy(number: int) -> str:
    return "private" if number % PRIVATE_EVERY == PRIVATE_EVERY - 1 \
        else "open"


def cold_block(seed: int, index: int) -> list[tuple[StreamEntry, str]]:
    """Block ``index`` of fresh 7×7 games: no repeats, no near-repeats;
    every ``PRIVATE_EVERY``-th request asks for private (P2) advice."""
    stream = mixed_game_stream(
        COLD_BLOCK, size=COLD_SEARCH.size,
        seed=_sub_seed(seed, f"cold-block:{index}"),
        repeat_fraction=0.0, near_fraction=0.0, prefix=f"c{index}-",
    )
    return [
        (entry, _privacy(index * COLD_BLOCK + offset))
        for offset, entry in enumerate(stream)
    ]


def warm_bases(seed: int) -> list[StreamEntry]:
    """The distinct 6×6 base games that set-up solves."""
    return mixed_game_stream(
        WARM_BASES, size=WARM_VERIFY.size, seed=_sub_seed(seed, "warm-bases"),
        repeat_fraction=0.0, near_fraction=0.0, prefix="base",
    )


def warm_block(seed: int, index: int,
               bases: list[StreamEntry]) -> list[tuple[StreamEntry, str]]:
    """Block ``index`` of exact repeats of the bases under fresh ids;
    every ``PRIVATE_EVERY``-th request asks for private (P2) advice."""
    rng = make_rng(seed, f"warm-block:{index}")
    block = []
    for offset in range(WARM_BLOCK):
        base = bases[rng.randrange(len(bases))]
        number = index * WARM_BLOCK + offset
        entry = StreamEntry(
            f"w{number}",
            BimatrixGame(base.game.row_matrix, base.game.column_matrix),
            KIND_REPEAT,
            base_id=base.game_id,
        )
        block.append((entry, _privacy(number)))
    return block


def wire_inputs(name: str, seed: int, seconds: float, extra: int = 0
                ) -> tuple[list[StreamEntry], list[float] | None]:
    """A wire workload's stream and due offsets (seconds from start).

    The open loop offers exactly ``rate * seconds`` Poisson arrivals.
    A closed loop has no offsets (None) and a stream long enough for
    ``seconds`` (see ``WIRE_CLOSED_ENTRIES_PER_S``) and for the
    workload's ``rss_at_consults``.  The stream
    carries ``extra`` entries past the timed ones.
    """
    shape = WIRE_SHAPES[name]
    if shape.rate is None:
        offsets = None
        count = max(math.ceil(seconds * WIRE_CLOSED_ENTRIES_PER_S),
                    WORKLOADS[name].rss_at_consults)
    else:
        offsets = list(poisson_arrivals(
            shape.rate, round(shape.rate * seconds),
            seed=_sub_seed(seed, "wire-arrivals"),
        ).offsets)
        count = len(offsets)
    stream = mixed_game_stream(
        count + extra, size=WORKLOADS[name].size,
        seed=_sub_seed(seed, "wire-stream"), repeat_fraction=shape.repeats,
        near_fraction=shape.near, prefix="g",
    )
    return stream, offsets


# ----------------------------------------------------------------------
# The served world and the correctness check
# ----------------------------------------------------------------------


def build_authority() -> RationalityAuthority:
    """One authority: standard verifiers, one support-enumeration
    inventor on the numpy backend, one row agent."""
    authority = RationalityAuthority(seed=AUTHORITY_SEED)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(BimatrixInventor(
        INVENTOR, method="support-enumeration",
        backend=BackendPolicy(MODE_NUMPY),
    ))
    authority.register_agent(AuthorityAgent(AGENT, player_role=0))
    return authority


class AdviceChecker:
    """Checks served suggestions on the side that holds the games.

    A served suggestion is correct when it is the agent's distribution
    of the profile the inventor certified for that game id (its cached
    ``solve``), and that profile passes the Fraction-arithmetic
    ``fraction_nash_check``.  The Nash check runs once per distinct
    (payoffs, profile) pair, so long repeat streams stay cheap.
    """

    def __init__(self, authority: RationalityAuthority):
        self._authority = authority
        self._inventor = authority.inventor_named(INVENTOR)
        self._nash: dict = {}

    def expected(self, game_id: str) -> tuple[Fraction, ...]:
        game = self._authority.game(game_id)
        profile = self._inventor.solve(game_id, game)
        key = (game.payoff_fingerprint, profile.distributions)
        if key not in self._nash:
            self._nash[key] = fraction_nash_check(game, profile)
        if not self._nash[key]:
            raise ValueError(f"{game_id}: profile fails fraction_nash_check")
        return profile.distribution(0)

    def violation(self, game_id: str, suggestion) -> str | None:
        """None when correct, else why not."""
        try:
            expected = self.expected(game_id)
        except ValueError as exc:
            return str(exc)
        if tuple(suggestion) != expected:
            return f"{game_id}: served suggestion is not the certified profile"
        return None
