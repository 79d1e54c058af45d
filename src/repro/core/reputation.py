"""Verifier reputations.

"The reputation of the veriﬁers can be updated according to the
(majority of their) results" — each session, verifiers that voted with
the majority gain, dissenters lose.  Scores are Beta-mean estimates
(successes+1)/(total+2), so fresh verifiers start at 1/2 and confidence
grows with history.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import ProtocolError


@dataclass
class ReputationScore:
    """Agreement history of one verifier."""

    agreements: int = 0
    disagreements: int = 0

    @property
    def total(self) -> int:
        return self.agreements + self.disagreements

    @property
    def score(self) -> Fraction:
        """Beta-mean reliability estimate in (0, 1)."""
        return Fraction(self.agreements + 1, self.total + 2)


class ReputationStore:
    """Scores per verifier, updated from majority outcomes.

    Vote recording is serialized by a lock so concurrent verification
    sessions (concurrent drains, or hosts verifying on their own
    threads) cannot lose updates.
    """

    def __init__(self):
        self._scores: dict[str, ReputationScore] = {}
        self._lock = threading.Lock()

    def ensure(self, name: str) -> ReputationScore:
        with self._lock:
            return self._scores.setdefault(name, ReputationScore())

    def score(self, name: str) -> Fraction:
        return self.ensure(name).score

    def record_vote(self, name: str, agreed_with_majority: bool) -> None:
        entry = self.ensure(name)
        with self._lock:
            if agreed_with_majority:
                entry.agreements += 1
            else:
                entry.disagreements += 1

    def update_from_outcome(self, outcome) -> None:
        """Apply one session's majority outcome to all participating verifiers."""
        for verdict in outcome.verdicts:
            self.record_vote(verdict.verifier, verdict.accepted == outcome.accepted)

    def ranking(self) -> tuple[tuple[str, Fraction], ...]:
        """Verifiers ordered by reputation, best first (name tie-break)."""
        return tuple(
            sorted(
                ((name, entry.score) for name, entry in self._scores.items()),
                key=lambda pair: (-pair[1], pair[0]),
            )
        )

    def select_top(self, names, count: int) -> tuple[str, ...]:
        """The ``count`` most reputable among ``names`` (agents pick verifiers
        "according to their reputation")."""
        if count < 1:
            raise ProtocolError("must select at least one verifier")
        pool = sorted(names, key=lambda n: (-self.score(n), n))
        return tuple(pool[:count])
