"""Spans at the library's layer boundaries, and per-layer metrics.

The benchmark does not trace from inside ``src/``: :func:`instrument`
wraps the public functions at each layer boundary (module functions in
every module that bound them by name, and class methods), records one
:class:`Span` per call with its parent (the enclosing traced call on the
same thread), keeps the spans in memory, and :meth:`SpanRecorder.write`
dumps them when the benchmark ends.  A layer's self time is its span
minus the part of it that its child spans cover (:func:`self_times`).

Every time metric of :func:`span_metrics` is milliseconds per
consultation, so the layer figures of one workload add up against its
per-consultation latency; counts are per consultation too, except where
the name says otherwise (``systems_per_call``, ``pairs_per_solve``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float


class SpanRecorder:
    """In-memory span log with a per-thread stack of open spans.

    ``clock`` is injectable so tests can drive it deterministically.
    ``counts`` collects the counters that the wrappers' observers
    record at the same boundaries (pairs screened, systems per call...).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.marks: dict = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_spans(self) -> tuple[int, ...]:
        """Ids of this thread's open spans, outermost first."""
        return tuple(self._stack())

    def wrap(self, name: str, fn: Callable,
             observe: Callable | None = None) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``observe(recorder, args, result)`` runs after a successful
        return, outside the span's own interval, with the caller's
        spans still open (``recorder.open_spans()``).
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = recorder.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = recorder.clock()
                stack.pop()
                recorder.spans.append(Span(span_id, parent, name, start, end))
            if observe is not None:
                observe(recorder, args, result)
            return result

        return traced

    def reset(self) -> None:
        """Forget every span, counter and mark (start of a new phase)."""
        self.spans = []
        self.counts = Counter()
        self.marks = {}

    def write(self, path) -> None:
        """Dump the spans as JSON lines: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(list(span), separators=(",", ":")))
                out.write("\n")


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """span id → duration minus the time its direct children cover."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - covered(span.start, span.end, children.get(span.span_id, ()))
        for span in spans
    }


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total seconds and self seconds."""
    spans = list(spans)  # a snapshot: server threads may still append
    own = self_times(spans)
    table: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        row = table[span.name]
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own[span.span_id]
    return dict(table)


def ancestors_named(spans, child_name: str, ancestor_name: str) -> set[int]:
    """Ids of the nearest ``ancestor_name`` span above each ``child_name``."""
    by_id = {span.span_id: span for span in spans}
    found = set()
    for span in spans:
        if span.name != child_name:
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name != ancestor_name:
            parent = by_id.get(parent.parent_id)
        if parent is not None:
            found.add(parent.span_id)
    return found


# ----------------------------------------------------------------------
# Instrumentation of the library's layer boundaries
# ----------------------------------------------------------------------


def _observe_screen(recorder, args, verdicts) -> None:
    from repro.equilibria.support_enumeration import SCREEN_CANDIDATE

    recorder.counts["screen_pairs"] += len(args[0][3])
    recorder.counts["screen_candidates"] += sum(
        1 for verdict in verdicts if verdict[0] == SCREEN_CANDIDATE
    )
    # The innermost open span is the solve that screened: certifications
    # under it from now on certify screen candidates, not cache hints.
    recorder.marks["screening_solve"] = recorder.open_spans()[-1:]


def _observe_certified(recorder, args, profile) -> None:
    solve = recorder.marks.get("screening_solve", ())
    if profile is not None and solve and solve[0] in recorder.open_spans():
        recorder.counts["certified"] += 1


def _observe_systems(recorder, args, results) -> None:
    recorder.counts["systems"] += len(args[1])


#: (module, function, span name, observer) — module functions, patched
#: in every module that bound them by name.
FUNCTION_BOUNDARIES = (
    ("repro.equilibria.support_enumeration", "screen_support_chunk",
     "equilibria.screen", _observe_screen),
    ("repro.equilibria.support_enumeration", "reconstruct_one_side",
     "equilibria.reconstruct", None),
    ("repro.equilibria.support_enumeration", "equilibrium_for_supports",
     "equilibria.exact_lp", None),
    ("repro.equilibria.mixed", "certify_mixed_profile",
     "equilibria.certify", _observe_certified),
    ("repro.equilibria.mixed", "certify_many", "equilibria.certify", None),
    ("repro.server.wire", "outcome_payload", "server.payload", None),
)

#: (module, class, method, span name, observer).
METHOD_BOUNDARIES = (
    ("repro.service.service", "AuthorityService", "drain",
     "service.drain", None),
    ("repro.service.cache", "SolveCache", "lookup_profile",
     "service.cache.lookup", None),
    ("repro.core.actors", "BimatrixInventor", "solve", "core.solve", None),
    ("repro.core.session", "ConsultationSession", "request_advice",
     "core.advise", None),
    ("repro.core.session", "ConsultationSession", "verify",
     "core.verify", None),
    ("repro.core.session", "ConsultationSession", "conclude",
     "core.conclude", None),
    ("repro.core.audit", "AuditLog", "record", "core.audit_record", None),
    ("repro.linalg.numpy_backend", "NumpyBackend", "screen_feasible",
     "linalg.screen_feasible", _observe_systems),
    ("repro.interactive.p1", "P1Verifier", "verify",
     "interactive.p1_verify", None),
    ("repro.interactive.p2", "P2Verifier", "verify",
     "interactive.p2_verify", None),
    ("repro.server.journal", "WriteBehindPersister", "flush",
     "server.journal_flush", None),
)


class Instrumentation:
    """The installed wrappers; :meth:`remove` restores the originals."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, module_name: str, attr: str, name: str,
                       observe=None) -> None:
        # import_module, not attribute access: inside the package,
        # repro.equilibria.support_enumeration is shadowed by the
        # same-named function.
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        traced = self.recorder.wrap(name, original, observe=observe)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and \
                    getattr(loaded, attr, None) is original:
                self._set(loaded, attr, traced)

    def patch_method(self, module_name: str, cls_name: str, attr: str,
                     name: str, observe=None) -> None:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        self._set(cls, attr, self.recorder.wrap(name, original, observe))

    def patch_admission(self) -> None:
        """Mark each submit's return and each session open, per game id:
        the gap between them is ``service.admission_wait_ms``."""
        from repro.core.authority import RationalityAuthority
        from repro.service.service import AuthorityService

        recorder = self.recorder
        submit = AuthorityService.__dict__["submit"]
        open_session = RationalityAuthority.__dict__["open_session"]

        @functools.wraps(submit)
        def marked_submit(service, agent_name, game_id, *args, **kwargs):
            future = submit(service, agent_name, game_id, *args, **kwargs)
            recorder.marks[game_id] = recorder.clock()
            return future

        @functools.wraps(open_session)
        def marked_open(authority, agent_name, game_id):
            admitted = recorder.marks.pop(game_id, None)
            if admitted is not None:
                recorder.counts["admission_wait_s"] += (
                    recorder.clock() - admitted
                )
            return open_session(authority, agent_name, game_id)

        self._set(AuthorityService, "submit", marked_submit)
        self._set(RationalityAuthority, "open_session", marked_open)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def instrument(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every layer boundary of the library around ``recorder``."""
    installed = Instrumentation(recorder)
    for module_name, attr, name, observe in FUNCTION_BOUNDARIES:
        installed.patch_function(module_name, attr, name, observe)
    for module_name, cls_name, attr, name, observe in METHOD_BOUNDARIES:
        installed.patch_method(module_name, cls_name, attr, name, observe)
    installed.patch_admission()
    return installed


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

#: Every per-layer metric name with its unit, in report order.
LAYER_METRICS = (
    ("server.wire_ms", "ms"),
    ("server.payload_ms", "ms"),
    ("server.journal_flush_ms", "ms"),
    ("server.journal_frames", "count"),
    ("server.journal_bytes", "bytes"),
    ("server.consults_per_drain", "count"),
    ("service.admission_wait_ms", "ms"),
    ("service.drain_self_ms", "ms"),
    ("service.cache.lookup_ms", "ms"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.hint_yield", "ratio"),
    ("core.solve_self_ms", "ms"),
    ("core.advise_self_ms", "ms"),
    ("core.verify_self_ms", "ms"),
    ("core.conclude_ms", "ms"),
    ("core.audit_records_per_consult", "count"),
    ("core.audit_record_ms", "ms"),
    ("core.bus_bytes_per_consult", "bytes"),
    ("core.retained_kb_per_consult", "KB"),
    ("equilibria.screen_build_ms", "ms"),
    ("equilibria.pairs_per_solve", "count"),
    ("equilibria.candidate_yield", "ratio"),
    ("equilibria.reconstruct_ms", "ms"),
    ("equilibria.certify_ms", "ms"),
    ("equilibria.exact_lp_ms", "ms"),
    ("equilibria.exact_lp_calls", "count"),
    ("linalg.screen_feasible_ms", "ms"),
    ("linalg.systems_per_call", "count"),
    ("interactive.p1_verify_ms", "ms"),
    ("interactive.p2_verify_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

#: Metric → (span name, "self" or "total"): milliseconds per consultation.
_SPAN_TIMES = {
    "server.payload_ms": ("server.payload", "total_s"),
    "server.journal_flush_ms": ("server.journal_flush", "total_s"),
    "service.drain_self_ms": ("service.drain", "self_s"),
    "service.cache.lookup_ms": ("service.cache.lookup", "total_s"),
    "core.solve_self_ms": ("core.solve", "self_s"),
    "core.advise_self_ms": ("core.advise", "self_s"),
    "core.verify_self_ms": ("core.verify", "self_s"),
    "core.conclude_ms": ("core.conclude", "total_s"),
    "core.audit_record_ms": ("core.audit_record", "total_s"),
    "equilibria.screen_build_ms": ("equilibria.screen", "self_s"),
    "equilibria.reconstruct_ms": ("equilibria.reconstruct", "self_s"),
    "equilibria.certify_ms": ("equilibria.certify", "self_s"),
    "equilibria.exact_lp_ms": ("equilibria.exact_lp", "self_s"),
    "linalg.screen_feasible_ms": ("linalg.screen_feasible", "total_s"),
    "interactive.p1_verify_ms": ("interactive.p1_verify", "total_s"),
    "interactive.p2_verify_ms": ("interactive.p2_verify", "total_s"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(recorder: SpanRecorder, consults: int) -> dict[str, float]:
    """The per-layer metrics the recorded spans and counters give.

    ``consults`` is the number of consultations the spans cover.
    """
    spans = list(recorder.spans)
    table = summarize(spans)
    counts = recorder.counts

    def row(name: str) -> dict:
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics = {
        metric: _ratio(row(span)[field] * 1000.0, consults)
        for metric, (span, field) in _SPAN_TIMES.items()
    }
    searching_solves = ancestors_named(
        spans, "equilibria.screen", "core.solve"
    )
    metrics.update({
        "service.admission_wait_ms": _ratio(
            counts["admission_wait_s"] * 1000.0, consults
        ),
        "core.audit_records_per_consult": _ratio(
            row("core.audit_record")["calls"], consults
        ),
        "equilibria.pairs_per_solve": _ratio(
            counts["screen_pairs"], len(searching_solves)
        ),
        "equilibria.candidate_yield": _ratio(
            counts["certified"], counts["screen_candidates"]
        ),
        "equilibria.exact_lp_calls": _ratio(
            row("equilibria.exact_lp")["calls"], consults
        ),
        "linalg.systems_per_call": _ratio(
            counts["systems"], row("linalg.screen_feasible")["calls"]
        ),
    })
    return metrics


def cache_ratios(before: dict, after: dict) -> dict[str, float]:
    """Hit ratio and hint yield of the cache lookups between two
    ``CacheStats.as_dict()`` snapshots."""
    delta = {key: after[key] - before[key]
             for key in ("hits", "warm_hits", "misses")}
    lookups = sum(delta.values())
    searched = delta["warm_hits"] + delta["misses"]
    return {
        "service.cache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
        "service.cache.hint_yield": (
            delta["warm_hits"] / searched if searched else 0.0
        ),
    }


def search_share(recorder: SpanRecorder) -> float:
    """Self time of ``equilibria.*`` + ``linalg.*`` spans over the time
    of the outermost spans (the traced consultation work)."""
    spans = list(recorder.spans)
    table = summarize(spans)
    search = sum(
        row["self_s"] for name, row in table.items()
        if name.startswith(("equilibria.", "linalg."))
    )
    outermost = sum(
        span.end - span.start for span in spans if span.parent_id is None
    )
    return _ratio(search, outermost)
