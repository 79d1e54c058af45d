"""The single drain path: every consultation concludes on the drainer.

The service verifies inline — checking advice costs a small fraction of
finding it, so there is nothing to overlap.  These tests pin what that
buys: every completion, callback and drain listener runs on the thread
that called :meth:`~repro.service.AuthorityService.drain`; a drain with
no deadlines starts no thread at all; completions land in submission
order; the forced-serial switch changes cost, never advice; and the
service's public surface (constructor settings, admission validation,
the ``failure_counters`` block, the ``service.queue.drained`` record)
stays exactly as small as the one path needs.
"""

from __future__ import annotations

import inspect
import threading
import time

import pytest

from repro.core.actors import AuthorityAgent, BimatrixInventor
from repro.core.audit_events import (
    EVENT_BACKPRESSURE,
    EVENT_SERVICE_COMPLETED,
    EVENT_SERVICE_DRAINED,
)
from repro.core.authority import RationalityAuthority
from repro.core.registry import standard_procedures
from repro.errors import AdmissionError, ProtocolError
from repro.games.generators import random_bimatrix
from repro.linalg.backend import MODE_NUMPY, BackendPolicy
from repro.service import AuthorityService, SolveCache
from repro.service.load import mixed_game_stream, publish_stream
from repro.service.service import BACKPRESSURE_BLOCK, BACKPRESSURE_RAISE


def _authority(backend=None):
    authority = RationalityAuthority(seed=9)
    authority.register_verifiers(standard_procedures())
    authority.register_inventor(
        BimatrixInventor("inv", method="support-enumeration", backend=backend)
    )
    authority.register_agent(AuthorityAgent("jane", player_role=0))
    return authority


def _published(count=6, size=3, seed=5):
    authority = _authority()
    stream = mixed_game_stream(count, size=size, seed=seed)
    publish_stream(authority, "inv", stream)
    return authority, [entry.game_id for entry in stream]


def _drain_on_helper_thread(service):
    """Drain from a fresh thread; returns that thread's ident."""
    idents = []

    def drainer():
        idents.append(threading.get_ident())
        service.drain()

    thread = threading.Thread(target=drainer, name="test-drainer")
    thread.start()
    thread.join(timeout=30.0)
    assert not thread.is_alive()
    return idents[0]


class TestInlineDrain:
    def test_completion_callbacks_run_on_the_draining_thread(self):
        authority, game_ids = _published()
        service = AuthorityService(authority)
        seen = []
        for game_id in game_ids:
            future = service.submit("jane", game_id)
            future.add_done_callback(
                lambda _f: seen.append(threading.get_ident())
            )
        drainer = _drain_on_helper_thread(service)
        assert seen == [drainer] * len(game_ids)
        service.close()
        authority.close()

    def test_drain_listener_runs_on_the_draining_thread(self):
        authority, game_ids = _published(count=4)
        service = AuthorityService(authority)
        calls = []
        service.add_drain_listener(
            lambda summary: calls.append((threading.get_ident(), summary))
        )
        service.submit_many("jane", game_ids)
        drainer = _drain_on_helper_thread(service)
        assert calls == [
            (drainer, {"submissions": 4, "queue_depth": 4})
        ]
        service.close()
        authority.close()

    def test_deadlined_solve_still_concludes_on_the_draining_thread(self):
        # The solve runs on a watchdog worker; verification and the
        # conclusion come back to the drainer like every other path.
        authority, game_ids = _published(count=3)
        service = AuthorityService(authority, default_deadline_ms=60_000)
        seen = []
        futures = [service.submit("jane", game_id) for game_id in game_ids]
        for future in futures:
            future.add_done_callback(
                lambda _f: seen.append(threading.get_ident())
            )
        drainer = _drain_on_helper_thread(service)
        assert seen == [drainer] * len(game_ids)
        assert all(f.result().majority.accepted for f in futures)
        service.close()
        authority.close()

    def test_drain_without_deadlines_starts_no_thread(self):
        authority, game_ids = _published(count=6)
        service = AuthorityService(authority)
        before = set(threading.enumerate())
        for game_id in game_ids:
            service.submit("jane", game_id)
        service.submit_many("jane", game_ids[:2])
        service.drain()
        assert set(threading.enumerate()) == before
        service.close()
        authority.close()

    def test_completions_follow_submission_order(self):
        authority, game_ids = _published(count=6)
        service = AuthorityService(authority)
        service.submit("jane", game_ids[0])
        service.submit_many("jane", game_ids[1:4])
        service.submit("jane", game_ids[4])
        service.submit_many("jane", [game_ids[5], game_ids[0]])
        service.drain()
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert [r.details["game_id"] for r in completed] == (
            game_ids + [game_ids[0]]
        )
        service.close()
        authority.close()

    def test_max_batches_bounds_what_one_drain_pops(self):
        authority, game_ids = _published(count=3)
        service = AuthorityService(authority)
        futures = [service.submit("jane", game_id) for game_id in game_ids]
        assert service.drain(max_batches=1) == 1
        assert [f.done() for f in futures] == [True, False, False]
        assert service.pending_count == 2
        assert service.drain() == 2
        assert all(f.done() for f in futures)
        service.close()
        authority.close()

    def test_empty_drain_records_and_notifies_nothing(self):
        authority, __ = _published(count=1)
        service = AuthorityService(authority)
        calls = []
        service.add_drain_listener(calls.append)
        assert service.drain() == 0
        assert calls == []
        assert authority.audit.events_of(EVENT_SERVICE_DRAINED) == ()
        service.close()
        authority.close()

    def test_concurrent_drainers_resolve_each_future_once(self):
        authority, game_ids = _published(count=8)
        service = AuthorityService(authority)
        futures = [service.submit("jane", game_id) for game_id in game_ids]
        threads = [
            threading.Thread(target=service.drain) for __ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert all(f.done() for f in futures)
        assert service.completed_count == len(game_ids)
        completed = authority.audit.events_of(EVENT_SERVICE_COMPLETED)
        assert len(completed) == len(game_ids)
        service.close()
        authority.close()

    def test_forced_serial_changes_cost_never_advice(self, monkeypatch):
        # A two-shard numpy screen against the same screen kept in
        # process: the advice, its cache state and its verdict agree.
        def outcomes():
            authority = _authority(BackendPolicy(MODE_NUMPY, workers=2))
            game_ids = []
            for i in range(4):
                game_id = f"g{i}"
                authority.publish_game(
                    "inv", game_id, random_bimatrix(5, 5, seed=300 + i)
                )
                game_ids.append(game_id)
            service = AuthorityService(authority)
            futures = [service.submit("jane", g) for g in game_ids]
            service.drain()
            results = [f.result() for f in futures]
            service.close()
            authority.close()
            return results

        pooled = outcomes()
        monkeypatch.setenv("REPRO_FORCE_SERIAL", "1")
        serial = outcomes()
        assert len(pooled) == len(serial) == 4
        for fast, slow in zip(pooled, serial):
            assert fast.advice.suggestion == slow.advice.suggestion
            assert fast.advice.cache == slow.advice.cache
            assert fast.majority.accepted and slow.majority.accepted


class TestServiceSurface:
    def test_constructor_settings(self):
        params = list(
            inspect.signature(AuthorityService.__init__).parameters
        )
        assert params == [
            "self", "authority", "solve_cache", "attach_cache",
            "cache_path", "max_pending", "backpressure", "block_timeout",
            "default_deadline_ms",
        ]

    def test_backpressure_policy_names(self):
        assert (BACKPRESSURE_RAISE, BACKPRESSURE_BLOCK) == ("raise", "block")
        default = inspect.signature(AuthorityService.__init__).parameters[
            "backpressure"
        ].default
        assert default == BACKPRESSURE_RAISE

    def test_cache_and_cache_path_are_exclusive(self, tmp_path):
        authority, __ = _published(count=1)
        with pytest.raises(ProtocolError):
            AuthorityService(
                authority, solve_cache=SolveCache(),
                cache_path=tmp_path / "cache.json",
            )
        authority.close()

    def test_failure_counters_block(self):
        authority, game_ids = _published(count=2)
        service = AuthorityService(authority)
        assert service.failure_counters() == {
            "deadlines_exceeded": 0,
            "pool_rebuilds": 0,
            "pool_degradations": 0,
        }
        service.submit("jane", game_ids[0], deadline_ms=1.0)
        time.sleep(0.01)  # the budget lapses while it waits in the queue
        service.drain()
        assert service.failure_counters()["deadlines_exceeded"] == 1
        service.close()
        authority.close()

    def test_drained_record_fields(self):
        authority, game_ids = _published(count=3)
        service = AuthorityService(authority)
        service.submit_many("jane", game_ids)
        service.drain()
        (record,) = authority.audit.events_of(EVENT_SERVICE_DRAINED)
        assert set(record.details) == {
            "submissions", "queue_depth",
            "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
            "max_latency_ms", "max_verify_ms",
            "cache_hits", "cache_warm_hits", "cache_misses",
            "cache_hit_rate",
        }
        service.close()
        authority.close()


class TestAdmissionEdges:
    def test_zero_block_timeout_sheds_at_once(self):
        authority, game_ids = _published(count=2)
        service = AuthorityService(
            authority, max_pending=1, backpressure=BACKPRESSURE_BLOCK,
            block_timeout=0,
        )
        service.submit("jane", game_ids[0])
        with pytest.raises(AdmissionError):
            service.submit("jane", game_ids[1])
        (record,) = authority.audit.events_of(EVENT_BACKPRESSURE)
        assert record.details["action"] == "timed-out"
        assert service.pending_count == 1
        service.close()
        authority.close()

    def test_negative_high_water_rejected(self):
        authority, __ = _published(count=1)
        with pytest.raises(ProtocolError):
            AuthorityService(authority, max_pending=-3)
        authority.close()

    @pytest.mark.parametrize("high_water, low_water", [
        (1, 0), (2, 1), (7, 3),
    ])
    def test_blocked_admission_released_at_half_the_mark(
        self, high_water, low_water
    ):
        authority, game_ids = _published(count=high_water + 1)
        service = AuthorityService(
            authority, max_pending=high_water,
            backpressure=BACKPRESSURE_BLOCK,
        )
        for game_id in game_ids[:high_water]:
            service.submit("jane", game_id)
        admitted = threading.Event()

        def late_submitter():
            service.submit("jane", game_ids[high_water])
            admitted.set()

        thread = threading.Thread(target=late_submitter, daemon=True)
        thread.start()
        short = high_water - low_water - 1
        if short:
            # One batch above the low-water mark: still blocked.
            service.drain(max_batches=short)
        assert not admitted.wait(timeout=0.05)
        service.drain(max_batches=1)
        assert admitted.wait(timeout=5.0)
        thread.join(timeout=5.0)
        service.drain()
        assert service.completed_count == high_water + 1
        service.close()
        authority.close()


class TestScreeningWorkers:
    @pytest.mark.parametrize("backend, expected", [
        (None, 1),
        (BackendPolicy(MODE_NUMPY, workers=3), 3),
        (BackendPolicy(MODE_NUMPY, workers=0), None),
    ], ids=["default", "explicit", "one-per-cpu"])
    def test_screening_workers_is_the_policy_count(self, backend, expected):
        inventor = BimatrixInventor(
            "inv", method="support-enumeration", backend=backend
        )
        if expected is None:
            expected = BackendPolicy(MODE_NUMPY, workers=0).resolved_workers()
        assert inventor.screening_workers == expected
        inventor.close()
