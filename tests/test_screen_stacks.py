"""The stacked Lemma-1 screen: one zero-padded ndarray stack per side.

``screen_support_chunk`` gathers each side's systems for a whole chunk
straight from the float64 payoff matrix and pivots them as one stack,
narrower systems padded with zero columns.  These tests pin that the
padding changes nothing: verdicts equal the list-built systems screened
one exact shape at a time, a padded system answers exactly as it does
alone (iteration cap included), and solver results do not depend on
chunking or sharding.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy", reason="needs numpy (stdlib-only run)")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equilibria.executors import ShardedExecutor
from repro.equilibria.mixed import is_mixed_nash
from repro.equilibria.support_enumeration import (
    SCREEN_CANDIDATE,
    SCREEN_EXACT,
    SCREEN_PRUNED,
    _feasibility_rows,
    _side_stack,
    find_one_equilibrium,
    screen_support_chunk,
    support_enumeration,
    support_pairs,
)
from repro.games.bimatrix import BimatrixGame
from repro.games.generators import random_bimatrix
from repro.linalg import INCONCLUSIVE, NUMPY_BACKEND, BackendPolicy
from repro.linalg import numpy_backend
from repro.linalg.backend import float_matrix
from repro.linalg.numpy_backend import NumpyBackend
from repro.rng import make_rng


def _screen_by_shape(backend, systems):
    """List-built systems screened one exact shape at a time, unpadded."""
    points = [None] * len(systems)
    groups: dict[tuple[int, int], list[int]] = {}
    for idx, (rows, __) in enumerate(systems):
        groups.setdefault((len(rows), len(rows[0])), []).append(idx)
    for indices in groups.values():
        stacked = backend.screen_feasible(
            np.array([systems[idx][0] for idx in indices]),
            np.array([systems[idx][1] for idx in indices]),
        )
        for idx, point in zip(indices, stacked):
            points[idx] = point
    return points


def _refined(point, support, tol):
    return tuple(j for idx, j in enumerate(support) if point[idx] > tol)


def _reference_verdicts(backend, a_float, b_cols_float, pairs):
    """The screen verdicts, built the list way: y-sides of every pair,
    x-sides of the y-survivors, each screened per exact shape."""
    y_points = _screen_by_shape(backend, [
        _feasibility_rows(a_float, rs, cs, 0.0, 1.0)[:2] for rs, cs in pairs
    ])
    survivors = [
        idx for idx, point in enumerate(y_points)
        if point is not None and point is not INCONCLUSIVE
    ]
    x_points = dict(zip(survivors, _screen_by_shape(backend, [
        _feasibility_rows(b_cols_float, pairs[idx][1], pairs[idx][0], 0.0, 1.0)[:2]
        for idx in survivors
    ])))
    verdicts = []
    for idx, (rs, cs) in enumerate(pairs):
        y_point = y_points[idx]
        if y_point is None:
            verdicts.append((SCREEN_PRUNED,))
        elif y_point is INCONCLUSIVE:
            verdicts.append((SCREEN_EXACT,))
        elif x_points[idx] is None:
            verdicts.append((SCREEN_PRUNED,))
        elif x_points[idx] is INCONCLUSIVE:
            verdicts.append((SCREEN_EXACT,))
        else:
            tol = backend.support_tol
            verdicts.append((
                SCREEN_CANDIDATE,
                _refined(y_point, cs, tol),
                _refined(x_points[idx], rs, tol),
            ))
    return verdicts


@st.composite
def games_and_chunks(draw):
    """A random or degenerate game (1-7 actions a side, n and m drawn
    independently) and a contiguous slice of its support pairs."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 7))
    values = draw(st.sampled_from([st.integers(-1, 1), st.integers(-30, 30)]))
    matrix = st.lists(
        st.lists(values, min_size=m, max_size=m), min_size=n, max_size=n
    )
    game = BimatrixGame(draw(matrix), draw(matrix))
    pairs = list(support_pairs(n, m))
    start = draw(st.integers(0, len(pairs) - 1))
    length = draw(st.integers(1, 160))
    return game, pairs[start:start + length]


class TestSideStack:
    def test_each_system_is_the_padded_list_system(self):
        rng = make_rng(41, "screen-stacks:build")
        game = random_bimatrix(5, 4, seed=41)
        a_float = float_matrix(game.row_matrix)
        pairs = list(support_pairs(5, 4))
        sample = [pairs[rng.randrange(len(pairs))] for __ in range(60)]
        a, b, widths = _side_stack(
            np.array(a_float),
            [rs for rs, __ in sample], [cs for __, cs in sample],
        )
        assert a.dtype == np.float64 and a.shape[:2] == (60, 6)
        for pos, (rs, cs) in enumerate(sample):
            rows, rhs, num_vars = _feasibility_rows(a_float, rs, cs, 0.0, 1.0)
            assert widths[pos] == num_vars
            assert np.array_equal(a[pos, :, :num_vars], np.array(rows))
            assert not a[pos, :, num_vars:].any()
            assert np.array_equal(b[pos], np.array(rhs))

    @settings(max_examples=60, deadline=None)
    @given(games_and_chunks())
    def test_chunk_verdicts_equal_per_shape_screens(self, game_and_pairs):
        game, pairs = game_and_pairs
        a_float = float_matrix(game.row_matrix)
        b_cols_float = float_matrix(game.column_matrix_transposed)
        stacked = screen_support_chunk(
            (NUMPY_BACKEND, np.array(a_float), np.array(b_cols_float), pairs)
        )
        assert stacked == _reference_verdicts(
            NUMPY_BACKEND, a_float, b_cols_float, pairs
        )


def _lemma1_systems(seed):
    """Every y-side Lemma-1 system of a random 5x5 game, as lists."""
    game = random_bimatrix(5, 5, seed=seed)
    a_float = float_matrix(game.row_matrix)
    return [
        _feasibility_rows(a_float, rs, cs, 0.0, 1.0)[:2]
        for rs, cs in support_pairs(5, 5)
    ]


class TestPaddingInvariance:
    @pytest.mark.parametrize("max_iterations", [None, 1, 2, 3, 4, 6, 9])
    def test_padded_system_answers_as_it_does_alone(self, max_iterations):
        backend = NumpyBackend(max_iterations=max_iterations)
        systems = _lemma1_systems(seed=43)
        width = max(len(rows[0]) for rows, __ in systems)
        wide = next(s for s in systems if len(s[0][0]) == width)
        capped = 0
        for rows, rhs in systems[::7]:
            own = len(rows[0])
            alone = backend.screen_feasible(np.array([rows]), np.array([rhs]))[0]
            stack = np.zeros((3, len(rows), width))
            stack[0] = stack[2] = wide[0]
            stack[1, :, :own] = rows
            together = backend.screen_feasible(
                stack, np.array([wide[1], rhs, wide[1]]),
                widths=[width, own, width],
            )[1]
            if alone is None or alone is INCONCLUSIVE:
                assert together is alone
                capped += alone is INCONCLUSIVE
            else:
                assert together is not None and together is not INCONCLUSIVE
                assert len(together) == own
                assert np.array_equal(alone, together)
        if max_iterations in (1, 2):
            assert capped  # the cap really was hit, padded and alone

    @pytest.mark.parametrize("width", [1, 4])
    def test_a_cap_counts_pivots_then_the_optimality_check(self, width):
        # x = 1 takes one pivot, so it is decided only with a budget of two.
        a = np.zeros((1, 1, width))
        a[0, 0, 0] = 1.0
        b = np.ones((1, 1))
        capped = NumpyBackend(max_iterations=1).screen_feasible(a, b, [1])
        assert capped == [INCONCLUSIVE]
        decided = NumpyBackend(max_iterations=2).screen_feasible(a, b, [1])
        assert np.array_equal(decided[0], [1.0])

    def test_a_system_stops_at_its_own_cap_inside_a_longer_stack(self):
        # Three copies of x = 1 with budgets 1, 2 and 5 pivot together:
        # the first runs out while the others still have budget.
        a = np.ones((3, 1, 1))
        outcomes = NUMPY_BACKEND._phase1_stack(
            a, np.ones((3, 1)), np.array([1, 2, 5])
        )
        assert outcomes[0] is INCONCLUSIVE
        assert all(np.array_equal(point, [1.0]) for point in outcomes[1:])

    def test_each_system_keeps_the_cap_of_its_own_shape(self, monkeypatch):
        seen = []
        original = NumpyBackend._phase1_stack

        def recording(self, a, b, caps):
            seen.append(caps.tolist())
            return original(self, a, b, caps)

        monkeypatch.setattr(NumpyBackend, "_phase1_stack", recording)
        game = random_bimatrix(4, 6, seed=47)
        pairs = list(support_pairs(4, 6))[::5]
        a, b, widths = _side_stack(
            np.array(float_matrix(game.row_matrix)),
            [rs for rs, __ in pairs], [cs for __, cs in pairs],
        )
        assert len(set(widths.tolist())) > 1
        NumpyBackend().screen_feasible(a, b, widths)
        assert seen == [[64 + 16 * (5 + w) for w in widths.tolist()]]
        seen.clear()
        NumpyBackend(max_iterations=5).screen_feasible(a, b, widths)
        assert seen == [[5] * len(pairs)]

    def test_stack_limit_slices_without_changing_answers(self, monkeypatch):
        game = random_bimatrix(6, 5, seed=53)
        payload = (
            NUMPY_BACKEND,
            np.array(float_matrix(game.row_matrix)),
            np.array(float_matrix(game.column_matrix_transposed)),
            list(support_pairs(6, 5))[:700],
        )
        whole = screen_support_chunk(payload)
        sizes = []
        original = NumpyBackend._phase1_stack

        def recording(self, a, b, caps):
            sizes.append(len(a))
            return original(self, a, b, caps)

        monkeypatch.setattr(NumpyBackend, "_phase1_stack", recording)
        monkeypatch.setattr(numpy_backend, "STACK_LIMIT", 37)
        assert screen_support_chunk(payload) == whole
        assert max(sizes) == 37 and len(sizes) > 2
        assert sizes[0] == 37 and sizes[18] == 700 - 18 * 37


def _games():
    rng = make_rng(59, "screen-stacks:games")
    degenerate = BimatrixGame(
        [[rng.randint(-1, 1) for __ in range(5)] for __ in range(3)],
        [[rng.randint(-1, 1) for __ in range(5)] for __ in range(3)],
    )
    return [random_bimatrix(4, 4, seed=61), degenerate]


class TestChunkingAndSharding:
    @pytest.mark.parametrize("game", _games(), ids=["random4x4", "degenerate3x5"])
    def test_results_agree_across_chunk_sizes_and_workers(self, game):
        def policy(chunk_size):
            return BackendPolicy("numpy", chunk_size=chunk_size)

        every = support_enumeration(game, policy=policy(1024))
        first = find_one_equilibrium(game, policy=policy(1024))
        assert every and all(is_mixed_nash(game, p) for p in every)
        assert is_mixed_nash(game, first)
        for chunk_size in (1, 7):
            assert support_enumeration(game, policy=policy(chunk_size)) == every
            assert find_one_equilibrium(game, policy=policy(chunk_size)) == first
        with ShardedExecutor(workers=2) as executor:
            for chunk_size in (7, 1024):
                assert support_enumeration(
                    game, policy=policy(chunk_size), executor=executor
                ) == every
                assert find_one_equilibrium(
                    game, policy=policy(chunk_size), executor=executor
                ) == first
