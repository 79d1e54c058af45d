"""Support enumeration for bimatrix games — a staged candidate engine.

This is the inventor-side computation whose *hardness* motivates the
paper: finding a mixed equilibrium is PPAD-complete in general, and the
honest-but-slow way to find all of them in a bimatrix game is to try every
support pair and decide feasibility of the equilibrium conditions.

For a support pair (S1, S2) the conditions are (Lemma 1's system, both
sides):

* y is a distribution supported within S2 making all rows in S1 earn a
  common value λ1 and all rows outside S1 earn at most λ1;
* x is a distribution supported within S1 making all columns in S2 earn
  a common value λ2 and all columns outside S2 earn at most λ2.

Each side is an LP feasibility question.  The search is organized as an
explicit four-stage pipeline::

    generate  →  screen  →  reconstruct  →  certify

**Generate** lists candidate support pairs in a fixed deterministic
order.  **Screen** decides, approximately and cheaply, which pairs can
possibly carry an equilibrium; it runs on a configurable
:class:`~repro.linalg.backend.NumericBackend` (with the vectorized numpy
backend, each side's Lemma-1 systems for a whole chunk of pairs are
gathered straight from the float64 payoff matrix into one zero-padded
ndarray stack and pivoted at once; the stdlib float backend screens one
pair at a time, warm-starting from the previous pair's basis when only
one action changed) and can be sharded across worker processes by a
pluggable executor — workers return plain picklable verdicts, nothing
else.  **Reconstruct** re-solves surviving candidates exactly
(support-restricted, on the fraction-free integer Bareiss kernel —
bit-identical to Fraction elimination), always in the calling process.  **Certify** passes each wave's reconstructions
through the exact Lemma-1 gate as one
:func:`~repro.equilibria.mixed.certify_many` batch — all candidates of
a wave share the game's cached integer-lattice payoffs — before
anything is returned; an inconclusive or uncertifiable screen verdict
falls back to the seed's exact LP for that pair, so no approximate
profile ever escapes and soundness is unconditional in every mode.
With the default exact backend there is no screen at all: everything is
Fractions end to end, exactly as the seed behaved.

Determinism: support pairs, chunk boundaries and resolution order are
all fixed before any executor runs, so the returned equilibrium tuple is
identical for every worker count (serial included).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from repro.equilibria.executors import make_executor
from repro.errors import BackendError, EquilibriumError, LinearAlgebraError
from repro.games.bimatrix import BimatrixGame
from repro.games.profiles import MixedProfile
from repro.linalg.backend import (
    INCONCLUSIVE,
    NumericBackend,
    float_matrix,
    resolve_policy,
)
from repro.linalg.int_exact import solve_linear_system
from repro.linalg.int_lp import find_feasible_point

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # only the stacked screen uses it, and only numpy backends reach it

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Support pairs screened per work chunk.  Fixed (policy-overridable but
#: never worker-count-dependent), so sharding cannot change results.
#: A chunk's y-sides form one stack and its surviving x-sides another,
#: so 1024 pairs keep each pivot iteration's numpy calls busy (the
#: backend pivots them in slices of at most ``STACK_LIMIT`` systems)
#: while still cutting a default-scale enumeration into enough shards
#: to feed a multi-core pool.
DEFAULT_CHUNK_SIZE = 1024


def _feasibility_rows(
    payoff_rows: Sequence[Sequence],
    own_support: tuple[int, ...],
    other_support: tuple[int, ...],
    zero,
    one,
) -> tuple[list, list, int]:
    """The Lemma-1 one-side feasibility system over any arithmetic.

    Variables: the mix q over ``other_support``, λ = λ⁺ - λ⁻ (free), and
    one slack per off-support action of ours.  Returns (rows, rhs,
    num_vars); ``zero``/``one`` select the arithmetic (Fraction or float).
    """
    num_own = len(payoff_rows)
    off_support = tuple(i for i in range(num_own) if i not in set(own_support))
    k = len(other_support)
    num_vars = k + 2 + len(off_support)  # q..., lam_plus, lam_minus, slacks...
    lam_plus = k
    lam_minus = k + 1
    rows: list[list] = []
    rhs: list = []

    # Supported actions: payoff(i) - λ = 0.
    for i in own_support:
        row = [zero] * num_vars
        for idx, j in enumerate(other_support):
            row[idx] = payoff_rows[i][j]
        row[lam_plus] = -one
        row[lam_minus] = one
        rows.append(row)
        rhs.append(zero)

    # Off-support actions: payoff(i) + slack = λ  (i.e. payoff(i) <= λ).
    for slack_idx, i in enumerate(off_support):
        row = [zero] * num_vars
        for idx, j in enumerate(other_support):
            row[idx] = payoff_rows[i][j]
        row[lam_plus] = -one
        row[lam_minus] = one
        row[k + 2 + slack_idx] = one
        rows.append(row)
        rhs.append(zero)

    # The mix is a probability distribution over the support.
    row = [zero] * num_vars
    for idx in range(k):
        row[idx] = one
    rows.append(row)
    rhs.append(one)
    return rows, rhs, num_vars


def _exact_one_side(
    payoff_rows: Sequence[Sequence[Fraction]],
    own_support: tuple[int, ...],
    other_support: tuple[int, ...],
    num_other_actions: int,
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """The seed path: exact LP feasibility, Fractions end to end."""
    rows, rhs, __ = _feasibility_rows(
        payoff_rows, own_support, other_support, _ZERO, _ONE
    )
    k = len(other_support)
    point = find_feasible_point(rows, rhs)
    if point is None:
        return None
    full_mix = [_ZERO] * num_other_actions
    for idx, j in enumerate(other_support):
        full_mix[j] = point[idx]
    value = point[k] - point[k + 1]
    return tuple(full_mix), value


def reconstruct_one_side(
    payoff_rows: Sequence[Sequence[Fraction]],
    own_support: tuple[int, ...],
    refined_other: tuple[int, ...],
    num_other_actions: int,
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """Exact support-restricted re-solve of a float candidate.

    Solves the *linear system* "all of ``own_support`` earns a common λ
    under a mix on ``refined_other`` summing to one" exactly (on the
    fraction-free integer Bareiss kernel — bit-identical to the seed's
    Fraction elimination, minus its per-step gcds), then checks the full
    Lemma-1 side conditions (probabilities in [0, 1], every
    off-``own_support`` action earning at most λ) with exact arithmetic.
    Returns None when the system is inconsistent, underdetermined, or the
    checks fail — the caller then falls back to the exact LP.

    This is shared certification infrastructure: both the support-
    enumeration screen and the Lemke-Howson float endpoint rebuild their
    candidates through it.
    """
    if not refined_other:
        return None
    k = len(refined_other)
    # Unknowns: q over refined_other, then λ (free sign — plain system).
    matrix: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in own_support:
        row = [payoff_rows[i][j] for j in refined_other]
        row.append(-_ONE)
        matrix.append(row)
        rhs.append(_ZERO)
    matrix.append([_ONE] * k + [_ZERO])
    rhs.append(_ONE)
    try:
        particular, basis = solve_linear_system(matrix, rhs)
    except LinearAlgebraError:
        return None
    if basis:
        return None  # underdetermined: let the exact LP pick a vertex
    q = particular[:k]
    value = particular[k]
    if any(p < 0 or p > 1 for p in q):
        return None
    full_mix = [_ZERO] * num_other_actions
    for idx, j in enumerate(refined_other):
        full_mix[j] = q[idx]
    own = set(own_support)
    for i in range(len(payoff_rows)):
        if i in own:
            continue
        earned = sum(
            (payoff_rows[i][j] * full_mix[j] for j in refined_other), start=_ZERO
        )
        if earned > value:
            return None
    return tuple(full_mix), value


def solve_one_side(
    payoff_rows: Sequence[Sequence[Fraction]],
    own_support: Sequence[int],
    other_support: Sequence[int],
    num_other_actions: int,
    backend: NumericBackend | None = None,
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """Find the *other* player's mix that makes ``own_support`` optimal.

    ``payoff_rows[i][j]`` is our payoff for our action i against the other
    player's action j.  Returns ``(full_mix, value)`` where ``full_mix``
    is the other player's distribution (length ``num_other_actions``) and
    ``value`` is our common supported payoff λ — or None if infeasible.
    The returned values are always exact Fractions, whatever ``backend``
    the search phase ran on.
    """
    own_support = tuple(own_support)
    other_support = tuple(other_support)
    if not own_support or not other_support:
        return None

    if backend is not None and not backend.exact:
        rows, rhs, __ = _feasibility_rows(
            float_matrix(payoff_rows), own_support, other_support, 0.0, 1.0
        )
        try:
            point = backend.find_feasible_point(rows, rhs)
        except BackendError:
            point = None
            inconclusive = True
        else:
            inconclusive = False
            if point is None:
                return None  # confidently infeasible — pruned
        if not inconclusive:
            support_tol = backend.support_tol
            refined = tuple(
                j for idx, j in enumerate(other_support)
                if point[idx] > support_tol
            )
            reconstructed = reconstruct_one_side(
                payoff_rows, own_support, refined, num_other_actions
            )
            if reconstructed is not None:
                return reconstructed
        # Inconclusive float answer or failed certification: exact path.
    return _exact_one_side(
        payoff_rows, own_support, other_support, num_other_actions
    )


def equilibrium_for_supports(
    game: BimatrixGame,
    row_support: Sequence[int],
    col_support: Sequence[int],
    backend: NumericBackend | None = None,
) -> tuple[MixedProfile, Fraction, Fraction] | None:
    """One exact equilibrium with the given supports, or None.

    Returns ``(profile, λ1, λ2)``.  The returned profile's supports may be
    *subsets* of the requested ones (a feasible point may put zero weight
    on a requested action); callers that need support-exact equilibria
    should compare :meth:`MixedProfile.supports`.  Whatever the search
    backend, the returned profile is exact (see :func:`solve_one_side`).
    """
    a = game.row_matrix
    b_cols = game.column_matrix_transposed
    n, m = game.action_counts

    # The column mix y makes the row support indifferent (uses A).
    y_solution = solve_one_side(a, row_support, col_support, m, backend=backend)
    if y_solution is None:
        return None
    # The row mix x makes the column support indifferent (uses B columns).
    x_solution = solve_one_side(b_cols, col_support, row_support, n, backend=backend)
    if x_solution is None:
        return None

    y, lambda1 = y_solution
    x, lambda2 = x_solution
    profile = MixedProfile((x, y))
    return profile, lambda1, lambda2


def support_pairs(
    n: int, m: int, equal_size_only: bool = False
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All candidate support pairs, smallest first (deterministic order)."""
    row_supports = [
        combo
        for size in range(1, n + 1)
        for combo in itertools.combinations(range(n), size)
    ]
    col_supports = [
        combo
        for size in range(1, m + 1)
        for combo in itertools.combinations(range(m), size)
    ]
    for rs in row_supports:
        for cs in col_supports:
            if equal_size_only and len(rs) != len(cs):
                continue
            yield rs, cs


def _search_backend(game: BimatrixGame, policy) -> NumericBackend | None:
    """The policy's screening backend for this game; None means exact."""
    n, m = game.action_counts
    backend = resolve_policy(policy).search_backend(n + m)
    return None if backend.exact else backend


def _float_payoffs(game: BimatrixGame, backend: NumericBackend):
    """``A`` and ``B^T`` as floats, once per solve: float64 arrays for a
    stacked screen, plain lists for the scalar one."""
    a_float = float_matrix(game.row_matrix)
    b_cols_float = float_matrix(game.column_matrix_transposed)
    if backend.batched_screen:
        return np.array(a_float), np.array(b_cols_float)
    return a_float, b_cols_float


def _certified(game: BimatrixGame, profile: MixedProfile) -> bool:
    """The exact certification gate every search candidate passes through."""
    from repro.equilibria.mixed import certify_mixed_profile

    return certify_mixed_profile(game, profile) is not None


def _reconstruct_candidate(game: BimatrixGame, rs, cs, verdict):
    """Stage 3 for one SCREEN_CANDIDATE verdict: the exact profile, or None.

    Exact support-restricted re-solves of both Lemma-1 sides on the
    refined supports the screen suggested; ``None`` (either side
    inconsistent, underdetermined, or side-condition-violating) sends
    the pair to the authoritative exact LP.
    """
    __, refined_cols, refined_rows = verdict
    n, m = game.action_counts
    y_side = reconstruct_one_side(game.row_matrix, rs, refined_cols, m)
    if y_side is None:
        return None
    x_side = reconstruct_one_side(
        game.column_matrix_transposed, cs, refined_rows, n
    )
    if x_side is None:
        return None
    return MixedProfile((x_side[0], y_side[0]))


# ----------------------------------------------------------------------
# Stage 2: the approximate screen (runs in workers when sharded)
# ----------------------------------------------------------------------

#: Screen verdict codes — plain ints so chunk results pickle trivially.
SCREEN_PRUNED = 0      # confidently infeasible: drop the pair
SCREEN_CANDIDATE = 1   # feasible both sides: carries refined supports
SCREEN_EXACT = 2       # inconclusive: re-decide the pair exactly


def _variable_keys(num_own: int, own_support, other_support):
    """Stable identities for one side-system's columns.

    Basis reuse across neighbouring support pairs needs to know which
    column in the *new* system corresponds to a basic column of the
    *old* one; position is meaningless across systems, so columns are
    keyed by meaning: the mix variable of an opponent action, λ⁺/λ⁻, or
    the slack of one of our off-support actions.
    """
    keys = [("q", j) for j in other_support]
    keys.append(("L", "+"))
    keys.append(("L", "-"))
    own = set(own_support)
    keys.extend(("s", i) for i in range(num_own) if i not in own)
    return keys


def _one_action_apart(prev_own, prev_other, own, other) -> bool:
    """True when at most one action was added, removed, or swapped."""
    delta = len(set(prev_own) ^ set(own)) + len(set(prev_other) ^ set(other))
    return delta <= 2


class _SideScreener:
    """Sequential one-side screening with warm-started bases.

    Used on backends without a batched screen (the stdlib float
    backend).  After each feasible pair the final simplex basis is
    remembered under the column keys of :func:`_variable_keys`; when the
    next pair is at most one action away, the old basis is remapped onto
    the new system (swapped actions substitute for each other) and tried
    as a crash basis — one small square solve instead of a full phase-1
    run.  Any miss falls back to the cold screen, so warm starts change
    cost, never verdicts' soundness.
    """

    def __init__(self, backend: NumericBackend, float_rows):
        self._backend = backend
        self._rows = float_rows
        self._num_own = len(float_rows)
        self._prev = None  # (own, other, basis_keys)

    def _warm_columns(self, own, other, keys):
        if self._prev is None:
            return None
        # Underdetermined sides (fewer indifference equations than mix
        # variables) have many feasible vertices; a warm basis may land
        # on a different one than the cold simplex, which on degenerate
        # games changes *which* exact equilibrium the pair yields.  Warm
        # starts are therefore restricted to sides whose Lemma-1 system
        # generically pins a unique mix — there, any feasible point is
        # the same point, and reuse changes cost but never answers.
        if len(own) < len(other):
            return None
        prev_own, prev_other, prev_keys = self._prev
        if not prev_keys or not _one_action_apart(prev_own, prev_other, own, other):
            return None
        # Swapped actions map onto each other, kind for kind.
        swaps = {}
        gone_q = sorted(set(prev_other) - set(other))
        new_q = sorted(set(other) - set(prev_other))
        if len(gone_q) == len(new_q):
            swaps.update(
                {("q", g): ("q", a) for g, a in zip(gone_q, new_q)}
            )
        prev_off = set(range(self._num_own)) - set(prev_own)
        off = set(range(self._num_own)) - set(own)
        gone_s = sorted(prev_off - off)
        new_s = sorted(off - prev_off)
        if len(gone_s) == len(new_s):
            swaps.update(
                {("s", g): ("s", a) for g, a in zip(gone_s, new_s)}
            )
        key_to_col = {key: col for col, key in enumerate(keys)}
        columns = []
        for key in prev_keys:
            if key not in key_to_col:
                key = swaps.get(key)
                if key is None or key not in key_to_col:
                    return None
            columns.append(key_to_col[key])
        return columns

    def screen(self, own, other):
        """Feasible point, ``None``, or :data:`INCONCLUSIVE` for one side."""
        rows, rhs, __ = _feasibility_rows(self._rows, own, other, 0.0, 1.0)
        keys = _variable_keys(self._num_own, own, other)
        warm_columns = self._warm_columns(own, other, keys)
        if warm_columns is not None:
            point = self._backend.try_basis(rows, rhs, warm_columns)
            if point is not None:
                self._prev = (own, other, [keys[c] for c in warm_columns])
                return point
        try:
            solved = self._backend.find_feasible_basis(rows, rhs)
        except BackendError:
            self._prev = None
            return INCONCLUSIVE
        if solved is None:
            self._prev = None
            return None
        point, basis_columns = solved
        self._prev = (own, other, [keys[c] for c in basis_columns])
        return point


def _refine(point, other_support, support_tol):
    """The support a screened feasible point actually stands on."""
    return tuple(
        j for idx, j in enumerate(other_support) if point[idx] > support_tol
    )


def _triage(y_point, x_point, rs, cs, support_tol):
    """Map one pair's two side-points to a screen verdict.

    Shared by the batched and scalar screens so the verdict encoding
    cannot diverge between them.  ``x_point`` may be omitted (None is
    ambiguous, so the caller passes it only when the y-side survived).
    """
    if y_point is None or x_point is None:
        return (SCREEN_PRUNED,)
    if y_point is INCONCLUSIVE or x_point is INCONCLUSIVE:
        return (SCREEN_EXACT,)
    return (
        SCREEN_CANDIDATE,
        _refine(y_point, cs, support_tol),
        _refine(x_point, rs, support_tol),
    )


def _side_stack(payoffs, own_supports, other_supports):
    """One side's Lemma-1 systems for many support pairs, as one stack.

    System ``s`` is exactly ``_feasibility_rows(payoffs, own_supports[s],
    other_supports[s], 0.0, 1.0)`` — rows in order own support, its
    complement, then sum-to-one; columns mix, λ⁺, λ⁻, slacks — built as
    float64 ndarrays with no per-pair lists, and zero-padded on the right
    to the widest system.  ``payoffs`` is a float64 array.  Returns
    ``(a, b, widths)`` for :meth:`NumpyBackend.screen_feasible`.
    """
    num_own, num_other = payoffs.shape
    count = len(own_supports)
    own_sizes = np.fromiter(map(len, own_supports), np.intp, count)
    mix_sizes = np.fromiter(map(len, other_supports), np.intp, count)
    widths = mix_sizes + 2 + num_own - own_sizes
    max_mix = int(mix_sizes.max())

    # Row order: the own support, then its complement.  Mix columns are
    # padded with an index into an appended zero column.
    orders: dict[tuple, tuple] = {}
    for own in own_supports:
        if own not in orders:
            orders[own] = own + tuple(i for i in range(num_own) if i not in own)
    perm = np.fromiter(
        itertools.chain.from_iterable(map(orders.__getitem__, own_supports)),
        np.intp, count * num_own,
    ).reshape(count, num_own)
    cols = np.full((count, max_mix), num_other, dtype=np.intp)
    cols[np.arange(max_mix) < mix_sizes[:, None]] = np.fromiter(
        itertools.chain.from_iterable(other_supports), np.intp,
        int(mix_sizes.sum()),
    )
    padded = np.zeros((num_own, num_other + 1))
    padded[:, :num_other] = payoffs

    a = np.zeros((count, num_own + 1, int(widths.max())))
    a[:, :num_own, :max_mix] = padded[perm[:, :, None], cols[:, None, :]]
    systems = np.arange(count)[:, None]
    own_rows = np.arange(num_own)[None, :]
    a[systems, own_rows, mix_sizes[:, None]] = -1.0      # λ⁺
    a[systems, own_rows, mix_sizes[:, None] + 1] = 1.0   # λ⁻
    slack_of, slack_row = np.nonzero(own_rows >= own_sizes[:, None])
    a[slack_of, slack_row,
      mix_sizes[slack_of] + 2 + slack_row - own_sizes[slack_of]] = 1.0
    a[:, num_own, :max_mix] = np.arange(max_mix) < mix_sizes[:, None]
    b = np.zeros((count, num_own + 1))
    b[:, num_own] = 1.0
    return a, b, widths


def screen_support_chunk(payload):
    """Screen one chunk of support pairs; plain data in, plain data out.

    ``payload`` is ``(backend, a_float, b_cols_float, pairs)``.  Returns
    one verdict per pair, in order: ``(SCREEN_PRUNED,)``,
    ``(SCREEN_CANDIDATE, refined_cols, refined_rows)`` or
    ``(SCREEN_EXACT,)``.  This is the sharding unit — it is a top-level
    function over picklable values so a process pool can run it, and it
    performs no exact arithmetic at all: certification never leaves the
    parent process.

    Backends with a stacked screen take float64 payoff arrays and decide
    all y-sides of the chunk as one stack (:func:`_side_stack`), then
    all x-sides of the survivors as another; scalar backends take float
    lists and screen pair by pair with warm-started bases.
    """
    backend, a_float, b_cols_float, pairs = payload
    support_tol = backend.support_tol
    if backend.batched_screen:
        row_supports = [rs for rs, __ in pairs]
        col_supports = [cs for __, cs in pairs]
        y_points = backend.screen_feasible(
            *_side_stack(a_float, row_supports, col_supports)
        ) if pairs else []
        survivors = [
            idx for idx, point in enumerate(y_points)
            if point is not None and point is not INCONCLUSIVE
        ]
        x_points = {}
        if survivors:
            x_points = dict(zip(survivors, backend.screen_feasible(
                *_side_stack(
                    b_cols_float,
                    [col_supports[idx] for idx in survivors],
                    [row_supports[idx] for idx in survivors],
                )
            )))
        return [
            _triage(
                y_points[idx],
                x_points.get(idx, INCONCLUSIVE) if y_points[idx] is not None
                else None,
                rs, cs, support_tol,
            )
            for idx, (rs, cs) in enumerate(pairs)
        ]

    y_screener = _SideScreener(backend, a_float)
    x_screener = _SideScreener(backend, b_cols_float)
    verdicts = []
    for rs, cs in pairs:
        y_point = y_screener.screen(rs, cs)
        x_point = None
        if y_point is not None and y_point is not INCONCLUSIVE:
            x_point = x_screener.screen(cs, rs)
        elif y_point is INCONCLUSIVE:
            x_point = INCONCLUSIVE  # the pair is exact-bound either way
        verdicts.append(_triage(y_point, x_point, rs, cs, support_tol))
    return verdicts


# ----------------------------------------------------------------------
# Stages 3 + 4: exact reconstruction and certification (parent only)
# ----------------------------------------------------------------------


def _resolve_screened_pair(game, rs, cs, verdict):
    """Turn one screen verdict into an exact result (or None).

    Everything here is Fractions: candidates reconstruct through the
    support-restricted exact re-solve and pass the Lemma-1 gate; any
    failure — and any inconclusive screen — re-decides the pair on the
    seed's exact LP.  Pruned pairs were rejected with a clear margin and
    cost nothing further.
    """
    if verdict[0] == SCREEN_PRUNED:
        return None
    if verdict[0] == SCREEN_CANDIDATE:
        profile = _reconstruct_candidate(game, rs, cs, verdict)
        if profile is not None and _certified(game, profile):
            return profile
        # Reconstruction or certification failed: the screen suggested
        # supports the exact side conditions reject.  Fall through to
        # the authoritative exact decision for this pair.
    result = equilibrium_for_supports(game, rs, cs)
    return result[0] if result is not None else None


#: Chunk size for *scalar* screening when only the first hit matters:
#: a lazy scan usually resolves within the first few pairs, so big
#: chunks would screen ~1000 pairs it never looks at.  The vectorized
#: screen keeps DEFAULT_CHUNK_SIZE — stack width is its whole speedup.
SCALAR_FIND_CHUNK_SIZE = 16


def _screened_verdict_waves(game, backend, pair_stream, chunk_size, executor):
    """Stream screened waves ``[((rs, cs), verdict), ...]`` in pair order.

    Pairs come off the generator wave by wave (one chunk per worker, a
    single chunk when serial), so the exponential pair space is never
    materialized and memory is bounded by the in-flight wave.  Chunk
    boundaries depend only on ``chunk_size``, and verdicts are yielded
    strictly in pair order whatever the pool's completion order — the
    two determinism invariants callers rely on.  Yielding whole waves
    (rather than single pairs) lets the enumeration certify each wave's
    surviving candidates as one batch.
    """
    a_float, b_cols_float = _float_payoffs(game, backend)
    wave_width = max(1, getattr(executor, "workers", 1)) if executor else 1
    while True:
        wave = [
            chunk
            for chunk in (
                list(itertools.islice(pair_stream, chunk_size))
                for __ in range(wave_width)
            )
            if chunk
        ]
        if not wave:
            return
        payloads = [(backend, a_float, b_cols_float, chunk) for chunk in wave]
        if executor is None:
            verdict_lists = [
                screen_support_chunk(payload) for payload in payloads
            ]
        else:
            verdict_lists = executor.map_chunks(screen_support_chunk, payloads)
        yield [
            pair_verdict
            for chunk, verdicts in zip(wave, verdict_lists)
            for pair_verdict in zip(chunk, verdicts)
        ]


def _screened_pairs(game, backend, pair_stream, chunk_size, executor):
    """Flattened :func:`_screened_verdict_waves` (for first-hit scans)."""
    for wave in _screened_verdict_waves(
        game, backend, pair_stream, chunk_size, executor
    ):
        yield from wave


def _resolve_screened_wave(game, wave, seen, out):
    """Stages 3+4 for one wave: batch-certify, then resolve in pair order.

    All of the wave's SCREEN_CANDIDATE verdicts are reconstructed first
    and certified through one :func:`~repro.equilibria.mixed.certify_many`
    batch (one integer-lattice resolution for the whole wave); pairs
    whose candidate failed either step — and every SCREEN_EXACT pair —
    are then re-decided by the authoritative exact LP, strictly in pair
    order, so results are identical to the pair-at-a-time path.
    """
    from repro.equilibria.mixed import certify_many

    candidates: list[MixedProfile] = []
    candidate_of: dict[int, int] = {}
    for idx, ((rs, cs), verdict) in enumerate(wave):
        if verdict[0] == SCREEN_CANDIDATE:
            profile = _reconstruct_candidate(game, rs, cs, verdict)
            if profile is not None:
                candidate_of[idx] = len(candidates)
                candidates.append(profile)
    certified = certify_many(game, candidates)
    for idx, ((rs, cs), verdict) in enumerate(wave):
        if verdict[0] == SCREEN_PRUNED:
            continue
        profile = None
        slot = candidate_of.get(idx)
        if slot is not None:
            profile = certified[slot]
        if profile is None:
            # Inconclusive screen, failed reconstruction, or failed
            # certification: the exact LP decides the pair.
            result = equilibrium_for_supports(game, rs, cs)
            profile = result[0] if result is not None else None
        if profile is not None and profile.distributions not in seen:
            seen.add(profile.distributions)
            out.append(profile)


def support_enumeration(
    game: BimatrixGame,
    equal_size_only: bool = False,
    policy=None,
    executor=None,
) -> tuple[MixedProfile, ...]:
    """All equilibria found by support enumeration, deduplicated.

    With ``equal_size_only`` the search restricts to equal-cardinality
    supports — complete for non-degenerate games and much faster; the
    default scans every pair, which also picks up degenerate equilibria
    such as the Fig. 5 continuum's extreme points.

    ``policy`` selects the numeric search backend and sharding
    (``None``/"exact" is the seed behaviour; "float+certify" screens
    support pairs one at a time in float64; "numpy" screens whole stacks
    of pairs vectorized; "sharded" additionally fans screening chunks
    across worker processes).  ``executor`` optionally supplies a live
    :class:`~repro.equilibria.executors.ShardedExecutor` so a stream of
    enumeration runs (e.g. a batch consultation) shares one worker pool;
    when omitted, the policy's worker count decides and any pool is
    scoped to this call.

    Soundness is unconditional in every mode: nothing uncertified is
    ever returned, and exact certification runs only in the calling
    process.  *Completeness* of the approximate screens is heuristic:
    they row-equilibrate and treat only clear margins as infeasible
    (anything borderline is re-decided exactly), but a knife-edge
    support pair whose feasibility margin sits below float resolution
    can in principle be pruned.  Callers that must not miss any
    equilibrium use the exact policy.  Results are deterministic for
    every worker count.
    """
    resolved = resolve_policy(policy)
    backend = _search_backend(game, resolved)
    n, m = game.action_counts
    seen: set[tuple] = set()
    out: list[MixedProfile] = []

    if backend is None:
        # The seed path: exact LP per pair, no screen, no executor, and
        # no materialization — pairs stream straight off the generator.
        for rs, cs in support_pairs(n, m, equal_size_only=equal_size_only):
            result = equilibrium_for_supports(game, rs, cs)
            if result is None:
                continue
            profile = result[0]
            if profile.distributions not in seen:
                seen.add(profile.distributions)
                out.append(profile)
        return tuple(out)

    chunk_size = resolved.chunk_size or DEFAULT_CHUNK_SIZE
    pair_stream = support_pairs(n, m, equal_size_only=equal_size_only)
    own_executor = executor is None
    if own_executor and resolved.resolved_workers() > 1:
        executor = make_executor(resolved.resolved_workers())
    try:
        for wave in _screened_verdict_waves(
            game, backend, pair_stream, chunk_size, executor
        ):
            _resolve_screened_wave(game, wave, seen, out)
    finally:
        if own_executor and executor is not None:
            executor.close()
    return tuple(out)


def find_one_equilibrium(
    game: BimatrixGame, policy=None, executor=None
) -> MixedProfile:
    """The first equilibrium support enumeration finds (smallest support).

    Every finite game has one (Nash 1950), so exhausting the support pairs
    without a hit indicates an internal error — or, on an approximate
    search backend, an over-aggressive screen; in that case the scan is
    repeated on the exact path before concluding anything.

    Screening is chunked and *lazy*: pairs stream off the generator one
    wave at a time and the scan stops inside the first wave containing a
    certified equilibrium, so the exponential pair space is never
    materialized.  With a sharded ``executor`` (or a policy asking for
    one) each wave fans one chunk per worker across the pool; candidates
    are still resolved strictly in pair order, so the returned
    equilibrium is identical for every worker count — wave width only
    changes how much screening beyond the answer is wasted.
    """
    resolved = resolve_policy(policy)
    backend = _search_backend(game, resolved)
    n, m = game.action_counts
    if backend is None:
        for rs, cs in support_pairs(n, m):
            result = equilibrium_for_supports(game, rs, cs)
            if result is not None:
                return result[0]
        raise EquilibriumError(
            "support enumeration found no equilibrium; "
            "this contradicts Nash's theorem"
        )

    if resolved.chunk_size:
        chunk_size = resolved.chunk_size
    elif backend.batched_screen:
        chunk_size = DEFAULT_CHUNK_SIZE
    else:
        chunk_size = SCALAR_FIND_CHUNK_SIZE
    pair_stream = support_pairs(n, m)
    own_executor = executor is None
    if own_executor and resolved.resolved_workers() > 1:
        executor = make_executor(resolved.resolved_workers())
    try:
        for (rs, cs), verdict in _screened_pairs(
            game, backend, pair_stream, chunk_size, executor
        ):
            profile = _resolve_screened_pair(game, rs, cs, verdict)
            if profile is not None:
                return profile
    finally:
        if own_executor and executor is not None:
            executor.close()
    # The approximate screen may have pruned a knife-edge support pair;
    # the exact rescan is the authoritative answer.
    return find_one_equilibrium(game)
