"""The numpy-vectorized search backend: dense tableaus, stacked screens.

This module is the vectorized float arm of the two-phase pipeline.  It
implements the same numeric contract as the stdlib
:class:`~repro.linalg.backend.FloatBackend` — answers are *suggestions*,
anything borderline is inconclusive, and certification downstream is
always exact — but stages the work for hardware:

* :meth:`NumpyBackend.solve_square` runs float64 Gaussian elimination
  with partial pivoting as whole-matrix numpy operations, guarded by a
  condition-number check (near-singular systems are inconclusive, never
  answers);
* :meth:`NumpyBackend.find_feasible_point` runs a dense-tableau phase-1
  simplex whose pivots are rank-1 ndarray updates;
* :meth:`NumpyBackend.screen_feasible` is the screening entry point the
  support-enumeration engine drives: it takes one side's Lemma-1
  systems for a whole chunk of support pairs as *one* ndarray stack and
  pivots them simultaneously — one entering/leaving/ratio computation
  per iteration for the whole stack, which is where the bulk-rejection
  speedup over one-at-a-time screening comes from.  Systems narrower
  than the stack are padded with zero columns after their own; a zero
  column never enters the basis, so padding changes no verdict, and
  each system keeps the iteration cap of its own shape.

Tolerance discipline mirrors the stdlib backend exactly: a phase-1
optimum above ``feastol`` is confidently infeasible; one inside
``(pivot_tol, feastol]`` is inconclusive (:data:`INCONCLUSIVE` in stack
answers, :class:`BackendError` in scalar ones); hitting the iteration
cap is likewise inconclusive.  No result of this module is ever returned
to a caller of the solver layer without exact reconstruction and the
Lemma-1 gate.

This module imports numpy unconditionally; :mod:`repro.linalg.backend`
gates the import so the rest of the library keeps working (and the
stdlib float path keeps screening) when numpy is absent.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BackendError, LinearAlgebraError
from repro.linalg.backend import (
    DEFAULT_SUPPORT_TOL,
    INCONCLUSIVE,
    MODE_NUMPY,
    FloatBackend,
)

#: Most systems one pivot stack holds; :meth:`NumpyBackend.screen_feasible`
#: pivots a larger stack in slices of this many.  Bounds the working set
#: (tableau, ratio and update temporaries) whatever the chunk size.
STACK_LIMIT = 256


class NumpyBackend(FloatBackend):
    """Vectorized float64 search with batched feasibility screening.

    Subclasses :class:`FloatBackend` so the tolerance semantics (and the
    basis-returning scalar simplex used for warm starts) are shared; the
    square solver and the feasibility path are overridden with ndarray
    implementations, and :meth:`screen_feasible` adds the stacked
    screen.  ``max_condition`` bounds the condition number a
    square solve will vouch for — anything worse is inconclusive.
    """

    name = "numpy"
    mode = MODE_NUMPY
    exact = False
    batched_screen = True

    def __init__(self, feastol: float = 1e-7, pivot_tol: float = 1e-9,
                 max_iterations: int | None = None,
                 support_tol: float = DEFAULT_SUPPORT_TOL,
                 max_condition: float = 1e12):
        super().__init__(feastol=feastol, pivot_tol=pivot_tol,
                         max_iterations=max_iterations,
                         support_tol=support_tol)
        if max_condition <= 0:
            raise LinearAlgebraError("max_condition must be positive")
        self.max_condition = float(max_condition)

    # ------------------------------------------------------------------
    # Square solves
    # ------------------------------------------------------------------

    def solve_square(self, matrix, rhs):
        try:
            a = np.asarray(
                [[float(x) for x in row] for row in matrix], dtype=np.float64
            )
        except ValueError:
            raise LinearAlgebraError("solve_square requires a square matrix") from None
        b = np.asarray([float(x) for x in rhs], dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise LinearAlgebraError("solve_square requires a square matrix")
        if b.shape != (a.shape[0],):
            raise LinearAlgebraError("rhs length does not match matrix")
        if a.size == 0:
            return []
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            raise BackendError("numpy solve: singular matrix") from None
        if not np.all(np.isfinite(x)):
            raise BackendError("numpy solve produced non-finite values")
        # Near-singular systems solve without error but cannot be
        # vouched for; the condition estimate is the analogue of the
        # stdlib backend's pivot-below-tolerance test.
        condition = np.linalg.cond(a)
        if not np.isfinite(condition) or condition > self.max_condition:
            raise BackendError("numpy solve: matrix condition beyond tolerance")
        return x.tolist()

    # ------------------------------------------------------------------
    # Scalar feasibility (a stack of one through the dense tableau)
    # ------------------------------------------------------------------

    def find_feasible_point(self, a_eq, b_eq, upper_bounds=None):
        a = [[float(x) for x in row] for row in a_eq]
        b = [float(x) for x in b_eq]
        ncols = len(a[0]) if a else 0
        if any(len(row) != ncols for row in a):
            raise LinearAlgebraError("LP constraint matrix has ragged rows")
        if len(b) != len(a):
            raise LinearAlgebraError("LP rhs length does not match constraints")
        if upper_bounds is not None:
            ubs = [float(u) for u in upper_bounds]
            if len(ubs) != ncols:
                raise LinearAlgebraError("upper bound length does not match variables")
            nslack = len(ubs)
            for row in a:
                row.extend([0.0] * nslack)
            for j, u in enumerate(ubs):
                bound_row = [0.0] * (ncols + nslack)
                bound_row[j] = 1.0
                bound_row[ncols + j] = 1.0
                a.append(bound_row)
                b.append(u)
        stack = np.asarray([a], dtype=np.float64) if a else np.zeros((1, 0, ncols))
        outcome = self._phase1_stack(
            stack,
            np.asarray([b], dtype=np.float64).reshape(1, -1),
            np.asarray([self._iteration_cap(stack.shape[1], stack.shape[2])]),
        )[0]
        if outcome is INCONCLUSIVE:
            raise BackendError("numpy phase-1 inconclusive")
        if outcome is None:
            return None
        return list(outcome[:ncols])

    # ------------------------------------------------------------------
    # Stacked screening
    # ------------------------------------------------------------------

    def _iteration_cap(self, nrows, widths):
        """Pivot budget per system: ``max_iterations``, else one scaled
        to the system's *own* size (``widths`` may be an int array)."""
        if self.max_iterations:
            return np.zeros_like(widths) + self.max_iterations
        return 64 + 16 * (nrows + widths)

    def screen_feasible(self, a, b, widths=None) -> list:
        """Decide a stack of ``Ax = b, x >= 0`` systems, pivoted together.

        ``a`` is a ``(systems, rows, cols)`` float64 stack and ``b`` its
        ``(systems, rows)`` right-hand sides.  ``widths`` gives each
        system's own column count (default: all ``cols``); the columns
        past it must be zero.  That padding cannot change a verdict: a
        zero column's reduced cost stays exactly 0, so it never enters;
        row equilibration takes a max, which zeros do not move; and the
        artificials keep labels above every structural column, so the
        smallest-label ratio tie-break picks the same row.  Each system
        keeps the iteration cap its unpadded shape would get.

        Returns one entry per system, in order: the feasible point's
        first ``width`` coordinates, ``None`` (confidently infeasible)
        or :data:`INCONCLUSIVE`.  Stacks larger than :data:`STACK_LIMIT`
        pivot in slices of that many systems, which bounds the working
        set; a slice cannot change an answer, since systems never
        interact.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 3 or b.shape != a.shape[:2]:
            raise LinearAlgebraError(
                "screen_feasible: stack and rhs shapes disagree"
            )
        count, nrows, ncols = a.shape
        if widths is None:
            widths = np.full(count, ncols)
        else:
            widths = np.asarray(widths, dtype=np.intp)
            if widths.shape != (count,) or np.any(widths < 0) or \
                    np.any(widths > ncols):
                raise LinearAlgebraError("screen_feasible: bad system widths")
            padding = np.arange(ncols) >= widths[:, None]
            if np.any((a != 0.0).any(axis=1) & padding):
                raise LinearAlgebraError(
                    "screen_feasible: nonzero entry past a system's width"
                )
        caps = self._iteration_cap(nrows, widths)
        outcomes: list = []
        for start in range(0, count, STACK_LIMIT):
            stop = start + STACK_LIMIT
            outcomes.extend(
                self._phase1_stack(a[start:stop], b[start:stop], caps[start:stop])
            )
        return [
            outcome if outcome is None or outcome is INCONCLUSIVE
            else outcome[:width]
            for outcome, width in zip(outcomes, widths.tolist())
        ]

    def _phase1_stack(self, a: np.ndarray, b: np.ndarray,
                      caps: np.ndarray) -> list:
        """Phase-1 simplex over a (systems, rows, cols) stack in lockstep.

        Returns one entry per system: the structural part of the final
        point on feasibility, ``None`` on confident infeasibility,
        :data:`INCONCLUSIVE` otherwise.  ``caps`` holds each system's
        pivot budget; a system still pivoting when its budget runs out
        is inconclusive.  The Dantzig entering rule and the
        smallest-basis-label ratio tie-break make every trajectory
        deterministic, so how systems are stacked (and hence any
        sharding) cannot change answers.
        """
        batch, nrows, ncols = a.shape
        if batch == 0:
            return []
        if nrows == 0:
            return [np.zeros(ncols)] * batch

        # The tableau [A | I | b] is allocated once and filled in place.
        total = ncols + nrows
        tableau = np.zeros((batch, nrows, total + 1))
        structural = tableau[:, :, :ncols]
        rhs = tableau[:, :, total]
        structural[...] = a
        rhs[...] = b
        # Row equilibration, exactly as the stdlib backend: relative
        # tolerances via per-row scaling, then flip rows negative on b.
        scale = np.maximum(
            np.abs(a).max(axis=2) if ncols else 0.0, np.abs(b)
        )
        scale[scale == 0.0] = 1.0
        structural /= scale[:, :, None]
        rhs /= scale
        flip = rhs < 0.0
        structural[flip] = -structural[flip]
        rhs[flip] = -rhs[flip]
        diagonal = np.arange(nrows)
        tableau[:, diagonal, ncols + diagonal] = 1.0

        basis = np.tile(np.arange(ncols, total), (batch, 1))
        # Phase-1 objective: minimize the artificial sum.  Reduced-cost
        # row = artificial costs minus the sum of all constraint rows.
        objective = np.zeros((batch, total + 1))
        objective[:, ncols:total] = 1.0
        objective -= tableau.sum(axis=1)

        # The stack pivots in lockstep but systems finish at different
        # times; finished systems are *compacted out* of the working
        # arrays (not masked), so per-iteration cost tracks the number
        # of still-undecided systems, not the original batch size.
        results: list = [INCONCLUSIVE] * batch
        origin = np.arange(batch)

        def keep_only(keep: np.ndarray) -> None:
            nonlocal tableau, objective, basis, origin, caps
            tableau = tableau[keep]
            objective = objective[keep]
            basis = basis[keep]
            origin = origin[keep]
            caps = caps[keep]

        def finalize(keep: np.ndarray) -> None:
            """Record answers for optimal systems not in ``keep``."""
            done = ~keep
            if done.any():
                infeasibility = -objective[done, -1]
                points = np.zeros((infeasibility.size, total))
                points[np.arange(infeasibility.size)[:, None], basis[done]] = (
                    tableau[done, :, -1]
                )
                for pos, index in enumerate(origin[done].tolist()):
                    if infeasibility[pos] > self.feastol:
                        results[index] = None  # confidently infeasible
                    elif infeasibility[pos] > self.pivot_tol:
                        results[index] = INCONCLUSIVE  # too close to call
                    else:
                        results[index] = points[pos, :ncols]
            keep_only(keep)

        update_buffer = np.empty_like(tableau)  # rank-1 updates, reused
        for iteration in range(int(caps.max())):
            within = caps > iteration
            if not within.all():
                keep_only(within)  # out of budget: stays INCONCLUSIVE
            if origin.size == 0:
                break
            reduced = objective[:, :total]
            entering = reduced.argmin(axis=1)
            alive = np.arange(origin.size)
            best = reduced[alive, entering]
            still = best < -self.pivot_tol
            if not still.all():
                finalize(still)
                if origin.size == 0:
                    break
                entering = entering[still]
                alive = np.arange(origin.size)

            column = tableau[alive, :, entering]
            positive = column > self.pivot_tol
            bounded = positive.any(axis=1)
            if not bounded.all():
                keep_only(bounded)  # unbounded ray: numerical trouble
                if origin.size == 0:
                    continue
                entering = entering[bounded]
                column = column[bounded]
                positive = positive[bounded]
                alive = np.arange(origin.size)

            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(
                    positive, tableau[:, :, -1] / column, np.inf
                )
            best_ratio = ratios.min(axis=1)
            # Ties within pivot_tol break on the smallest basis label —
            # the deterministic anti-stalling rule of the stdlib backend.
            tied = positive & (ratios <= best_ratio[:, None] + self.pivot_tol)
            labels = np.where(tied, basis, total + 1)
            leaving = labels.argmin(axis=1)

            pivot_coef = column[alive, leaving]
            pivot_rows = tableau[alive, leaving] / pivot_coef[:, None]
            update = update_buffer[:origin.size]
            np.multiply(column[:, :, None], pivot_rows[:, None, :], out=update)
            tableau -= update
            tableau[alive, leaving] = pivot_rows
            obj_coef = objective[alive, entering]
            objective -= obj_coef[:, None] * pivot_rows
            basis[alive, leaving] = entering
        # Whatever is still pivoting at its cap stays INCONCLUSIVE.
        return results
