"""Pluggable numeric backends: search fast, certify exact.

The paper's central asymmetry — *finding* an equilibrium is PPAD-hard
while *verifying* one is cheap and must be exact — maps onto a two-phase
solver pipeline:

1. **Search** runs on a :class:`NumericBackend`.  The
   :class:`ExactBackend` is the seed behaviour (Fraction Gaussian
   elimination and simplex, authoritative by construction).  The
   :class:`FloatBackend` runs the same algorithms in float64 with pivot
   tolerances — orders of magnitude faster because rational coefficient
   growth is the dominant cost of exact pivoting.
2. **Certification** is always exact.  Every candidate a float search
   produces is reconstructed as Fractions (support-restricted exact
   re-solve) and checked against the exact Lemma-1 conditions before it
   is returned; candidates that fail are recomputed on the exact path.
   No approximate value ever escapes the solver layer.

:class:`BackendPolicy` names the three modes callers can request —
``"exact"``, ``"float+certify"`` and ``"auto"`` — and is what the core
layer plumbs through advice packages and the audit log.

Float routines here are stdlib-only (plain lists of floats, no numpy).
A float backend signals an *inconclusive* solve by raising
:class:`~repro.errors.BackendError`; pipeline callers treat that exactly
like a certification failure and fall back to the exact path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import BackendError, LinearAlgebraError
from repro.linalg import int_exact as _int_exact
from repro.linalg import int_lp as _lp

#: The backend modes the core layer can request per advice package.
MODE_EXACT = "exact"
MODE_FLOAT_CERTIFY = "float+certify"
MODE_NUMPY = "numpy"
MODE_AUTO = "auto"
BACKEND_MODES = (MODE_EXACT, MODE_FLOAT_CERTIFY, MODE_NUMPY, MODE_AUTO)

#: Executor names a policy can resolve to (see BackendPolicy.workers).
EXECUTOR_SERIAL = "serial"
EXECUTOR_SHARDED = "sharded"
EXECUTOR_NAMES = (EXECUTOR_SERIAL, EXECUTOR_SHARDED)


#: Default threshold below which a probability in an approximate
#: solution is read as "off the support" when solvers extract candidate
#: supports for exact reconstruction.  This is *the* support tolerance:
#: every backend exposes it as :attr:`NumericBackend.support_tol`
#: (exact backends keep the default but never consult it), so all
#: phases of a pipeline run share one threshold instead of each module
#: shadowing its own copy.
DEFAULT_SUPPORT_TOL = 1e-7

#: Sentinel a batched screen returns for a system it could not decide
#: (the list-level analogue of raising :class:`BackendError`).  Callers
#: must re-decide such systems on the exact path.
INCONCLUSIVE = type("_Inconclusive", (), {
    "__repr__": lambda self: "INCONCLUSIVE",
    "__reduce__": lambda self: (_inconclusive_singleton, ()),
})()


def _inconclusive_singleton():
    """Unpickle :data:`INCONCLUSIVE` to the same identity-comparable object."""
    return INCONCLUSIVE


class NumericBackend:
    """The solver-facing arithmetic seam.

    A backend answers the two numeric questions the equilibrium searches
    ask: "solve this square system" and "find a nonnegative feasible
    point of ``Ax = b``".  Exact backends answer authoritatively; float
    backends answer quickly and may raise :class:`BackendError` when the
    numerics are inconclusive.

    :meth:`try_basis` completes the seam for the staged candidate
    engine: it attempts a crash solve from a known-good basis so
    enumeration loops can warm-start neighbouring support pairs.
    Vectorized backends (``batched_screen``) add ``screen_feasible``,
    which decides a whole ndarray stack of feasibility systems at once;
    the candidate engine uses it instead of warm-started scalar solves.
    """

    #: Human-readable backend name, recorded in audit logs and benches.
    name: str = "abstract"
    #: The resolved policy-mode string this backend answers for (what
    #: advice packages and the audit log record).
    mode: str = "exact"
    #: True iff results need no downstream certification.
    exact: bool = True
    #: Off-support threshold shared by every search/reconstruction phase.
    support_tol: float = DEFAULT_SUPPORT_TOL
    #: True iff the backend has a stacked ``screen_feasible`` (see
    #: :class:`~repro.linalg.numpy_backend.NumpyBackend`); screening
    #: loops use warm-started scalar solves when it does not.
    batched_screen: bool = False

    def solve_square(self, matrix: Sequence[Sequence], rhs: Sequence):
        raise NotImplementedError

    def find_feasible_point(
        self, a_eq: Sequence[Sequence], b_eq: Sequence,
        upper_bounds: Sequence | None = None,
    ):
        raise NotImplementedError

    def try_basis(self, a_eq: Sequence[Sequence], b_eq: Sequence,
                  basis_columns: Sequence[int]):
        """Crash solve: the basic solution of ``Ax = b`` for a given basis.

        ``basis_columns`` selects one column per constraint row.  If the
        basis matrix is nonsingular and the induced basic solution is
        nonnegative, the full feasible point is returned; otherwise
        ``None`` (the caller falls back to a cold feasibility solve).
        This is the warm-start primitive: a neighbouring support pair's
        final basis very often stays feasible when one action changes.
        """
        nrows = len(a_eq)
        ncols = len(a_eq[0]) if a_eq else 0
        columns = list(basis_columns)
        if len(columns) != nrows or len(set(columns)) != nrows:
            return None
        if any(not 0 <= c < ncols for c in columns):
            return None
        sub = [[row[c] for c in columns] for row in a_eq]
        try:
            basic_values = self.solve_square(sub, b_eq)
        except (BackendError, LinearAlgebraError):
            return None
        tol = 0 if self.exact else self.support_tol
        if any(v < -tol for v in basic_values):
            return None
        zero = basic_values[0] * 0 if basic_values else 0
        point = [zero] * ncols
        for c, v in zip(columns, basic_values):
            # Clip the tolerated tiny negatives so callers see x >= 0.
            point[c] = v if (self.exact or v > 0) else zero
        return point


class ExactBackend(NumericBackend):
    """The seed semantics, bit for bit — on the fraction-free kernel.

    Square solves run integer Bareiss elimination
    (:mod:`repro.linalg.int_exact`), which returns exactly the Fractions
    the seed's Fraction-arithmetic elimination did, just without its
    per-step gcd normalization; LP feasibility stays on the exact
    simplex.
    """

    name = "exact"
    mode = MODE_EXACT
    exact = True

    def solve_square(self, matrix, rhs):
        return _int_exact.solve_square(matrix, rhs)

    def find_feasible_point(self, a_eq, b_eq, upper_bounds=None):
        return _lp.find_feasible_point(a_eq, b_eq, upper_bounds=upper_bounds)


class FloatBackend(NumericBackend):
    """float64 elimination and two-phase simplex with pivot tolerances.

    ``feastol`` separates "confidently infeasible" from "inconclusive":
    a phase-1 optimum above ``feastol`` rejects the system, one within
    ``(pivot_tol, feastol]`` raises :class:`BackendError` so the caller
    re-decides exactly.  ``max_iterations`` caps simplex pivoting (the
    float path uses Dantzig's rule, which is fast but not anti-cycling);
    hitting the cap is likewise inconclusive, never an answer.

    ``support_tol`` overrides :data:`DEFAULT_SUPPORT_TOL` per instance;
    it lives on the backend so all phases of a pipeline run share one
    set of tolerances (solvers must consult ``backend.support_tol``
    rather than shadowing their own constants).
    """

    name = "float64"
    mode = MODE_FLOAT_CERTIFY
    exact = False

    def __init__(self, feastol: float = 1e-7, pivot_tol: float = 1e-9,
                 max_iterations: int | None = None,
                 support_tol: float = DEFAULT_SUPPORT_TOL):
        if feastol <= 0 or pivot_tol <= 0 or support_tol <= 0:
            raise LinearAlgebraError("tolerances must be positive")
        self.feastol = float(feastol)
        self.pivot_tol = float(pivot_tol)
        self.support_tol = float(support_tol)
        self.max_iterations = max_iterations

    # ------------------------------------------------------------------
    # Square solves
    # ------------------------------------------------------------------

    def solve_square(self, matrix, rhs):
        a = [[float(x) for x in row] for row in matrix]
        b = [float(x) for x in rhs]
        n = len(a)
        if any(len(row) != n for row in a):
            raise LinearAlgebraError("solve_square requires a square matrix")
        if len(b) != n:
            raise LinearAlgebraError("rhs length does not match matrix")
        scale = max((abs(x) for row in a for x in row), default=1.0) or 1.0
        for col in range(n):
            pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
            if abs(a[pivot][col]) <= self.pivot_tol * scale:
                raise BackendError("float pivot below tolerance (near-singular)")
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
            inv = 1.0 / a[col][col]
            for r in range(n):
                if r != col and a[r][col] != 0.0:
                    factor = a[r][col] * inv
                    arow, prow = a[r], a[col]
                    for j in range(col, n):
                        arow[j] -= factor * prow[j]
                    b[r] -= factor * b[col]
        return [b[i] / a[i][i] for i in range(n)]

    # ------------------------------------------------------------------
    # Feasibility (two-phase simplex over floats)
    # ------------------------------------------------------------------

    def find_feasible_point(self, a_eq, b_eq, upper_bounds=None):
        a = [[float(x) for x in row] for row in a_eq]
        b = [float(x) for x in b_eq]
        ncols = len(a[0]) if a else 0
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
        solved = self._phase1(a, b)
        if solved is None:
            return None
        return solved[0][:ncols]

    def find_feasible_basis(
        self, a_eq: Sequence[Sequence], b_eq: Sequence,
    ) -> tuple[list[float], list[int]] | None:
        """Like :meth:`find_feasible_point` but also returns the final basis.

        Returns ``(point, basis_columns)`` where ``basis_columns`` has
        one structural-column index per constraint row, or ``None`` when
        confidently infeasible.  A basis that still contains a phase-1
        artificial (possible on degenerate systems) is reported as
        unusable by raising nothing and returning an empty basis list —
        callers treat an empty basis as "no warm-start hint".  No upper
        bounds here: the warm-start path is for plain ``Ax = b, x >= 0``
        screens.
        """
        a = [[float(x) for x in row] for row in a_eq]
        b = [float(x) for x in b_eq]
        ncols = len(a[0]) if a else 0
        solved = self._phase1(a, b)
        if solved is None:
            return None
        point, basis = solved
        if any(var >= ncols for var in basis):
            return point[:ncols], []  # artificial left basic: no hint
        return point[:ncols], list(basis)

    def _phase1(self, a, b) -> tuple[list[float], list[int]] | None:
        """``(x, basis)`` of ``Ax = b, x >= 0`` or None (raises if unsure)."""
        nrows = len(a)
        ncols = len(a[0]) if a else 0
        if any(len(row) != ncols for row in a):
            raise LinearAlgebraError("LP constraint matrix has ragged rows")
        if len(b) != nrows:
            raise LinearAlgebraError("LP rhs length does not match constraints")
        a = [row[:] for row in a]
        b = b[:]
        # Row equilibration: divide each constraint by its largest
        # coefficient so the absolute tolerances below act relatively.
        # Feasibility of {Ax = b, x >= 0} is unchanged, but a system with
        # payoffs in the billions no longer swamps a 1e-7 feastol.
        for i in range(nrows):
            scale = max(max(abs(x) for x in a[i]), abs(b[i])) if a[i] else abs(b[i])
            if scale > 0.0:
                inv = 1.0 / scale
                a[i] = [x * inv for x in a[i]]
                b[i] *= inv
        for i in range(nrows):
            if b[i] < 0.0:
                a[i] = [-x for x in a[i]]
                b[i] = -b[i]
        total = ncols + nrows
        tableau = [
            a[i] + [1.0 if j == i else 0.0 for j in range(nrows)] + [b[i]]
            for i in range(nrows)
        ]
        basis = list(range(ncols, ncols + nrows))
        # Phase-1 objective row: minimize the sum of artificials.
        objective = [0.0] * ncols + [1.0] * nrows + [0.0]
        for i in range(nrows):
            for j in range(total + 1):
                objective[j] -= tableau[i][j]
        cap = self.max_iterations or (64 + 16 * (nrows + ncols))
        for _iteration in range(cap):
            entering = None
            best = -self.pivot_tol
            for j in range(total):
                if objective[j] < best:  # Dantzig: most negative reduced cost
                    best = objective[j]
                    entering = j
            if entering is None:
                break
            leaving = None
            best_ratio = None
            for i in range(nrows):
                coef = tableau[i][entering]
                if coef > self.pivot_tol:
                    ratio = tableau[i][-1] / coef
                    if (
                        best_ratio is None
                        or ratio < best_ratio - self.pivot_tol
                        or (abs(ratio - best_ratio) <= self.pivot_tol
                            and basis[i] < basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving is None:
                raise BackendError("float phase-1 unbounded (numerical trouble)")
            self._pivot(tableau, basis, objective, leaving, entering, total)
        else:
            raise BackendError("float simplex hit its iteration cap")
        infeasibility = -objective[-1]
        if infeasibility > self.feastol:
            return None  # confidently infeasible
        if infeasibility > self.pivot_tol:
            raise BackendError("float phase-1 optimum too close to tolerance")
        x = [0.0] * total
        for i, var in enumerate(basis):
            x[var] = tableau[i][-1]
        return x, basis

    @staticmethod
    def _pivot(tableau, basis, objective, row_idx, col_idx, total):
        inv = 1.0 / tableau[row_idx][col_idx]
        tableau[row_idx] = [x * inv for x in tableau[row_idx]]
        pivot_row = tableau[row_idx]
        for i in range(len(tableau)):
            if i != row_idx and tableau[i][col_idx] != 0.0:
                factor = tableau[i][col_idx]
                tableau[i] = [x - factor * y for x, y in zip(tableau[i], pivot_row)]
        factor = objective[col_idx]
        if factor != 0.0:
            for j in range(total + 1):
                objective[j] -= factor * pivot_row[j]
        basis[row_idx] = col_idx


#: Shared default instances — the backends are stateless between solves.
EXACT_BACKEND = ExactBackend()
FLOAT_BACKEND = FloatBackend()

# The numpy-vectorized backend is optional: the library must run (and
# the stdlib float path must screen) on a bare interpreter.  Importing
# it here keeps the gating in one place; everything downstream asks
# this module, never numpy itself.
try:
    from repro.linalg.numpy_backend import NumpyBackend

    NUMPY_BACKEND: NumericBackend | None = NumpyBackend()
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    NumpyBackend = None  # type: ignore[assignment]
    NUMPY_BACKEND = None


def numpy_available() -> bool:
    """True iff the vectorized numpy backend imported successfully."""
    return NUMPY_BACKEND is not None


def _best_approximate_backend() -> NumericBackend:
    """The fastest available non-exact backend (numpy if importable)."""
    return NUMPY_BACKEND if NUMPY_BACKEND is not None else FLOAT_BACKEND


@dataclass(frozen=True)
class BackendPolicy:
    """Which backend — and how many shards — a solver run should search on.

    ``auto`` sizes the decision: small systems pivot exactly about as
    fast as they certify, so auto keeps them on the exact path and
    switches to approximate search once the action-count hint reaches
    ``auto_threshold`` (total actions, n + m for a bimatrix game).
    Approximate ``auto`` search prefers the vectorized numpy backend and
    falls back to the stdlib float backend when numpy is unavailable;
    ``mode="numpy"`` requested explicitly falls back the same way, so a
    policy never fails to resolve on a bare interpreter.

    ``workers`` selects the screening executor: ``1`` screens in
    process (``serial``); ``> 1`` shards support-pair chunks across that
    many worker processes (``sharded``); ``0`` means "one worker per
    CPU".  ``chunk_size`` overrides the deterministic chunking used by
    both executors (the default is picked by the enumeration layer);
    results are identical for every worker count by construction.
    """

    mode: str = MODE_EXACT
    auto_threshold: int = 10
    workers: int = 1
    chunk_size: int | None = None

    def __post_init__(self):
        if self.mode not in BACKEND_MODES:
            raise LinearAlgebraError(
                f"unknown backend mode {self.mode!r}; expected one of {BACKEND_MODES}"
            )
        if self.auto_threshold < 0:
            raise LinearAlgebraError("auto_threshold must be non-negative")
        if self.workers < 0:
            raise LinearAlgebraError("workers must be non-negative (0 = one per CPU)")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise LinearAlgebraError("chunk_size must be positive")

    def search_backend(self, size_hint: int = 0) -> NumericBackend:
        """The backend candidate search should run on for this size."""
        if self.mode == MODE_EXACT:
            return EXACT_BACKEND
        if self.mode == MODE_FLOAT_CERTIFY:
            return FLOAT_BACKEND
        if self.mode == MODE_NUMPY:
            return _best_approximate_backend()
        if size_hint >= self.auto_threshold:
            return _best_approximate_backend()
        return EXACT_BACKEND

    def resolved_workers(self) -> int:
        """The concrete worker count (``0`` resolved to the CPU count)."""
        if self.workers == 0:
            import os

            return max(1, os.cpu_count() or 1)
        return self.workers


#: Canonical policy instances.
EXACT_POLICY = BackendPolicy(MODE_EXACT)
FLOAT_CERTIFY_POLICY = BackendPolicy(MODE_FLOAT_CERTIFY)
NUMPY_POLICY = BackendPolicy(MODE_NUMPY)
AUTO_POLICY = BackendPolicy(MODE_AUTO)
#: "sharded" as a mode string: vectorized search, one worker per CPU.
SHARDED_POLICY = BackendPolicy(MODE_NUMPY, workers=0)

_POLICY_BY_MODE = {
    MODE_EXACT: EXACT_POLICY,
    MODE_FLOAT_CERTIFY: FLOAT_CERTIFY_POLICY,
    MODE_NUMPY: NUMPY_POLICY,
    MODE_AUTO: AUTO_POLICY,
    "sharded": SHARDED_POLICY,
}


def resolve_policy(policy) -> BackendPolicy:
    """Normalize ``None`` / mode string / policy object to a policy.

    ``None`` means the seed behaviour: everything exact.  Mode strings
    accept the four backend modes plus ``"sharded"`` (numpy search,
    process-pool screening with one worker per CPU).
    """
    if policy is None:
        return EXACT_POLICY
    if isinstance(policy, BackendPolicy):
        return policy
    if isinstance(policy, str):
        try:
            return _POLICY_BY_MODE[policy]
        except KeyError:
            raise LinearAlgebraError(
                f"unknown backend mode {policy!r}; expected one of "
                f"{BACKEND_MODES + ('sharded',)}"
            ) from None
    raise LinearAlgebraError(f"cannot interpret backend policy {policy!r}")


def float_matrix(rows: Sequence[Sequence]) -> list[list[float]]:
    """Convert a rational matrix to plain float lists for the search phase."""
    return [[float(x) for x in row] for row in rows]
