"""A small deterministic semidefinite-program solver.

Problems are stated over Hermitian matrix variables as

    minimize    sum_v tr(C_v X_v) + offset
    subject to  linear operator equalities   sum_v L(X_v) = B
                semidefinite constraints     sum_v L(X_v) + F >= 0

and solved by a consensus ADMM splitting in real ``svec`` coordinates: the
iteration alternates an exact projection onto the affine constraint set
{x : A x = b} with a projection onto the product of semidefinite cones (the
blocks of one side form one stack, with one batched eigendecomposition per
block side), plus the usual scaled dual update, over-relaxation, and
residual-balancing penalty updates.

The affine step is ``x = w - Q (Q^T w - t)``, with Q an orthonormal basis
of A's row space and ``Q t`` the least-norm solution of ``A x = b``; both
come from one eigendecomposition of ``A A^T`` before the first iteration,
which also decides whether ``A x = b`` is consistent at all.  Since
``w - x`` lies in the row space, the dual is read off the step at penalty
rho: the dual slack ``s = c + rho (w - x)`` equals ``c - A^T y`` for a dual
vector y, so dual feasibility only needs a cone distance, and the reported
``dual_value`` ``b^T y + offset`` equals ``offset - rho x.(w - x)``.  The
Hermitian dual block attached to each semidefinite constraint is available
through ``extract_dual_witness`` (for the constraint ``X >= F`` this is the
PSD matrix pairing with ``F`` in the dual objective).

Everything is dense numpy; intended for matrix blocks up to 64 x 64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg import hermitianize, psd_part

MAX_BLOCK_SIDE = 64

_SQRT2 = np.sqrt(2.0)

# ADMM: initial penalty, over-relaxation, iterations between residual checks
# (every fourth rebalances the penalty), feasibility mark of the stall rule.
_RHO = 1.0
_OVER_RELAXATION = 1.7
_CHECK_EVERY = 25
_STALL_TOLERANCE = 1e-4


@functools.lru_cache(maxsize=None)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the strict upper triangle."""
    rows, cols = np.triu_indices(n, 1)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def svec(m: np.ndarray) -> np.ndarray:
    """Isometric real coordinates of a Hermitian matrix, or of a stack of them.

    Maps shape ``(..., n, n)`` to ``(..., n * n)``.  Layout: the n real
    diagonal entries, then sqrt(2) * real and sqrt(2) * imaginary parts of the
    strict upper triangle; the Euclidean inner product of two svecs equals the
    Hilbert-Schmidt inner product.
    """
    m = np.asarray(m)
    n = m.shape[-1]
    rows, cols = _upper_indices(n)
    out = np.empty(m.shape[:-2] + (n * n,))
    out[..., :n] = np.real(np.diagonal(m, axis1=-2, axis2=-1))
    k = n + rows.size
    upper = m[..., rows, cols]
    out[..., n:k] = _SQRT2 * np.real(upper)
    out[..., k:] = _SQRT2 * np.imag(upper)
    return out


def unsvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``svec``: shape ``(..., n * n)`` back to ``(..., n, n)``."""
    v = np.asarray(v, dtype=float)
    rows, cols = _upper_indices(n)
    m = np.zeros(v.shape[:-1] + (n, n), dtype=complex)
    diagonal = np.arange(n)
    m[..., diagonal, diagonal] = v[..., :n]
    k = n + rows.size
    upper = (v[..., n:k] + 1j * v[..., k:]) / _SQRT2
    m[..., rows, cols] = upper
    m[..., cols, rows] = upper.conj()
    return m


LinearTerm = tuple[str, "Callable[[np.ndarray], np.ndarray] | None", int]
# (variable name, real-linear map on Hermitian matrices or None for identity,
#  output matrix side)


@dataclass
class _PsdConstraint:
    terms: list[LinearTerm]
    offset: np.ndarray | None


@dataclass
class _EqConstraint:
    terms: list[LinearTerm]
    target: np.ndarray


class SdpProblem:
    """Container for one SDP; build with add_var / minimize / add_eq / add_psd."""

    def __init__(self):
        self.var_sides: dict[str, int] = {}
        self.objective: dict[str, np.ndarray] = {}
        self.objective_offset: float = 0.0
        self.equalities: list[_EqConstraint] = []
        self.psd_constraints: list[_PsdConstraint] = []

    def add_var(self, name: str, side: int) -> None:
        if name in self.var_sides:
            raise ValueError(f"variable {name!r} already declared")
        if not 1 <= side <= MAX_BLOCK_SIDE:
            raise ValueError(f"variable side {side} outside 1..{MAX_BLOCK_SIDE}")
        self.var_sides[name] = int(side)

    def minimize(self, terms: dict[str, np.ndarray], offset: float = 0.0) -> None:
        for name, coeff in terms.items():
            side = self._side(name)
            coeff = np.asarray(coeff, dtype=complex)
            if coeff.shape != (side, side):
                raise ValueError(f"objective coefficient for {name!r} has wrong shape")
            self.objective[name] = hermitianize(coeff)
        self.objective_offset = float(offset)

    def add_eq(self, terms: Sequence[LinearTerm], target: np.ndarray | float) -> None:
        terms = [self._check_term(t) for t in terms]
        out = terms[0][2]
        if np.isscalar(target):
            target = np.array([[target]], dtype=complex) if out == 1 else float(target) * np.eye(out)
        target = np.asarray(target, dtype=complex)
        if target.shape != (out, out):
            raise ValueError(f"equality target shape {target.shape} != ({out}, {out})")
        self.equalities.append(_EqConstraint(terms, hermitianize(target)))

    def add_psd(self, terms: Sequence[LinearTerm], offset: np.ndarray | None = None) -> int:
        """Constrain sum of terms plus offset to the PSD cone; returns its index."""
        terms = [self._check_term(t) for t in terms]
        out = terms[0][2]
        if offset is not None:
            offset = hermitianize(np.asarray(offset, dtype=complex))
            if offset.shape != (out, out):
                raise ValueError(f"psd offset shape {offset.shape} != ({out}, {out})")
        self.psd_constraints.append(_PsdConstraint(terms, offset))
        return len(self.psd_constraints) - 1

    def _side(self, name: str) -> int:
        if name not in self.var_sides:
            raise ValueError(f"unknown variable {name!r}")
        return self.var_sides[name]

    def _check_term(self, term: LinearTerm) -> LinearTerm:
        name, fn, out = term
        self._side(name)
        if not 1 <= int(out) <= MAX_BLOCK_SIDE:
            raise ValueError(f"constraint block side {out} outside 1..{MAX_BLOCK_SIDE}")
        return (name, fn, int(out))


@dataclass
class SolverOptions:
    tol_gap: float = 1e-7
    tol_feas: float = 1e-8
    max_iters: int = 200_000


@dataclass
class SdpSolution:
    status: str  # optimal | max_iters | infeasible | unbounded
    primal_value: float
    dual_value: float
    variables: dict[str, np.ndarray]
    psd_duals: list[np.ndarray]
    residuals: dict[str, float] = field(default_factory=dict)
    iterations: int = 0


def _materialize(fn, in_side: int, out_side: int) -> np.ndarray:
    """Real matrix of a Hermitian-to-Hermitian linear map in svec coordinates."""
    if fn is None:
        if in_side != out_side:
            raise ValueError("identity term needs equal input and output sides")
        return np.eye(in_side * in_side)
    basis = unsvec(np.eye(in_side * in_side), in_side)
    images = np.array([fn(m) for m in basis], dtype=complex)
    return svec(hermitianize(images)).T


class _Canonical:
    """Flattened conic form: min c.x s.t. A x = b, x split into PSD blocks
    and free entries.

    ``columns`` maps each variable name to its slice of x; every PSD
    constraint that is not a bare variable gets a slack block after the
    variables.  ``psd`` holds the (slice, side) of each PSD constraint's
    block, in constraint order.  ``cones`` maps each block side to the
    (blocks, side**2) array of column indices of its blocks, and ``free``
    indexes every other column.  A and b keep every row the constraints
    produce, identically zero rows included: ``solve`` steps within A's row
    space and tests once whether A x = b is consistent.
    """

    def __init__(self, problem: SdpProblem):
        sides = problem.var_sides
        self.columns: dict[str, slice] = {}
        width = 0
        for name, side in sides.items():
            self.columns[name] = slice(width, width + side * side)
            width += side * side

        # equality rows first, then one row block per slack: L(X) - S = -F
        plan = [(eq.terms, eq.target, None) for eq in problem.equalities]
        self.psd: list[tuple[slice, int]] = []
        in_cone: set[str] = set()
        for psd in problem.psd_constraints:
            name, fn, side = psd.terms[0]
            if len(psd.terms) == 1 and fn is None and psd.offset is None and name not in in_cone:
                in_cone.add(name)
                self.psd.append((self.columns[name], sides[name]))
            else:
                block = slice(width, width + side * side)
                width += side * side
                self.psd.append((block, side))
                target = -psd.offset if psd.offset is not None else np.zeros((side, side))
                plan.append((psd.terms, target, block))
        self.n = width

        rows, rhs = [np.zeros((0, width))], [np.zeros(0)]
        for terms, target, slack in plan:
            out = terms[0][2]
            block = np.zeros((out * out, width))
            for name, fn, term_out in terms:
                if term_out != out:
                    raise ValueError("mixed output sides inside one constraint")
                block[:, self.columns[name]] += _materialize(fn, sides[name], out)
            if slack is not None:
                block[:, slack] -= np.eye(out * out)
            rows.append(block)
            rhs.append(svec(target))
        self.a = np.concatenate(rows)
        self.b = np.concatenate(rhs)

        self.c = np.zeros(width)
        for name, coeff in problem.objective.items():
            self.c[self.columns[name]] = svec(coeff)
        self.c_offset = problem.objective_offset

        by_side: dict[int, list[np.ndarray]] = {}
        for block, side in self.psd:
            by_side.setdefault(side, []).append(np.arange(block.start, block.stop))
        self.cones = {side: np.array(cols) for side, cols in by_side.items()}
        free = np.ones(width, dtype=bool)
        for cols in self.cones.values():
            free[cols] = False
        self.free = np.flatnonzero(free)


def _cone_project(canon: _Canonical, v: np.ndarray) -> np.ndarray:
    """Project onto the product cone (free entries pass through)."""
    out = v.copy()
    for side, cols in canon.cones.items():
        out[cols] = svec(hermitianize(psd_part(unsvec(v[cols], side))))
    return out


def _cone_dual_distance(canon: _Canonical, s: np.ndarray) -> float:
    """Max-norm distance of s from the dual cone (zero for free entries)."""
    worst = float(np.max(np.abs(s[canon.free]), initial=0.0))
    for side, cols in canon.cones.items():
        w = np.linalg.eigvalsh(unsvec(s[cols], side))
        worst = max(worst, float(-np.min(w[:, 0])))
    return worst


def _row_space(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis Q of A's row space, and t with Q t = A^+ b.

    Both come from the eigendecomposition A A^T = U diag(w) U^T, keeping
    the eigenvalues above 1e-12 of the largest: Q = A^T U diag(w^-1/2) and
    t = diag(w^-1/2) U^T b.
    """
    w, u = np.linalg.eigh(a @ a.T)
    keep = w > np.max(w, initial=0.0) * 1e-12 + 1e-300
    scale = 1.0 / np.sqrt(w[keep])
    return (a.T @ u[:, keep]) * scale, scale * (u[:, keep].T @ b)


def solve(problem: SdpProblem, options: SolverOptions | None = None) -> SdpSolution:
    """Solve an SdpProblem; deterministic for fixed inputs and options."""
    opts = options or SolverOptions()
    if opts.max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {opts.max_iters}")
    canon = _Canonical(problem)
    q, t = _row_space(canon.a, canon.b)
    b_scale = 1.0 + float(np.max(np.abs(canon.b), initial=0.0))
    if np.max(np.abs(canon.a @ (q @ t) - canon.b), initial=0.0) > 1e-9 * b_scale:
        empty = {name: np.zeros((side, side), dtype=complex) for name, side in problem.var_sides.items()}
        return SdpSolution(
            status="infeasible",
            primal_value=float("nan"),
            dual_value=float("nan"),
            variables=empty,
            psd_duals=[np.zeros((side, side), dtype=complex) for _, side in canon.psd],
            residuals={"primal_feas": float("inf"), "dual_feas": float("inf"), "gap": float("inf")},
        )

    n = canon.n
    c = canon.c
    rho = _RHO

    z = np.zeros(n)
    u = np.zeros(n)

    c_scale = 1.0 + (float(np.max(np.abs(c))) if c.size else 0.0)

    best = None  # (score, snapshot)
    stall_counter = 0
    stall_best = np.inf
    stall_obj_start = 0.0
    stall_limit = max(1, int(0.1 * opts.max_iters / _CHECK_EVERY))

    status = "max_iters"
    iters_done = opts.max_iters

    for it in range(1, opts.max_iters + 1):
        w = z - u - c / rho
        x = w - q @ (q.T @ w - t)
        x_rel = _OVER_RELAXATION * x + (1.0 - _OVER_RELAXATION) * z
        z_prev = z
        z = _cone_project(canon, x_rel + u)
        u = u + x_rel - z

        if it % _CHECK_EVERY != 0 and it != opts.max_iters:
            continue

        s_tilde = c + rho * (w - x)
        primal_feas = float(np.max(np.abs(canon.a @ z - canon.b), initial=0.0))
        dual_feas = _cone_dual_distance(canon, s_tilde)
        obj_p = float(c @ z) + canon.c_offset
        obj_d = canon.c_offset - rho * float(x @ (w - x))
        gap = abs(obj_p - obj_d) / (1.0 + abs(obj_p) + abs(obj_d))

        score = max(primal_feas / b_scale, dual_feas / c_scale, gap)
        snapshot = (z.copy(), s_tilde.copy(), obj_p, obj_d, primal_feas, dual_feas, gap)
        if best is None or score < best[0]:
            best = (score, snapshot)

        if (
            primal_feas <= opts.tol_feas * b_scale
            and dual_feas <= opts.tol_feas * c_scale * 10
            and gap <= opts.tol_gap
        ):
            status = "optimal"
            iters_done = it
            best = (score, snapshot)
            break

        # objective diverging to -inf along feasible iterates: unbounded
        if obj_p < -1e9 * c_scale:
            status = "unbounded"
            iters_done = it
            best = (score, snapshot)
            break

        # persistent affine/cone disagreement: infeasible or unbounded ray
        feas_mark = max(primal_feas / b_scale, float(np.max(np.abs(x - z))) if n else 0.0)
        if feas_mark > _STALL_TOLERANCE:
            if feas_mark > stall_best * (1.0 - 1e-3):
                stall_counter += 1
            else:
                stall_counter = 0
                stall_obj_start = obj_p
            stall_best = min(stall_best, feas_mark)
            if stall_counter >= stall_limit:
                affine_ok = primal_feas <= 1e-2 * _STALL_TOLERANCE * b_scale
                diverging = obj_p < stall_obj_start - 10.0 * c_scale
                if affine_ok and diverging:
                    status = "unbounded"
                    iters_done = it
                    break
                if not affine_ok:
                    status = "infeasible"
                    iters_done = it
                    break
                stall_counter = 0  # slow but apparently convergent; keep going
        else:
            stall_counter = 0
            stall_obj_start = obj_p

        if it % (_CHECK_EVERY * 4) == 0:
            r_prim = float(np.linalg.norm(x - z))
            r_dual = float(np.linalg.norm(rho * (z - z_prev)))
            if r_prim > 10.0 * r_dual and rho < 1e4:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 10.0 * r_prim and rho > 1e-4:
                rho /= 2.0
                u *= 2.0

    z_best, s_best, obj_p, obj_d, primal_feas, dual_feas, gap = best[1]
    return SdpSolution(
        status=status,
        primal_value=obj_p,
        dual_value=obj_d,
        variables={
            name: unsvec(z_best[canon.columns[name]], side)
            for name, side in problem.var_sides.items()
        },
        psd_duals=[unsvec(s_best[block], side) for block, side in canon.psd],
        residuals={"primal_feas": primal_feas, "dual_feas": dual_feas, "gap": gap},
        iterations=iters_done,
    )


def extract_dual_witness(solution: SdpSolution, psd_index: int = 0) -> np.ndarray:
    """Hermitian dual block of the given semidefinite constraint.

    For a constraint of the form ``X >= F`` this is the PSD multiplier W
    maximizing ``tr(W F)`` in the dual program.
    """
    if not 0 <= psd_index < len(solution.psd_duals):
        raise ValueError(f"no psd constraint with index {psd_index}")
    return solution.psd_duals[psd_index]
