"""A small deterministic semidefinite-program solver.

A program comes in canonical form, as a ``ConicProgram``: over real
coordinates x, split into PSD blocks (each the ``svec`` of a Hermitian
matrix) and free entries,

    minimize    c.x + offset
    subject to  A x = b,  every PSD block of x in the PSD cone.

Callers state A by its rows, as SDPT3 takes its constraint data (Toh, Todd
& Tutuncu, Optim. Methods Softw. 11, 1999).  One eigendecomposition of A
A^T over A's nonzero rows gives an orthonormal basis Q of its row space and
t with Q t the least-norm solution of A x = b; when A (Q t) misses b the
program is "infeasible" after 0 iterations.  Otherwise a primal-dual
interior-point method solves Q^T x = t on the homogeneous self-dual
embedding (Ye, Todd & Mizuno, Math. Oper. Res. 19, 1994) from x = s =
identity blocks, y = 0, tau = kappa = 1: HKM directions with Mehrotra's
predictor-corrector, as in SDPT3.  A direction solves the Schur matrix
Q_K^T E Q_K, E(V) = sym(X V S^-1) on the blocks, bordered by the free
columns, for two right-hand sides, then one scalar equation for d tau; both
sides take one step, 0.98 of the way to the cone boundary (at most 1).
Q's rows on each block side are unpacked to Hermitian matrices once per
solve.

Before each step the point x/tau, y/tau, s/tau is tested.  It is "optimal"
when A x = b holds to ``tol_feas`` (1 + max|b|), c - Q y = s to
``tol_feas`` (1 + max|c|), and the two values differ by at most
``tol_gap`` (1 + |c.x| + |t.y|), a scale without the objective offset.
It is "infeasible" when t.y > 0 and |Q y + s| <= ``tol_feas`` t.y, and
"unbounded" when c.x < 0 and |Q^T x| <= ``tol_feas`` |c.x|: rays the
embedding reaches as tau -> 0.  Otherwise it is "max_iters", after
``max_iters`` steps or a failed factorization.  ``iterations`` counts
interior-point steps.  Each late step cuts the gap about fifty-fold, so
the default ``tol_gap`` of 1e-9 costs a step over 1e-7 and puts a zero
optimum within 1e-9.  The variables are blocks of x/tau, and
``psd_duals[k]``, from s/tau, is the dual block of the k-th PSD block.

Everything is dense numpy; intended for matrix blocks up to 64 x 64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .linalg import _TO_BOUNDARY, hermitianize

MAX_BLOCK_SIDE = 64

_SQRT2 = np.sqrt(2.0)


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


@dataclass(frozen=True, eq=False)
class ConicProgram:
    """One program in canonical form: minimize c.x + offset subject to
    A x = b, over real coordinates x split into PSD blocks and free entries.

    ``psd`` holds the (columns, side) of each PSD block, as a slice of x
    that is the ``svec`` of a side x side Hermitian matrix, in the order of
    ``SdpSolution.psd_duals``; every other column is free.  ``variables``
    maps each named variable to its (columns, side), read back as
    ``SdpSolution.variables``.  Rows of A may be zero or dependent:
    ``solve`` reduces them to A's row space and tests once whether A x = b
    is consistent.
    """

    c: np.ndarray
    offset: float
    a: np.ndarray
    b: np.ndarray
    psd: tuple[tuple[slice, int], ...]
    variables: dict[str, tuple[slice, int]]

    @property
    def n(self) -> int:
        return self.c.size

    @functools.cached_property
    def cones(self) -> dict[int, np.ndarray]:
        """Each block side's (blocks, side**2) array of column indices."""
        by_side: dict[int, list[np.ndarray]] = {}
        for block, side in self.psd:
            by_side.setdefault(side, []).append(np.arange(block.start, block.stop))
        return {side: np.array(cols) for side, cols in by_side.items()}

    @functools.cached_property
    def free(self) -> np.ndarray:
        """The columns outside every PSD block."""
        free = np.ones(self.n, dtype=bool)
        for block, _ in self.psd:
            free[block] = False
        return np.flatnonzero(free)


@dataclass
class SolverOptions:
    tol_gap: float = 1e-9
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


def _row_space(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis Q of A's row space, and t with Q t = A^+ b.

    Both come from the eigendecomposition A A^T = U diag(w) U^T over A's
    nonzero rows, keeping the eigenvalues above 1e-12 of the largest:
    Q = A^T U diag(w^-1/2) and t = diag(w^-1/2) U^T b.  A zero row with a
    nonzero target is left to the caller's consistency test of Q t.
    """
    rows = np.flatnonzero(np.any(a != 0.0, axis=1))
    a, b = a[rows], b[rows]
    w, u = np.linalg.eigh(a @ a.T)
    keep = w > np.max(w, initial=0.0) * 1e-12 + 1e-300
    scale = 1.0 / np.sqrt(w[keep])
    return (a.T @ u[:, keep]) * scale, scale * (u[:, keep].T @ b)


def solve(program: ConicProgram, options: SolverOptions | None = None) -> SdpSolution:
    """Solve a ConicProgram; deterministic for fixed inputs and options."""
    opts = options or SolverOptions()
    if opts.max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {opts.max_iters}")
    for _, side in program.psd:
        if not 1 <= side <= MAX_BLOCK_SIDE:
            raise ValueError(f"block side {side} outside 1..{MAX_BLOCK_SIDE}")
    a, b = program.a, program.b
    q, t = _row_space(a, b)
    b_scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    if np.max(np.abs(a @ (q @ t) - b), initial=0.0) > 1e-9 * b_scale:
        return SdpSolution(
            "infeasible", float("nan"), float("nan"),
            {name: np.zeros((side, side), dtype=complex) for name, (_, side) in program.variables.items()},
            [np.zeros((side, side), dtype=complex) for _, side in program.psd],
            dict.fromkeys(("primal_feas", "dual_feas", "gap"), float("inf")),
        )

    c, offset = program.c, program.offset
    c_scale = 1.0 + float(np.max(np.abs(c), initial=0.0))
    # Per block side: its columns and the Hermitian stack of Q's rows on them.
    cones = [
        (side, cols, unsvec(np.moveaxis(q[cols], -1, 0), side))
        for side, cols in program.cones.items()
    ]
    x = np.zeros(program.n)
    for side, cols, _ in cones:
        x[cols] = svec(np.eye(side))
    y, s, tau, kappa = np.zeros(t.size), x.copy(), 1.0, 1.0
    status = "max_iters"
    for it in range(opts.max_iters + 1):
        cx, ty = float(c @ x), float(t @ y)
        primal_value, dual_value = cx / tau + offset, ty / tau + offset
        primal_feas = float(np.max(np.abs(a @ x - tau * b), initial=0.0)) / tau
        dual_feas = float(np.max(np.abs(tau * c - q @ y - s), initial=0.0)) / tau
        gap = abs(cx - ty) / (tau + abs(cx) + abs(ty))
        if max(primal_feas / b_scale, dual_feas / c_scale) <= opts.tol_feas and gap <= opts.tol_gap:
            status = "optimal"
        elif ty > 0 and np.max(np.abs(q @ y + s), initial=0.0) <= opts.tol_feas * ty:
            status = "infeasible"
        elif cx < 0 and np.max(np.abs(q.T @ x), initial=0.0) <= opts.tol_feas * -cx:
            status = "unbounded"
        if status != "max_iters" or it == opts.max_iters:
            break
        try:
            x, y, s, tau, kappa = _step(program, cones, q, t, x, y, s, tau, kappa)
        except np.linalg.LinAlgError:
            break

    x, s = x / tau, s / tau
    return SdpSolution(
        status, primal_value, dual_value,
        {name: unsvec(x[block], side) for name, (block, side) in program.variables.items()},
        [unsvec(s[block], side) for block, side in program.psd],
        {"primal_feas": primal_feas, "dual_feas": dual_feas, "gap": gap}, it,
    )


def _step(program, cones, q, t, x, y, s, tau, kappa):
    """The next (x, y, s, tau, kappa) after one HKM predictor-corrector step
    on Q^T x = tau t, tau c - Q y = s, t.y - c.x = kappa from an interior
    point (x, s in the cone, s zero on the free columns, tau, kappa > 0).
    ``cones`` holds each block side's columns and Q's rows on them as a
    Hermitian stack."""
    c, free = program.c, program.free
    n, m = q.shape
    r_p, r_d, r_g = q.T @ x - tau * t, tau * c - q @ y - s, float(t @ y - c @ x) - kappa
    # Per block side: its columns, X, L^H for X = L L^H, the inverses of the
    # Cholesky factors of X and S (one stack) and their adjoints, S^-1, and
    # Q's rows.
    blocks = []
    for side, cols, q_rows in cones:
        pair = unsvec(np.concatenate([x[cols], s[cols]]), side)
        chol = np.linalg.cholesky(pair)
        root = np.linalg.inv(chol)
        chol_h, root_h, k = chol.conj().swapaxes(-1, -2), root.conj().swapaxes(-1, -2), len(cols)
        blocks.append((side, cols, pair[:k], chol_h[:k], root, root_h, root_h[k:] @ root[k:], q_rows))

    def scale(v):
        """E(V) = sym(X V S^-1) on each block, zero on the free columns."""
        out = np.zeros(n)
        for side, cols, xs, _, _, _, s_inv, _ in blocks:
            out[cols] = svec(hermitianize(xs @ unsvec(v[cols], side) @ s_inv))
        return out

    # The Schur matrix Q_K^T E Q_K.  With X = L L^H and S^-1 = R^H R,
    # <U, E(V)> = Re <L^H U R^H, L^H V R^H>: a Gram matrix of real rows.
    schur = np.zeros((m, m))
    for _, cols, _, chol_h, _, root_h, _, q_rows in blocks:
        rows = chol_h @ q_rows @ root_h[len(cols):]
        rows = rows.reshape(m, chol_h.size).view(float)
        schur += rows @ rows.T
    kkt = np.block([[schur, q[free].T], [q[free], np.zeros((free.size, free.size))]])
    c_scaled = scale(c)
    per_dtau = np.concatenate([t + q.T @ c_scaled, c[free]])
    mu = (float(x @ s) + tau * kappa) / (sum(side * len(cols) for side, cols, *_ in blocks) + 1)

    def direction(eta, targets, tk):
        """Step length and step towards the HKM targets T (dX = T - X -
        sym(X dS S^-1)) and tau kappa = tk that cuts the residuals by the
        fraction eta of a full step."""
        r = np.zeros(n)
        for (side, cols, *_), target in zip(blocks, targets):
            r[cols] = svec(target) - x[cols]
        # the second column is the part of [dy; dx_F] per unit of dtau
        rhs = np.concatenate([q.T @ (eta * scale(r_d) - r) - eta * r_p, eta * r_d[free]])
        rhs = np.stack([rhs, per_dtau], axis=1)
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:  # singular at a degenerate optimum
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        dy, dx_free, ds = sol[:m], sol[m:], -(q @ sol[:m])
        ds[:, 0] += eta * r_d
        ds[:, 1] += c
        ds[free] = 0.0
        # t.dy - c.dx - dkappa = -eta r_g and kappa dtau + tau dkappa = tk -
        # tau kappa fix dtau, with c.dx = c.r - E(c).ds + c_F.dx_F.
        tk -= tau * kappa
        dot = t @ dy + c_scaled @ ds - c[free] @ dx_free
        dtau = float((tk / tau - eta * r_g + c @ r - dot[0]) / (dot[1] + kappa / tau))
        dkappa = (tk - kappa * dtau) / tau
        ds = ds[:, 0] + dtau * ds[:, 1]
        dx = r - scale(ds)
        dx[free] = dx_free[:, 0] + dtau * dx_free[:, 1]
        lowest = min(dtau / tau, dkappa / kappa)
        for side, cols, _, _, root, root_h, _, _ in blocks:
            ratios = root @ unsvec(np.concatenate([dx[cols], ds[cols]]), side) @ root_h
            lowest = min(lowest, float(np.linalg.eigvalsh(ratios).min()))
        # 1 when lowest >= -0.98, else -0.98 / lowest.
        alpha = -_TO_BOUNDARY / min(lowest, -_TO_BOUNDARY)
        return alpha, dx, dy[:, 0] + dtau * dy[:, 1], ds, dtau, dkappa

    alpha, dx, _, ds, dtau, dkappa = direction(1.0, [np.zeros_like(b[2]) for b in blocks], 0.0)
    reached = (x + alpha * dx) @ (s + alpha * ds) + (tau + alpha * dtau) * (kappa + alpha * dkappa)
    sigma = float(reached / (x @ s + tau * kappa)) ** 3
    targets = [
        sigma * mu * s_inv - hermitianize(unsvec(dx[cols], side) @ unsvec(ds[cols], side) @ s_inv)
        for side, cols, *_, s_inv, _ in blocks
    ]
    alpha, dx, dy, ds, dtau, dkappa = direction(1.0 - sigma, targets, sigma * mu - dtau * dkappa)
    return x + alpha * dx, y + alpha * dy, s + alpha * ds, tau + alpha * dtau, kappa + alpha * dkappa
