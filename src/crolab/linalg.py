"""Dense Hermitian linear algebra helpers shared by the rest of the package.

Everything here is a pure function on numpy arrays.  Matrices are complex,
row-major, and composite indices follow the convention that subsystem 0 is the
slow (leftmost) Kronecker factor: a bipartite index is ``i0 * d1 + i1``.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-9

# Fraction of the way to the cone boundary that an interior-point step takes
# (at most a full step), in both solvers: ``sdp`` and the robustness solver
# of ``measures``.
_TO_BOUNDARY = 0.98


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left factor slowest."""
    if not ops:
        raise ValueError("kron needs at least one operand")
    out = np.asarray(ops[0])
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op))
    return out


def is_hermitian(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def hermitianize(m: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (m + m†)/2, of a matrix or a stack."""
    m = np.asarray(m)
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def psd_part(m: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to a Hermitian matrix, or to each of a stack.

    The negative eigenvalues are set to zero.
    """
    w, v = np.linalg.eigh(m)
    return v @ (np.clip(w, 0.0, None)[..., None] * v.conj().swapaxes(-1, -2))


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: int | Sequence[int]) -> np.ndarray:
    """Trace out all subsystems except ``keep``.

    ``m`` is a square matrix on the tensor product of subsystems with local
    dimensions ``dims`` (subsystem 0 slowest).  ``keep`` is a subsystem index
    or a list of them; the result lives on the kept subsystems in their
    original order.  ``partial_trace(kron(a, b), [da, db], 0)`` equals
    ``tr(b) * a``.
    """
    m = np.asarray(m)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.ndim != 2 or m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    if isinstance(keep, (int, np.integer)):
        keep_set = {int(keep)}
    else:
        keep_set = {int(i) for i in keep}
    if not keep_set or not keep_set.issubset(range(len(dims))):
        raise ValueError(f"keep={keep!r} is not a valid subsystem subset for dims {dims}")

    t = m.reshape(dims + dims)
    for idx in sorted(set(range(len(dims))) - keep_set, reverse=True):
        half = t.ndim // 2
        t = np.trace(t, axis1=idx, axis2=idx + half)
    d_keep = int(np.prod([dims[i] for i in sorted(keep_set)]))
    return t.reshape(d_keep, d_keep)


def assert_density_matrix(rho: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Validate a density matrix, or each of a stack: Hermitian (which NaN
    fails), unit trace, PSD within tol.  A stack's error names the state."""
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"state is not Hermitian within tol={tol:g}")
    stack = rho.reshape(-1, *rho.shape[-2:])
    asym = np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)), axis=(1, 2))
    tr = np.trace(stack, axis1=1, axis2=2)
    tr_dev = np.abs(tr - 1.0)
    tr_tol = max(tol, 1e3 * np.finfo(float).eps * rho.shape[-1])
    w = np.linalg.eigvalsh(hermitianize(stack))[:, 0]
    for k in np.flatnonzero(~(asym <= tol) | (tr_dev > tr_tol) | (w < -tol))[:1]:
        state = f"state {k}" if rho.ndim > 2 else "state"
        if not asym[k] <= tol:
            raise ValueError(f"{state} is not Hermitian within tol={tol:g}")
        if tr_dev[k] > tr_tol:
            raise ValueError(f"{state} trace {complex(tr[k]):.12g} is not 1 within tol={tol:g}")
        raise ValueError(f"{state} has negative eigenvalue {w[k]:.3e} below -tol={-tol:g}")
    return rho


def dephase(m: np.ndarray, dims: Sequence[int], subsystems: Sequence[int]) -> np.ndarray:
    """Zero every entry whose row/column indices differ on ``subsystems``.

    This is the completely dephasing map applied to the listed subsystems of
    a composite matrix: ``dephase(m, [d], (0,))`` keeps only the diagonal,
    ``dephase(m, [d, d], (1,))`` dephases the fast factor only.
    """
    m = np.asarray(m)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
    mask = _dephase_mask(tuple(dims), tuple(sorted(int(s) for s in subsystems)))
    return m * mask


@functools.lru_cache(maxsize=None)
def _dephase_mask(dims: tuple[int, ...], subsystems: tuple[int, ...]) -> np.ndarray:
    """Read-only 0/1 mask keeping the entries whose indices agree on
    ``subsystems``."""
    if not set(subsystems).issubset(range(len(dims))):
        raise ValueError(f"subsystems {subsystems} out of range for dims {dims}")
    total = int(np.prod(dims))
    idx = np.arange(total)
    digits = []
    rem = idx
    for d in reversed(dims):
        digits.append(rem % d)
        rem = rem // d
    digits = digits[::-1]  # digits[k] = index of subsystem k, slow first
    mask = np.ones((total, total), dtype=float)
    for s in subsystems:
        mask *= (digits[s][:, None] == digits[s][None, :]).astype(float)
    mask.flags.writeable = False
    return mask
