"""Quantum channels on a single d-dimensional system, in the Choi picture.

Conventions used throughout:

* States and operators are row-major complex numpy arrays.
* ``vec`` is row-major flattening, so ``vec(A @ rho @ B) = kron(A, B.T) @ vec(rho)``.
* The Choi state of a channel N is ``(id (x) N)`` applied to the maximally
  entangled state, normalized to unit trace.  Subsystem 0 (the slow Kronecker
  index) is the input/reference side, subsystem 1 (fast) is the output:
  ``choi[(i*d+k), (j*d+l)] = <k| N(|i><j|) |l> / d``.
* ``compose(a, b)`` is ``a`` after ``b``; ``tensor(a, b)`` puts ``a`` on the
  slow factor.

Only square channels (equal input and output dimension) are supported.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL, dephase, hermitianize, is_hermitian, kron, partial_trace
from .paulis import CNOT_01, HADAMARD, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, PHASE_S, pauli_matrix

KRAUS_DROP = 1e-12


def vec_row(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).reshape(-1)


def unvec_row(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape(dim, dim)


class Channel:
    """A CPTP map, stored as its trace-1 Choi state.

    The constructor validates the Choi invariants: Hermitian and PSD within
    ``tol``, unit trace, and reference marginal equal to the maximally mixed
    state (trace preservation); Kraus operators passed in must be complete.
    ``superop`` is a reshape of the Choi state.  ``kraus`` is computed from
    the Choi state on first access unless it was passed in.
    """

    __slots__ = ("dim", "choi", "superop", "_kraus")

    def __init__(self, choi: np.ndarray, tol: float = DEFAULT_TOL, kraus=None):
        choi = np.asarray(choi, dtype=complex)
        d2 = choi.shape[0]
        dim = int(round(np.sqrt(d2)))
        if choi.ndim != 2 or choi.shape != (d2, d2) or dim * dim != d2:
            raise ValueError(f"choi shape {choi.shape} is not a square (d^2, d^2) matrix")
        if not is_hermitian(choi, tol):
            raise ValueError(f"choi matrix is not Hermitian within tol={tol:g}")
        tr = float(np.real(np.trace(choi)))
        if abs(tr - 1.0) > tol:
            raise ValueError(f"choi trace {tr:.12g} is not 1 within tol={tol:g}")
        marginal = partial_trace(choi, [dim, dim], 0)
        dev = float(np.max(np.abs(marginal - np.eye(dim) / dim)))
        if dev > tol:
            raise ValueError(
                f"reference marginal deviates from I/d by {dev:.3e} (tol={tol:g}); "
                "the map is not trace preserving"
            )
        choi = hermitianize(choi)
        min_eig = float(np.linalg.eigvalsh(choi)[0])
        if min_eig < -max(tol, 1e-7):
            raise ValueError(f"choi matrix has negative eigenvalue {min_eig:.3e}")
        if kraus is not None:
            kraus = tuple(np.asarray(k, dtype=complex) for k in kraus)
            comp = sum(k.conj().T @ k for k in kraus)
            if float(np.max(np.abs(comp - np.eye(dim)))) > max(tol, 1e-7):
                raise ValueError("kraus operators do not satisfy the completeness relation")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "choi", choi)
        object.__setattr__(self, "superop", superop_from_choi(choi, dim))
        object.__setattr__(self, "_kraus", kraus)

    @property
    def kraus(self) -> tuple:
        if self._kraus is None:
            # positivity was checked at construction, within that tolerance
            object.__setattr__(self, "_kraus", kraus_from_choi(self.choi, tol=np.inf))
        return self._kraus

    def __setattr__(self, name, value):
        raise AttributeError("Channel is immutable")

    def __repr__(self):
        return f"Channel(dim={self.dim}, kraus_rank={len(self.kraus)})"


def kraus_from_choi(choi: np.ndarray, tol: float = DEFAULT_TOL, drop: float = KRAUS_DROP):
    """Kraus operators of a trace-1 Choi state, dropping eigenvalues <= drop."""
    choi = np.asarray(choi, dtype=complex)
    dim = int(round(np.sqrt(choi.shape[0])))
    w, v = np.linalg.eigh(hermitianize(choi))
    if w[0] < -max(tol, 1e-7):
        raise ValueError(f"choi matrix has negative eigenvalue {w[0]:.3e}")
    ops = []
    for lam, vec in zip(w, v.T):
        if lam <= drop:
            continue
        ops.append(np.sqrt(dim * lam) * vec.reshape(dim, dim).T)
    return tuple(ops)


def channel_from_kraus(ops: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> Channel:
    """Build a channel from Kraus operators (must be complete within tol)."""
    ops = [np.asarray(k, dtype=complex) for k in ops]
    if not ops:
        raise ValueError("need at least one Kraus operator")
    dim = ops[0].shape[0]
    for k in ops:
        if k.shape != (dim, dim):
            raise ValueError(f"kraus operator shape {k.shape} is not ({dim}, {dim})")
    comp = sum(k.conj().T @ k for k in ops)
    dev = float(np.max(np.abs(comp - np.eye(dim))))
    if dev > tol:
        raise ValueError(f"kraus completeness violated by {dev:.3e} (tol={tol:g})")
    choi = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in ops:
        w = k.T.reshape(-1)
        choi += np.outer(w, w.conj())
    return Channel(choi / dim, tol=tol, kraus=tuple(ops))


def unitary_channel(u: np.ndarray, tol: float = DEFAULT_TOL) -> Channel:
    """Conjugation by a unitary, validated through Kraus completeness."""
    return channel_from_kraus([u], tol=tol)


def choi_from_superop(superop: np.ndarray, dim: int) -> np.ndarray:
    t = np.asarray(superop).reshape(dim, dim, dim, dim)
    return t.transpose(2, 0, 3, 1).reshape(dim * dim, dim * dim) / dim


def superop_from_choi(choi: np.ndarray, dim: int) -> np.ndarray:
    t = np.asarray(choi).reshape(dim, dim, dim, dim)
    return dim * t.transpose(1, 3, 0, 2).reshape(dim * dim, dim * dim)


def channel_from_superop(superop: np.ndarray, dim: int, tol: float = DEFAULT_TOL) -> Channel:
    return Channel(choi_from_superop(superop, dim), tol=tol)


def apply(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply a channel to an operator (any operator, not only states)."""
    rho = np.asarray(rho, dtype=complex)
    d = channel.dim
    if rho.shape != (d, d):
        raise ValueError(f"operator shape {rho.shape} does not match channel dim {d}")
    return unvec_row(channel.superop @ vec_row(rho), d)


def compose(a: Channel, b: Channel, tol: float = DEFAULT_TOL) -> Channel:
    """The channel ``a`` after ``b`` (``b`` acts first)."""
    if a.dim != b.dim:
        raise ValueError(f"cannot compose channels of dims {a.dim} and {b.dim}")
    return channel_from_superop(a.superop @ b.superop, a.dim, tol=tol)


def tensor(a: Channel, b: Channel, tol: float = DEFAULT_TOL) -> Channel:
    """Tensor product, ``a`` on the slow subsystem."""
    da, db = a.dim, b.dim
    x = np.kron(a.choi, b.choi)
    # Index order is (ref_a, out_a, ref_b, out_b) on both sides; regroup to
    # (ref_a, ref_b, out_a, out_b) so the result is again (reference, output).
    t = x.reshape(da, da, db, db, da, da, db, db)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    d = da * db
    return Channel(t.reshape(d * d, d * d), tol=tol)


def channel_partial_trace(o: Channel, dims: Sequence[int], keep: int, tol: float = DEFAULT_TOL) -> Channel:
    """Reduced channel on one tensor factor of a bipartite channel.

    For ``keep == 0`` this is ``rho -> tr_1( O(rho (x) I/d1) )``; the Choi
    state of the reduced channel is exactly the partial trace of the Choi
    state of ``O`` over the discarded reference and output factors.
    """
    da, db = (int(d) for d in dims)
    if da * db != o.dim:
        raise ValueError(f"dims {dims} do not factor channel dim {o.dim}")
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    full_dims = [da, db, da, db]  # (ref_a, ref_b, out_a, out_b)
    positions = (0, 2) if keep == 0 else (1, 3)
    reduced = partial_trace(o.choi, full_dims, positions)
    return Channel(reduced, tol=tol)


def identity_channel(dim: int) -> Channel:
    return channel_from_kraus([np.eye(dim, dtype=complex)])


def dephasing(dim: int) -> Channel:
    """The completely dephasing channel in the computational basis."""
    eye = np.eye(dim, dtype=complex)
    return channel_from_kraus([np.outer(eye[i], eye[i]) for i in range(dim)])


def mix(channels: Sequence[Channel], weights: Sequence[float], tol: float = DEFAULT_TOL) -> Channel:
    """Convex combination of channels (mixture of their Choi states)."""
    weights = np.asarray(weights, dtype=float)
    if len(channels) != len(weights) or len(channels) == 0:
        raise ValueError("need matching, nonempty channels and weights")
    if np.any(weights < -DEFAULT_TOL) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights {weights} are not a probability vector")
    dim = channels[0].dim
    if any(c.dim != dim for c in channels):
        raise ValueError("all mixed channels must share a dimension")
    choi = sum(w * c.choi for w, c in zip(weights, channels))
    return Channel(choi, tol=tol)


class ProjectorSet:
    """A complete set of mutually orthogonal projectors (a PVM).

    Validates, within ``tol``: each element Hermitian and idempotent, pairwise
    products zero, and the set summing to the identity.
    """

    __slots__ = ("projectors", "dim", "ranks")

    def __init__(self, projectors: Sequence[np.ndarray], tol: float = DEFAULT_TOL):
        ops = tuple(np.asarray(p, dtype=complex) for p in projectors)
        if not ops:
            raise ValueError("a projector set needs at least one element")
        dim = ops[0].shape[0]
        for idx, p in enumerate(ops):
            if p.shape != (dim, dim):
                raise ValueError(f"projector {idx} has shape {p.shape}, expected ({dim}, {dim})")
            if not is_hermitian(p, tol):
                raise ValueError(f"projector {idx} is not Hermitian within tol={tol:g}")
            if float(np.max(np.abs(p @ p - p))) > tol * 10:
                raise ValueError(f"projector {idx} is not idempotent within tol")
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if float(np.max(np.abs(ops[i] @ ops[j]))) > tol * 10:
                    raise ValueError(f"projectors {i} and {j} are not orthogonal within tol")
        if float(np.max(np.abs(sum(ops) - np.eye(dim)))) > tol * 10:
            raise ValueError("projectors do not sum to the identity within tol")
        object.__setattr__(self, "projectors", ops)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ranks", tuple(int(round(float(np.real(np.trace(p))))) for p in ops))

    def __setattr__(self, name, value):
        raise AttributeError("ProjectorSet is immutable")

    def __len__(self):
        return len(self.projectors)

    def __iter__(self):
        return iter(self.projectors)

    def __repr__(self):
        return f"ProjectorSet(dim={self.dim}, ranks={self.ranks})"


def basis_pvm(dim: int) -> ProjectorSet:
    eye = np.eye(dim, dtype=complex)
    return ProjectorSet([np.outer(eye[i], eye[i]) for i in range(dim)])


def te_channel(projectors: ProjectorSet | Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> Channel:
    """Measure-and-reprepare channel of a PVM.

    ``T_E(rho) = sum_n tr(rho E_n) E_n / tr(E_n)``: measure the PVM, then
    output the normalized projector of the observed outcome.
    """
    if not isinstance(projectors, ProjectorSet):
        projectors = ProjectorSet(projectors, tol=tol)
    return channel_from_superop(_reprepare_superop(projectors), projectors.dim, tol=tol)


def _reprepare_superop(projectors: ProjectorSet) -> np.ndarray:
    """Superoperator of ``T_E``: the sum of ``|vec E_n> <vec E_n^T| / tr(E_n)``."""
    return sum(
        np.outer(vec_row(p) / rank, vec_row(p.T))
        for p, rank in zip(projectors.projectors, projectors.ranks)
    )


def block_dephasing(projectors: ProjectorSet | Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> Channel:
    """Pinching map of a PVM: ``rho -> sum_n E_n rho E_n``."""
    if not isinstance(projectors, ProjectorSet):
        projectors = ProjectorSet(projectors, tol=tol)
    return channel_from_kraus(list(projectors.projectors), tol=tol)


def pauli_channel_T(index: int, n: int, tol: float = DEFAULT_TOL) -> Channel:
    """Measure-and-reprepare channel of a single Pauli-string observable.

    For a non-identity string P this is the ``te_channel`` of the eigenspace
    projectors (I +- P)/2, i.e. ``rho -> (tr(P+ rho) P+ + tr(P- rho) P-) /
    2^(n-1)``.  Index 0 (the identity string) has a single trivial outcome,
    which makes it the completely depolarizing map.
    """
    return te_channel(_pauli_pvm(index, n), tol=tol)


def _pauli_pvm(index: int, n: int) -> ProjectorSet:
    """Eigenspace projectors of a Pauli string; the identity has one outcome."""
    p = pauli_matrix(index, n)
    eye = np.eye(2**n, dtype=complex)
    if index == 0:
        return ProjectorSet([eye])
    return ProjectorSet([(eye + p) / 2, (eye - p) / 2])


def interpolation_unitary(theta: float) -> np.ndarray:
    """The Hermitian unitary ``cos(theta) Z + sin(theta) X``."""
    return np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X


_CCX = np.eye(8, dtype=complex)
_CCX[[6, 7]] = _CCX[[7, 6]]

_FIXED_GATES = {
    "I": PAULI_I,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": HADAMARD,
    "S": PHASE_S,
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]),
    "CNOT": CNOT_01,
    "CCX": _CCX,
}


def gate_matrix(name: str, theta: float | None = None) -> np.ndarray:
    """Unitary matrix of a named gate.

    Fixed gates: I, X, Y, Z, H, S, T, CNOT, CCX.  Parametric gates need
    ``theta``: RZ (diag(e^{-i t/2}, e^{+i t/2})), RX (exp(-i t X / 2)), and
    U, the interpolation family cos(t) Z + sin(t) X.
    """
    key = name.strip().upper()
    if key in _FIXED_GATES:
        if theta is not None:
            raise ValueError(f"gate {key} takes no parameter")
        return _FIXED_GATES[key].copy()
    if key in ("RZ", "RX", "U"):
        if theta is None:
            raise ValueError(f"gate {key} needs a theta parameter")
        theta = float(theta)
        if key == "RZ":
            return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        if key == "RX":
            return np.cos(theta / 2) * PAULI_I - 1j * np.sin(theta / 2) * PAULI_X
        return interpolation_unitary(theta)
    raise ValueError(f"unknown gate {name!r}")


def named_gate(name: str, theta: float | None = None, tol: float = DEFAULT_TOL) -> Channel:
    """Unitary channel of a named gate; see ``gate_matrix`` for the table."""
    return unitary_channel(gate_matrix(name, theta), tol=tol)


def random_channel(dim: int, rank: int | None = None, seed=None, tol: float = DEFAULT_TOL) -> Channel:
    """Sample a random channel from the trace-normalized Wishart ensemble.

    Draws a complex Gaussian ``G`` of shape (d^2, rank), forms ``X = G G†``
    and conjugates by ``R^{-1/2} (x) I`` with ``R = d * tr_out(X)``, which
    enforces the uniform reference marginal exactly.  Deterministic per seed.
    """
    dim = int(dim)
    rank = dim * dim if rank is None else int(rank)
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim * dim, rank)) + 1j * rng.normal(size=(dim * dim, rank))
    x = g @ g.conj().T
    r = dim * partial_trace(x, [dim, dim], 0)
    w, v = np.linalg.eigh(hermitianize(r))
    if w[0] <= 1e-12:
        raise ValueError("degenerate sample: reference marginal not invertible")
    r_isqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    a = kron(r_isqrt, np.eye(dim))
    return Channel(hermitianize(a @ x @ a), tol=tol)


def choi_max_diff(a: Channel, b: Channel) -> float:
    """Largest entrywise deviation between two channels' Choi states."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.max(np.abs(a.choi - b.choi)))


def choi_dephase_output(choi: np.ndarray, dim: int) -> np.ndarray:
    """Apply the output-side dephasing to a Choi state (zero k != l blocks)."""
    return dephase(choi, [dim, dim], (1,))
