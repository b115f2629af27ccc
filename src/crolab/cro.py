"""Membership tests for the classically replaceable channel classes.

A channel O is classically replaceable in a given mode when composing with
the completely dephasing channel D (computational basis) cannot be detected
in that mode.  Writing compositions right-to-left:

* cq (classical in, quantum out):  O D = D O D
* qq (classical in and out):       O   = D O D
* qc (quantum in, classical out):  D O = D O D
* detection-incoherent (DIO):      D O = O D

On the trace-1 Choi matrix J each identity says that two entry masks agree:
``linalg.dephase(J, [d, d], S)`` with S = (0,) for O D (input dephased),
(1,) for D O, (0, 1) for D O D and none for O.  It holds iff the largest
entrywise deviation between the two masks is at most ``tol``.  Members come
with the column-stochastic matrix that replaces them on classical data;
non-members with the probe state on which the two sides differ most.

The PVM generalizations swap D for the measure-and-reprepare channel of a
projector set and decide the identities on products of superoperator
matrices; the replacement matrix is indexed by measurement outcomes
instead of basis labels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .channels import (
    Channel,
    ProjectorSet,
    _pauli_pvm,
    _reprepare_superop,
    choi_from_superop,
    compose,
    dephasing,
    random_channel,
    superop_from_choi,
)
from .linalg import DEFAULT_TOL, dephase, hermitianize


@dataclass(frozen=True)
class CroVerdict:
    """Outcome of a replaceability test.

    ``residual`` is the largest Choi-entry deviation of the defining
    identity.  ``replacement`` is the column-stochastic matrix (present iff
    member); ``witness_state`` is a probe density matrix on which the two
    sides of the identity visibly differ (present iff non-member).
    ``matched_unitary`` is only set by the unitary-ensemble test.
    """

    is_member: bool
    residual: float
    replacement: np.ndarray | None = None
    witness_state: np.ndarray | None = None
    matched_unitary: np.ndarray | None = None


class EbVerdict(NamedTuple):
    status: str  # eb_confirmed | not_eb_confirmed | inconclusive
    min_eigenvalue: float


def probe_states(dim: int) -> list[np.ndarray]:
    """An informationally complete family of pure probe states.

    Computational basis projectors plus, for every pair k < l, the real and
    imaginary superposition projectors; d^2 states in total.
    """
    eye = np.eye(dim, dtype=complex)
    probes = [np.outer(eye[k], eye[k]) for k in range(dim)]
    for k in range(dim):
        for l in range(k + 1, dim):
            for phase in (1.0, 1.0j):
                v = (eye[k] + phase * eye[l]) / np.sqrt(2.0)
                probes.append(np.outer(v, v.conj()))
    return probes


def _stochastic_from_choi(choi: np.ndarray, d: int, tol: float) -> np.ndarray:
    """T[j, i] = <j| O(|i><i|) |j>, validated column-stochastic."""
    # Diagonal of the output for basis input |i><i| sits in the Choi state:
    # choi[(i,j),(i,j)] = <j|O(|i><i|)|j> / d.
    t = d * np.real(np.diag(choi)).reshape(d, d).T
    return _validated_stochastic(t, tol)


def _validated_stochastic(t: np.ndarray, tol: float) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    col_dev = float(np.max(np.abs(t.sum(axis=0) - 1.0)))
    if col_dev > max(tol, 1e-7):
        raise ValueError(f"column sums deviate from 1 by {col_dev:.3e}")
    if float(t.min()) < -max(tol, 1e-7):
        raise ValueError(f"negative entry {t.min():.3e} in stochastic matrix")
    t = t.copy()
    t[t < 0.0] = 0.0
    return t


def _identity_verdict(lhs: np.ndarray, rhs: np.ndarray, d: int, replacement: np.ndarray | None, tol: float) -> CroVerdict:
    """Decide ``lhs = rhs`` between two Choi matrices.

    The witness is the first probe state maximizing the largest entry of
    the two sides' output difference, found in one product of the
    difference superoperator with the stacked probes.
    """
    diff = lhs - rhs
    residual = float(np.max(np.abs(diff)))
    if residual <= tol:
        return CroVerdict(is_member=True, residual=residual, replacement=replacement)
    probes = probe_states(d)
    outputs = superop_from_choi(diff, d) @ np.stack([p.reshape(-1) for p in probes], axis=1)
    witness = probes[int(np.argmax(np.max(np.abs(outputs), axis=0)))]
    return CroVerdict(is_member=False, residual=residual, witness_state=witness)


# Dephased subsystems of the Choi matrix on each side of the defining identity.
_MASKS = {
    "cq": ((0,), (0, 1)),
    "qq": ((), (0, 1)),
    "qc": ((1,), (0, 1)),
    "dio": ((1,), (0,)),
}


def _masked_verdict(choi: np.ndarray, d: int, kind: str, tol: float) -> CroVerdict:
    lhs, rhs = (dephase(choi, [d, d], s) for s in _MASKS[kind])
    return _identity_verdict(lhs, rhs, d, _stochastic_from_choi(choi, d, tol), tol)


def is_cqcro(o: Channel, tol: float = DEFAULT_TOL) -> CroVerdict:
    """Classical-input replaceability: O D = D O D."""
    return _masked_verdict(o.choi, o.dim, "cq", tol)


def is_qqcro(o: Channel, tol: float = DEFAULT_TOL) -> CroVerdict:
    """Fully classical replaceability: O = D O D."""
    return _masked_verdict(o.choi, o.dim, "qq", tol)


def is_qccro(o: Channel, tol: float = DEFAULT_TOL) -> CroVerdict:
    """Classical-output replaceability: D O = D O D."""
    return _masked_verdict(o.choi, o.dim, "qc", tol)


def is_dio(o: Channel, tol: float = DEFAULT_TOL) -> CroVerdict:
    """Detection-incoherence: D O = O D (the cq and qc classes intersected)."""
    return _masked_verdict(o.choi, o.dim, "dio", tol)


def _pvm_stochastic(o: Channel, outcomes: ProjectorSet, inputs: ProjectorSet, tol: float) -> np.ndarray:
    """T[n, m] = tr(E_n O(F_m / tr F_m)) = vec(E_n^T) . S vec(F_m) / tr F_m."""
    e = np.stack([p.T.reshape(-1) for p in outcomes.projectors])
    f = np.stack([p.reshape(-1) / rank for p, rank in zip(inputs.projectors, inputs.ranks)], axis=1)
    return _validated_stochastic(np.real(e @ o.superop @ f), tol)


def _as_pvm(projectors: ProjectorSet | Sequence[np.ndarray], dim: int, tol: float) -> ProjectorSet:
    if not isinstance(projectors, ProjectorSet):
        projectors = ProjectorSet(projectors, tol=tol)
    if projectors.dim != dim:
        raise ValueError(f"PVM dim {projectors.dim} does not match channel dim {dim}")
    return projectors


def is_cro_pvm(o: Channel, projectors: ProjectorSet | Sequence[np.ndarray], kind: str, tol: float = DEFAULT_TOL) -> CroVerdict:
    """Replaceability relative to one PVM, kind in {"cq", "qq", "qc"}.

    The defining identities are those of the basis classes with the dephasing
    replaced by the PVM's measure-and-reprepare channel T_E:
    cq: O T = T O T;  qq: O = T O T;  qc: T O = T O T.
    """
    projectors = _as_pvm(projectors, o.dim, tol)
    if kind not in ("cq", "qq", "qc"):
        raise ValueError(f"kind must be one of 'cq', 'qq', 'qc'; got {kind!r}")
    d, t, s = o.dim, _reprepare_superop(projectors), o.superop
    lhs = {"cq": s @ t, "qq": s, "qc": t @ s}[kind]
    replacement = _pvm_stochastic(o, projectors, projectors, tol)
    return _identity_verdict(choi_from_superop(lhs, d), choi_from_superop(t @ s @ t, d), d, replacement, tol)


def is_qccro_two_pvm(
    o: Channel,
    outcomes: ProjectorSet | Sequence[np.ndarray],
    inputs: ProjectorSet | Sequence[np.ndarray],
    tol: float = DEFAULT_TOL,
) -> CroVerdict:
    """Classical-output replaceability with distinct input/output PVMs.

    Member iff T_E O = T_E O T_F, where E is measured on the output and F
    prepares the input; the replacement matrix maps F-outcome statistics to
    E-outcome statistics.
    """
    d = o.dim
    outcomes, inputs = _as_pvm(outcomes, d, tol), _as_pvm(inputs, d, tol)
    lhs = _reprepare_superop(outcomes) @ o.superop
    rhs = lhs @ _reprepare_superop(inputs)
    replacement = _pvm_stochastic(o, outcomes, inputs, tol)
    return _identity_verdict(choi_from_superop(lhs, d), choi_from_superop(rhs, d), d, replacement, tol)


def is_qccro_under_unitaries(o: Channel, unitaries: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> CroVerdict:
    """Classical-output replaceability up to a pre-rotation from a given list.

    Member iff some U in the list makes O U† a qc member, i.e.
    D (O U†) = D (O U†) D.  The first matching U is reported together with
    the stochastic replacement of O U†; for non-members the residual and
    witness refer to the closest candidate.
    """
    if len(unitaries) == 0:
        raise ValueError("need at least one candidate unitary")
    d = o.dim
    best = None
    for u in unitaries:
        u = _as_unitary(u, tol)
        if u.shape != (d, d):
            raise ValueError(f"unitary shape {u.shape} does not match channel dim {d}")
        # superoperator of rho -> U^dag rho U is kron(U^dag, U^T)
        rotated = choi_from_superop(o.superop @ np.kron(u.conj().T, u.T), d)
        verdict = _masked_verdict(rotated, d, "qc", tol)
        if verdict.is_member:
            return replace(verdict, matched_unitary=u)
        if best is None or verdict.residual < best.residual:
            best = verdict
    return best


def _as_unitary(u: np.ndarray, tol: float) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    if u.shape != (d, d) or float(np.max(np.abs(u.conj().T @ u - np.eye(d)))) > max(tol, 1e-9):
        raise ValueError("input is not a unitary matrix")
    return u


def is_deterministic_cru(u: np.ndarray, tol: float = DEFAULT_TOL) -> CroVerdict:
    """Whether a unitary's classical action is deterministic.

    True iff U has exactly one nonzero entry per row (a permutation with
    phases), equivalently U_ki U*_kj = 0 for all k and i != j; then the
    replacement is the exact 0/1 permutation matrix |U|^2.
    """
    u = _as_unitary(u, tol)
    d = u.shape[0]
    mags = np.abs(u)
    residual = 0.0
    for k in range(d):
        row = np.sort(mags[k])[::-1]
        if d > 1:
            residual = max(residual, float(row[0] * row[1]))
    if residual <= tol:
        t = (mags**2 > 0.5).astype(float)
        return CroVerdict(is_member=True, residual=residual, replacement=_validated_stochastic(t, tol))
    return CroVerdict(is_member=False, residual=residual)


def vqa_replaceable_set_R(
    o: Channel, observables: Sequence[int], tol: float = DEFAULT_TOL
) -> tuple[bool, int | None]:
    """Single-dephasing replaceability for a set of Pauli observables.

    With T_i the measure-and-reprepare channel of Pauli string i, the channel
    is a member iff one index j in [0, 4^n) satisfies T_i O = T_i O T_j for
    every i in ``observables``.  Returns (True, first such j) or (False,
    None).  The channel dimension must be 2^n with n <= 3.
    """
    n = int(round(np.log2(o.dim)))
    if 2**n != o.dim or n > 3:
        raise ValueError(f"channel dim {o.dim} is not 2^n with n <= 3")
    observables = [int(i) for i in observables]
    if not observables:
        raise ValueError("need at least one observable index")
    for i in observables:
        if not 0 <= i < 4**n:
            raise ValueError(f"observable index {i} out of range for n={n}")
    measured = [_reprepare_superop(_pauli_pvm(i, n)) for i in observables]
    lhs = [t @ o.superop for t in measured]
    for j in range(4**n):
        oj = o.superop @ _reprepare_superop(_pauli_pvm(j, n))
        # Choi entries are the superoperator entries divided by d
        if all(np.max(np.abs(side - t @ oj)) / o.dim <= tol for side, t in zip(lhs, measured)):
            return True, j
    return False, None


def eb_ppt_test(o: Channel, tol: float = DEFAULT_TOL) -> EbVerdict:
    """Entanglement-breaking screen via the PPT criterion on the Choi state.

    NPT Choi => not entanglement breaking (``not_eb_confirmed``).  PPT is
    conclusive only for qubit channels, where PPT equals separability
    (``eb_confirmed``); for larger dimensions a PPT result is
    ``inconclusive``.
    """
    d = o.dim
    t = o.choi.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    w = np.linalg.eigvalsh(hermitianize(t))
    min_eig = float(w[0])
    if min_eig < -tol:
        return EbVerdict("not_eb_confirmed", min_eig)
    if d == 2:
        return EbVerdict("eb_confirmed", min_eig)
    return EbVerdict("inconclusive", min_eig)


def random_qccro(dim: int, seed=None, qq_weight: float = 0.0, tol: float = DEFAULT_TOL) -> Channel:
    """Sample a random classical-output-replaceable channel.

    Pre-composes a random channel with the dephasing (which lands in the qc
    class for any front factor), optionally mixed with a fully classical
    D M D sample with weight ``qq_weight``.
    """
    rng = np.random.default_rng(seed)
    d = dephasing(dim)
    base = compose(random_channel(dim, seed=rng), d, tol=tol)
    if qq_weight == 0.0:
        return base
    if not 0.0 <= qq_weight <= 1.0:
        raise ValueError(f"qq_weight must sit in [0, 1], got {qq_weight}")
    qq = compose(d, compose(random_channel(dim, seed=rng), d), tol=tol)
    return Channel((1.0 - qq_weight) * base.choi + qq_weight * qq.choi, tol=tol)
