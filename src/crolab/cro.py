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
(1,) for D O, (0, 1) for D O D and none for O.  The two sides differ by J
times a 0/+-1 mask, a signed sum of three entry sets J[(i,k),(j,l)]: k != l
with i = j, i != j with k = l, and both unequal (``_signs``).  So an
identity holds iff the largest |J| over its sets is at most ``tol``, and
no side is built.  Members come with the column-stochastic matrix that
replaces them on classical data.  ``_masked_verdicts``, which ``crolab
classify`` calls, only decides; the public tests give a non-member the
witness of ``_witness``, a pure state on which the two sides' outputs
differ by at least d * residual / 4.

The PVM generalizations swap D for the measure-and-reprepare channel T_E of
a projector set and state each identity with the same side table, applying
``channels.choi_measure(J, E, S)`` in place of ``dephase``; the replacement
matrix is indexed by measurement outcomes instead of basis labels.  The
Pauli-observable identity T_i O = T_i O T_j holds iff the pulled-back
observable O^dag(P_i) lies in the span of I and P_j, so j is read off the
Pauli expansion of O^dag(P_i).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .channels import (
    Channel,
    ProjectorSet,
    _random_choi,
    _rounding,
    check_dim,
    choi_apply,
    choi_measure,
)
from .linalg import DEFAULT_TOL, dephase, hermitianize
from .paulis import pauli_stack


@dataclass(frozen=True)
class CroVerdict:
    """Outcome of a replaceability test.

    ``residual`` is the largest Choi-entry deviation of the defining
    identity.  ``replacement`` is the column-stochastic matrix (present iff
    member); ``witness_state`` is a pure density matrix on whose image the
    two sides of the identity differ by at least d * residual / 4 in one
    entry (from the public tests, present iff non-member; the deciding
    helpers that ``crolab classify`` calls leave it ``None``).
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


def _stochastic_from_choi(choi: np.ndarray, d: int, tol: float) -> np.ndarray:
    """T[j, i] = <j| O(|i><i|) |j>, validated column-stochastic within what
    ``Channel``'s checks at ``tol`` leave.

    Entry T[j, i] is d choi[(i,j),(i,j)], at least d times the positivity
    floor -max(tol, 1e-7), and column i sums to d times the reference
    marginal's entry (i, i), within d tol of 1; the room is d max(tol,
    1e-7), plus ``channels._rounding`` for the checks' own rounding.
    """
    t = d * np.real(np.diag(choi)).reshape(d, d).T
    return _validated_stochastic(t, d * (max(tol, 1e-7) + _rounding(d * d, 1 + tol)))


def _validated_stochastic(t: np.ndarray, room: float) -> np.ndarray:
    """A new array of ``t``'s entries, the negative ones zeroed, once its
    column sums are within ``room`` of 1 and no entry is below -room."""
    t = np.asarray(t, dtype=float)
    col_dev = float(np.max(np.abs(t.sum(axis=0) - 1.0)))
    if col_dev > room:
        raise ValueError(f"column sums deviate from 1 by {col_dev:.3e}")
    if float(t.min()) < -room:
        raise ValueError(f"negative entry {t.min():.3e} in stochastic matrix")
    t = t.copy()
    t[t < 0.0] = 0.0
    return t


def _witness(diff: np.ndarray, d: int) -> np.ndarray:
    """A pure state whose image under the map with Choi array ``diff`` has
    an entry of at least d |x| / 4, x = diff[(a,k),(b,l)] the first largest.

    With J_ij the (k, l) entry of diff's (i, j) block, the probes |a>, |b>,
    (|a> + |b>)/sqrt2 and (|a> + i|b>)/sqrt2 have the image entries d J_aa,
    d J_bb and (d/2)(J_aa + J_bb + conj(c) J_ab + c J_ba), c = 1 and i.  The
    first two sum in size to at least d |J_aa + J_bb|; less (d/2)(J_aa +
    J_bb), the last two sum to at least d |x|.  The first largest of the
    four is returned, or |a> (entry d |x|) when a = b.
    """
    row, col = divmod(int(np.argmax(np.abs(diff))), d * d)
    (a, k), (b, l) = divmod(row, d), divmod(col, d)
    vector = np.zeros(d, dtype=complex)
    vector[a] = 1.0
    if a != b:
        jaa, jbb, jab, jba = diff[row, a * d + l], diff[b * d + k, col], diff[row, col], diff[b * d + k, a * d + l]
        scores = [abs(jaa), abs(jbb), abs(jaa + jbb + jab + jba) / 2, abs(jaa + jbb - 1j * jab + 1j * jba) / 2]
        s = 1 / np.sqrt(2.0)
        vector[a], vector[b] = ((1.0, 0.0), (0.0, 1.0), (s, s), (s, 1j * s))[scores.index(max(scores))]
    return np.outer(vector, vector.conj())


def _witnessed_verdict(lhs: np.ndarray, rhs: np.ndarray, d: int, replacement: np.ndarray | None, tol: float) -> CroVerdict:
    """The PVM tests' verdict on ``lhs = rhs`` between two Choi matrices,
    with a non-member's ``_witness``."""
    diff = lhs - rhs
    residual = float(np.max(np.abs(diff)))
    if residual <= tol:
        return CroVerdict(is_member=True, residual=residual, replacement=replacement)
    return CroVerdict(is_member=False, residual=residual, witness_state=_witness(diff, d))


# Subsystems of the Choi matrix that D (or T_E) acts on, on each side of the
# defining identity: 0 is the input, 1 the output.
_MASKS = {
    "cq": ((0,), (0, 1)),
    "qq": ((), (0, 1)),
    "qc": ((1,), (0, 1)),
    "dio": ((1,), (0,)),
}

# Subsystems on which the indices of each ``_entry_sets`` set differ.
_SET_SUBSYSTEMS = ({1}, {0}, {0, 1})


@functools.lru_cache(maxsize=None)
def _signs(kind: str) -> tuple[int, ...]:
    """Weights of the ``_entry_sets`` sets in lhs - rhs of a basis class:
    a side keeps a set unless it dephases a subsystem on which the set's
    indices differ."""
    lhs, rhs = _MASKS[kind]
    return tuple(int(not sub & set(lhs)) - int(not sub & set(rhs)) for sub in _SET_SUBSYSTEMS)


@functools.lru_cache(maxsize=None)
def _entry_sets(d: int) -> np.ndarray:
    """Read-only (3, d^2, d^2) stack of 0/1 masks of the entries
    J[(i,k),(j,l)] with k != l and i = j, with i != j and k = l, and with
    both unequal."""
    i, k = np.divmod(np.arange(d * d), d)
    inputs, outputs = i[:, None] != i, k[:, None] != k
    sets = np.stack([outputs & ~inputs, inputs & ~outputs, inputs & outputs]).astype(float)
    sets.flags.writeable = False
    return sets


def _masked_verdicts(choi: np.ndarray, d: int, kinds: Sequence[str], tol: float) -> dict[str, CroVerdict]:
    """Witness-free verdicts of the listed basis classes on one Choi array,
    in order.  Each residual is the largest of the maxima of |J| over the
    class's entry sets, which one product with the ``_entry_sets`` stack
    gives for every class; the members share one validated replacement
    matrix."""
    replacement = _stochastic_from_choi(choi, d, tol)
    maxima = (np.abs(choi) * _entry_sets(d)).max(axis=(1, 2)).tolist()
    verdicts = {}
    for kind in kinds:
        residual = max(m for m, sign in zip(maxima, _signs(kind)) if sign)
        member = residual <= tol
        verdicts[kind] = CroVerdict(is_member=member, residual=residual, replacement=replacement if member else None)
    return verdicts


def _masked_verdict(choi: np.ndarray, d: int, kind: str, tol: float) -> CroVerdict:
    """One basis class's public verdict, with a non-member's witness read
    from lhs - rhs, J times the class's signed mask."""
    verdict = _masked_verdicts(choi, d, (kind,), tol)[kind]
    if verdict.is_member:
        return verdict
    signed = sum(sign * mask for sign, mask in zip(_signs(kind), _entry_sets(d)) if sign)
    return replace(verdict, witness_state=_witness(choi * signed, d))


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
    """T[n, m] = tr(E_n O(F_m)) / tr F_m, on the stack of images O(F_m)."""
    t = np.einsum("nlk,mkl->nm", np.stack(outcomes.projectors), choi_apply(o.choi, np.stack(inputs.projectors)))
    # Column m sums to tr O(F_m) / r_m = 1 + d tr(F_m Delta^T) / r_m, with
    # Delta the marginal's deviation from I/d (operator norm at most d tol),
    # and T[n, m] >= d r_n times the positivity floor: for exact projectors
    # both are within d^2 max(tol, 1e-7) of a stochastic matrix.
    d = o.dim
    room = d * d * (max(tol, 1e-7) + _rounding(d * d, 1 + tol))
    return _validated_stochastic(np.real(t) / np.asarray(inputs.ranks), room)


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
    lhs, rhs = (choi_measure(o.choi, projectors, s) for s in _MASKS[kind])
    replacement = _pvm_stochastic(o, projectors, projectors, tol)
    return _witnessed_verdict(lhs, rhs, o.dim, replacement, tol)


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
    lhs = choi_measure(o.choi, outcomes, (1,))
    rhs = choi_measure(lhs, inputs, (0,))
    replacement = _pvm_stochastic(o, outcomes, inputs, tol)
    return _witnessed_verdict(lhs, rhs, d, replacement, tol)


def is_qccro_under_unitaries(o: Channel, unitaries: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> CroVerdict:
    """Classical-output replaceability up to a pre-rotation from a given list.

    Member iff some U in the list makes O U† a qc member, i.e.
    D (O U†) = D (O U†) D.  The first matching U is reported together with
    the stochastic replacement of O U†; for non-members the residual and
    witness refer to the first closest candidate, the only one witnessed.
    """
    if len(unitaries) == 0:
        raise ValueError("need at least one candidate unitary")
    d = o.dim
    best = closest = None
    for u in unitaries:
        u = _as_unitary(u, tol)
        if u.shape != (d, d):
            raise ValueError(f"unitary shape {u.shape} does not match channel dim {d}")
        # Choi state of rho -> O(U^dag rho U): (conj U (x) I) J (U^T (x) I)
        rotated = (u @ (u.conj() @ o.choi.reshape(d, -1)).reshape(d * d, d, d)).reshape(d * d, d * d)
        verdict = _masked_verdicts(rotated, d, ("qc",), tol)["qc"]
        if verdict.is_member:
            return replace(verdict, matched_unitary=u)
        if best is None or verdict.residual < best.residual:
            best, closest = verdict, rotated
    return _masked_verdict(closest, d, "qc", tol)


def _as_unitary(u: np.ndarray, tol: float) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    d = u.shape[0] if u.ndim == 2 else 0
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
        return CroVerdict(is_member=True, residual=residual, replacement=_validated_stochastic(t, max(tol, 1e-7)))
    return CroVerdict(is_member=False, residual=residual)


def vqa_replaceable_set_R(
    o: Channel, observables: Sequence[int], tol: float = DEFAULT_TOL
) -> tuple[bool, int | None]:
    """Single-dephasing replaceability for a set of Pauli observables.

    With T_i the measure-and-reprepare channel of Pauli string i, the channel
    is a member iff one index j in [0, 4^n) satisfies T_i O = T_i O T_j for
    every i in ``observables``.  Returns (True, first such j) or (False,
    None).  The channel dimension must be 2^n, n <= 5 (``channels.MAX_DIM``).

    For trace-preserving O, ``T_i O - T_i O T_j`` is ``rho -> tr(R rho) P_i
    / d`` where R is ``A_i = O^dag(P_i)`` less its I and P_j terms in the
    Pauli expansion ``A_i = sum_c tr(P_c A_i) P_c / d``; its largest Choi
    entry is ``max|R| / d^2``, the residual compared with ``tol``.  The
    (4^n, d, d) array of R is built for one observable at a time (2^20
    entries at n = 5) and folded into the maximum per j.
    """
    check_dim(o.dim, "vqa_replaceable_set_R")
    n = int(round(np.log2(o.dim)))
    if 2**n != o.dim:
        raise ValueError(f"channel dim {o.dim} is not 2^n")
    observables = [int(i) for i in observables]
    if not observables:
        raise ValueError("need at least one observable index")
    for i in observables:
        if not 0 <= i < 4**n:
            raise ValueError(f"observable index {i} out of range for n={n}")
    d, paulis = o.dim, pauli_stack(n)
    worst = np.zeros(len(paulis))
    for i in observables:
        # A_i[b, a] = tr(P_i O(|a><b|)) = d sum_kl J[(a,k),(b,l)] P_i[l,k]
        pulled = d * np.einsum("akbl,lk->ba", o.choi.reshape(d, d, d, d), paulis[i])
        coeffs = np.einsum("cxy,yx->c", paulis, pulled) / d
        rest = pulled - coeffs[:, None, None] * paulis  # A_i - a_i[j] P_j
        rest[1:] -= coeffs[0] * paulis[0]  # and a_i[0] I for j > 0
        worst = np.maximum(worst, np.max(np.abs(rest), axis=(1, 2)))
    matches = np.flatnonzero(worst / d**2 <= tol)
    return (True, int(matches[0])) if matches.size else (False, None)


def eb_ppt_test(o: Channel, tol: float = DEFAULT_TOL) -> EbVerdict:
    """Entanglement-breaking screen via the PPT criterion on the Choi state.

    NPT Choi => not entanglement breaking (``not_eb_confirmed``).  PPT is
    conclusive only for qubit channels, where PPT equals separability
    (``eb_confirmed``); for larger dimensions a PPT result is
    ``inconclusive``.

    A channel that carries exactly one Kraus operator K (every gate, every
    ``channel_from_kraus`` of one operator, and every tensor and
    composition of gates and one-operator Kraus specs, which the CLI loads
    as one product operator) has the pure Choi state
    vec(K^T) vec(K^T)^dag / d, whose Schmidt coefficients are K's singular
    values.  Its partial transpose has the eigenvalues sigma_i^2 / d and
    +-sigma_i sigma_j / d for i < j (Peres, PRL 77, 1413, 1996), so the
    minimum is -sigma_1 sigma_2 / d, or sigma_1^2 / d at d = 1, from one
    d x d SVD.  That holds only when ``o.choi`` is the array K builds,
    which ``channel_from_kraus`` records (``Channel._gram``); a caller's
    ``Channel(choi, kraus=[K])`` has no record.  Every other channel
    eigendecomposes the Hermitian part of the d^2 x d^2 partial transpose.
    """
    d = o.dim
    min_eig = _pure_ppt_minimum(o)
    if min_eig is None:
        t = o.choi.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
        min_eig = float(np.linalg.eigvalsh(hermitianize(t))[0])
    if min_eig < -tol:
        return EbVerdict("not_eb_confirmed", min_eig)
    if d == 2:
        return EbVerdict("eb_confirmed", min_eig)
    return EbVerdict("inconclusive", min_eig)


def _pure_ppt_minimum(o: Channel) -> float | None:
    """The closed-form partial-transpose minimum of ``eb_ppt_test``, or None
    unless ``o`` was built from one Kraus operator, whose Gram sum
    ``o.choi`` is."""
    if not o._gram or len(o._kraus) != 1:
        return None
    s = np.linalg.svd(o._kraus[0], compute_uv=False)
    return float(s[0] ** 2 / o.dim if o.dim == 1 else -(s[0] * s[1]) / o.dim)


def random_qccro(dim: int, seed=None, qq_weight: float = 0.0, tol: float = DEFAULT_TOL) -> Channel:
    """Sample a random classical-output-replaceable channel.

    Pre-composes a random channel with the dephasing (which lands in the qc
    class for any front factor), optionally mixed with a fully classical
    D M D sample with weight ``qq_weight``.  On Choi states, N D is N's Choi
    state dephased on the input and D M D is M's dephased on both sides.
    """
    return Channel(_random_qccro_choi(dim, seed, qq_weight), tol=tol)


def _random_qccro_choi(dim: int, seed, qq_weight: float = 0.0) -> np.ndarray:
    """``random_qccro``'s Choi array, not validated."""
    rng = np.random.default_rng(seed)
    base = dephase(_random_choi(dim, None, rng), [dim, dim], (0,))
    if qq_weight == 0.0:
        return base
    if not 0.0 <= qq_weight <= 1.0:
        raise ValueError(f"qq_weight must sit in [0, 1], got {qq_weight}")
    qq = dephase(_random_choi(dim, None, rng), [dim, dim], (0, 1))
    return (1.0 - qq_weight) * base + qq_weight * qq
