"""Independent reference computations used to pin expected values in tests.

Everything in this module is built from numpy alone and deliberately avoids
importing the package under test.  The robustness oracle solves the same
feasibility question as the production solver but through a different
mechanism (bisection over alternating projections), so agreement between the
two is meaningful evidence rather than a tautology.
"""

import numpy as np


def choi_of_unitary(u):
    """Trace-one Choi matrix of conjugation by ``u``, assembled entrywise."""
    d = u.shape[0]
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            eij = np.zeros((d, d), dtype=complex)
            eij[i, j] = 1.0
            c[i * d:(i + 1) * d, j * d:(j + 1) * d] = u @ eij @ u.conj().T
    return c / d


def interpolation_matrix(theta):
    """cos(theta) Z + sin(theta) X, the one-parameter family used in sweeps."""
    return np.array(
        [[np.cos(theta), np.sin(theta)], [np.sin(theta), -np.cos(theta)]],
        dtype=complex,
    )


def entropy_bits(matrix):
    """von Neumann entropy in bits of a positive unit-trace matrix."""
    w = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2)
    w = np.clip(np.real(w), 0.0, 1.0)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def dephase_output(choi, d):
    """Zero every Choi entry whose two output digits differ."""
    out = choi.reshape(d, d, d, d).copy()
    for k in range(d):
        for l in range(d):
            if k != l:
                out[:, k, :, l] = 0.0
    return out.reshape(d * d, d * d)


def dephase_both(choi, d):
    """Keep only Choi entries that are diagonal in both digit pairs."""
    return np.diag(np.diag(dephase_output(choi, d)))


def _project_structured(psi, d, level):
    """Project onto the affine set of structured matrices at a given level.

    The set is ``{psi : output-dephasing of psi equals full dephasing,
    partial trace over the output equals (1 + level)/d times identity}``.
    Both conditions act on disjoint coordinate groups, so the projection is
    a direct entrywise formula: entries with equal output digits but unequal
    input digits vanish, and each input digit's diagonal block gets its
    trace shifted to the required constant.
    """
    out = psi.reshape(d, d, d, d).copy()
    for i in range(d):
        for j in range(d):
            if i != j:
                for k in range(d):
                    out[i, k, j, k] = 0.0
    target = (1.0 + level) / d
    for i in range(d):
        diag = np.array([out[i, k, i, k] for k in range(d)])
        shift = (target - diag.sum().real) / d
        for k in range(d):
            out[i, k, i, k] = diag[k].real + shift
    return out.reshape(d * d, d * d)


def _project_dominating(psi, floor):
    """Nearest matrix (Frobenius) that dominates ``floor`` in the PSD order."""
    diff = psi - floor
    diff = (diff + diff.conj().T) / 2
    w, v = np.linalg.eigh(diff)
    w = np.clip(w, 0.0, None)
    return floor + (v * w) @ v.conj().T


def _level_feasible(choi, d, level, iters=1200, gap_tol=1e-6):
    """Alternating projections: does a structured matrix dominate the Choi?"""
    x = choi.copy()
    gap = np.inf
    for it in range(iters):
        y = _project_dominating(x, choi)
        x = _project_structured(y, d, level)
        if it % 50 == 49:
            gap = np.linalg.norm(x - y)
            if gap <= gap_tol:
                return True
    return gap <= gap_tol


def oracle_robustness(choi, d, hi=4.0, steps=16):
    """Bisection on the smallest feasible level; resolution hi / 2**steps.

    The feasible levels form an upward-closed interval because adding a
    multiple of the maximally mixed matrix preserves every constraint while
    raising the level, so bisection is sound.
    """
    if not _level_feasible(choi, d, hi):
        raise ValueError("upper bracket is infeasible; raise hi")
    if _level_feasible(choi, d, 0.0):
        return 0.0
    lo = 0.0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if _level_feasible(choi, d, mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def oracle_relative_entropy_bits(choi, d):
    """Entropy difference between the fully and output-dephased Choi."""
    value = entropy_bits(dephase_both(choi, d)) - entropy_bits(dephase_output(choi, d))
    return max(value, 0.0)


# The membership identities by the composition path: every map is an explicit
# row-major superoperator (``vec(K rho K^dag) = kron(K, conj K) vec(rho)``),
# the two sides are products of superoperators, and the verdict compares the
# Choi matrices of the products.

_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def superop_of_kraus(ops):
    return sum(np.kron(k, k.conj()) for k in ops)


def choi_of_superop(s, d):
    """Trace-one Choi matrix: choi[(i,k),(j,l)] = <k| N(|i><j|) |l> / d."""
    return s.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d) / d


def apply_superop(s, rho):
    d = rho.shape[0]
    return (s @ rho.reshape(-1)).reshape(d, d)


def dephasing_superop(d):
    """The completely dephasing channel D as the diagonal matrix diag(vec(I))."""
    return np.diag(np.eye(d, dtype=complex).reshape(-1))


def reprepare_superop(projectors):
    """rho -> sum_n tr(E_n rho) E_n / tr(E_n), one rank-one term per outcome."""
    return sum(
        np.outer(p.reshape(-1), p.T.reshape(-1)) / np.trace(p).real
        for p in projectors
    )


def pauli_string(index, n):
    """Pauli string of an index read as big-endian base-4 digits over IXYZ."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, _PAULIS[(index >> (2 * (n - 1 - q))) & 3])
    return out


def pauli_reprepare_superop(index, n):
    eye = np.eye(2**n, dtype=complex)
    if index == 0:
        return reprepare_superop([eye])
    p = pauli_string(index, n)
    return reprepare_superop([(eye + p) / 2, (eye - p) / 2])


def identity_sides(o, t, kind):
    """Both sides of a defining identity with ``t`` in the role of D.

    cq: O T = T O T;  qq: O = T O T;  qc: T O = T O T;  dio: T O = O T.
    """
    return {
        "cq": (o @ t, t @ o @ t),
        "qq": (o, t @ o @ t),
        "qc": (t @ o, t @ o @ t),
        "dio": (t @ o, o @ t),
    }[kind]


def choi_residual(lhs, rhs, d):
    """Largest entrywise deviation between the two sides' Choi matrices."""
    return float(np.max(np.abs(choi_of_superop(lhs, d) - choi_of_superop(rhs, d))))


def vqa_first_index(o, observables, n, tol):
    """First j with T_i O = T_i O T_j for every observable i, else None."""
    d = 2**n
    for j in range(4**n):
        t_j = pauli_reprepare_superop(j, n)
        if all(
            choi_residual(t_i @ o, t_i @ o @ t_j, d) <= tol
            for t_i in (pauli_reprepare_superop(i, n) for i in observables)
        ):
            return j
    return None
