"""Independent reference computations used to pin expected values in tests.

Everything in this module is built from numpy alone and deliberately avoids
importing the package under test, with one exception: ``admm_block_robustness``
keeps the replaced ADMM path of the robustness and states it to the package's
generic solver ``crolab.sdp``.  The robustness oracles solve the same
question as the production solver but through different mechanisms
(bisection over alternating projections, the ADMM), so agreement between
them is meaningful evidence rather than a tautology.
"""

import itertools

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


def unitary_robustness(u):
    """Closed-form robustness of conjugation by ``u``: sigma_max(|U|)^2 - 1.

    ``|U|`` is the entrywise modulus.  The output-k block of the Choi state
    is ``u_k u_k^dag / d`` with ``u_k`` the k-th row of U, and the best dual
    block with diagonal ``y`` pairs with it to ``(sum_i sqrt(y_i) |U_ki|)^2 /
    d``.  So ``1 + R`` is the largest ``|| |U| s ||^2 / d`` over ``s >= 0``
    with ``||s||^2 = d``, which is ``sigma_max(|U|)^2`` because the top
    singular vector of a nonnegative matrix can be taken nonnegative.
    """
    return float(np.linalg.svd(np.abs(u), compute_uv=False)[0] ** 2 - 1.0)


def haar_unitary(d, rng):
    """Haar-random unitary: QR of a complex Gaussian, phases fixed by R."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


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


def postcompose_choi(inner_kraus, kraus):
    """Choi matrix of the fully classical D M D after N, by superoperators.

    M and N are given by their Kraus operators; D is the dephasing.
    """
    d = kraus[0].shape[0]
    dd = dephasing_superop(d)
    s = dd @ superop_of_kraus(inner_kraus) @ dd @ superop_of_kraus(kraus)
    return choi_of_superop(s, d)


def permutation_conjugate_choi(perm, kraus):
    """Choi matrix of rho -> P N(P^dag rho P) P^dag with P|c> = |perm[c]>."""
    d = len(perm)
    p = np.zeros((d, d), dtype=complex)
    p[perm, np.arange(d)] = 1.0
    s = superop_of_kraus([p]) @ superop_of_kraus(kraus) @ superop_of_kraus([p.conj().T])
    return choi_of_superop(s, d)


def qccro_sample_choi(front_kraus, classical_kraus, qq_weight):
    """Choi matrix of the mixture (1 - w) N D + w D M D, by superoperators.

    N is given by ``front_kraus``, M by ``classical_kraus`` and w is
    ``qq_weight``.
    """
    d = front_kraus[0].shape[0]
    dd = dephasing_superop(d)
    s = (1.0 - qq_weight) * superop_of_kraus(front_kraus) @ dd
    s = s + qq_weight * dd @ superop_of_kraus(classical_kraus) @ dd
    return choi_of_superop(s, d)


def choi_residual(lhs, rhs, d):
    """Largest entrywise deviation between the two sides' Choi matrices."""
    return float(np.max(np.abs(choi_of_superop(lhs, d) - choi_of_superop(rhs, d))))


def vqa_residuals(o, observables, n):
    """Per candidate j, the largest Choi residual of T_i O = T_i O T_j over
    the observables i."""
    d = 2**n
    sides = [pauli_reprepare_superop(i, n) @ o for i in observables]
    return [
        max(choi_residual(side, side @ pauli_reprepare_superop(j, n), d) for side in sides)
        for j in range(4**n)
    ]


def vqa_first_index(o, observables, n, tol):
    """First j with T_i O = T_i O T_j for every observable i, else None."""
    return next((j for j, r in enumerate(vqa_residuals(o, observables, n)) if r <= tol), None)


def classical_score_extremes(states, payoffs):
    """Worst and best game score over every deterministic classical map.

    Enumerates all ``d**d`` maps from measured input digit to prepared output
    digit; each map is scored through its 0/1 stochastic matrix acting on the
    diagonal of every game state.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    d = payoffs.shape[1]
    scores = []
    for outputs in itertools.product(range(d), repeat=d):
        t = np.zeros((d, d))
        t[list(outputs), range(d)] = 1.0
        scores.append(
            sum(float(row @ (t @ np.real(np.diag(s)))) for s, row in zip(states, payoffs))
        )
    return min(scores), max(scores)


def probe_frame(d):
    """The d^2 pure states |k><k| and (|k> + p |l>)(<k| + p* <l|) / 2 for
    k < l and p in (1, i): an informationally complete frame."""
    eye = np.eye(d, dtype=complex)
    vectors = list(eye)
    for k in range(d):
        for l in range(k + 1, d):
            vectors += [(eye[k] + phase * eye[l]) / np.sqrt(2.0) for phase in (1.0, 1.0j)]
    return np.array([np.outer(v, v.conj()) for v in vectors])


def _hermitian_coordinates(m):
    """The d^2 real coordinates of each Hermitian matrix in a stack: the
    diagonal, then the real and imaginary parts of the strict upper triangle."""
    rows, cols = np.triu_indices(m.shape[-1], 1)
    upper = m[..., rows, cols]
    diagonal = np.real(np.diagonal(m, axis1=-2, axis2=-1))
    return np.concatenate([diagonal, np.real(upper), np.imag(upper)], axis=-1)


def frame_witness_game(witness, d):
    """States and payoffs of the witness game by frame decomposition.

    Solves sum_s payoffs[s, k] sigma_s^T = W_k / d over the ``probe_frame``
    states sigma_s, for each output block ``W_k[i, j] = witness[i*d+k, j*d+k]``;
    the replaced construction of ``game_from_witness``.
    """
    frame = probe_frame(d)
    blocks = np.stack([witness.reshape(d, d, d, d)[:, k, :, k] for k in range(d)])
    frame_matrix = _hermitian_coordinates(np.swapaxes(frame, -1, -2)).T
    targets = _hermitian_coordinates(blocks).T / d
    payoffs = np.linalg.solve(frame_matrix, targets)
    residual = float(np.max(np.abs(frame_matrix @ payoffs - targets)))
    if residual > 1e-9:
        raise RuntimeError(f"frame decomposition did not close; residual {residual:.3e}")
    return frame, payoffs


def loop_payoff(choi, states, payoffs):
    """Expected game score, one channel output per state.

    The output of sigma is d sum_ij sigma[i, j] J_ij, with J_ij the (i, j)
    block of the trace-one Choi matrix.
    """
    d = len(states[0])
    total = 0.0
    for sigma, row in zip(states, payoffs):
        output = sum(
            d * sigma[i, j] * choi[i * d:(i + 1) * d, j * d:(j + 1) * d]
            for i in range(d)
            for j in range(d)
        )
        total += float(row @ np.real(np.diag(output)))
    return total


def loop_witness_operator(states, payoffs):
    """d sum_s sum_j payoffs[s, j] sigma_s^T (x) |j><j|, one term at a time."""
    d = len(states[0])
    w = np.zeros((d * d, d * d), dtype=complex)
    for sigma, row in zip(states, payoffs):
        for j in range(d):
            marker = np.zeros((d, d))
            marker[j, j] = 1.0
            w += row[j] * np.kron(sigma.T, marker)
    return d * w


def gram_affine_projection(a, b, w):
    """Projection of ``w`` onto ``{x : a x = b}`` through the Gram matrix.

    Returns ``(x, mu)`` with ``mu = G^+ (a w - b)`` and ``x = w - a^T mu``,
    where ``G = a a^T`` and its eigenvalues at or below 1e-12 of the largest
    count as zero in the pseudoinverse.  At penalty ``rho`` the multiplier
    gives the dual vector ``y = -rho mu`` of an ADMM affine step, with dual
    slack ``c - a^T y`` and dual objective ``b^T y``.
    """
    evals, vecs = np.linalg.eigh(a @ a.T)
    cutoff = np.max(evals, initial=0.0) * 1e-12 + 1e-300
    inv = np.where(evals > cutoff, 1.0 / np.maximum(evals, cutoff), 0.0)
    mu = vecs @ (inv * (vecs.T @ (a @ w - b)))
    return w - a.T @ mu, mu


# The robustness path that the interior-point solver replaced: the output-block
# program stated to the package's generic ADMM (``crolab.sdp``, imported where
# it is used), with its solver blocks repaired to an interval as before.  The
# cross-check then runs a different algorithm from the value it checks.


def _offdiagonal(m):
    return m - np.diag(np.diag(m))


def _row_excess(m):
    return np.diag(np.diag(m)) - np.trace(m) * np.eye(len(m)) / len(m)


def admm_block_problem(choi, d):
    """The output-block program as an ``SdpProblem`` with variables S0..S{d-1}.

    Minimize sum_k tr S_k over S_k >= 0 with offdiag S_k = -offdiag B_k and
    equal row sums sum_k S_k[i, i], where ``B_k[i, j] = choi[i*d+k, j*d+k]``.
    """
    from crolab.sdp import SdpProblem

    blocks = choi.reshape(d, d, d, d)
    names = [f"S{k}" for k in range(d)]
    problem = SdpProblem()
    for k, name in enumerate(names):
        problem.add_var(name, d)
        problem.add_psd([(name, None, d)])
        problem.add_eq([(name, _offdiagonal, d)], -_offdiagonal(blocks[:, k, :, k]))
    problem.minimize({name: np.eye(d) for name in names})
    problem.add_eq([(name, _row_excess, d) for name in names], np.zeros((d, d)))
    return problem


def admm_block_robustness(channel):
    """Certified interval ``(lower, upper)`` of the robustness by the ADMM.

    The primal blocks get -B_k's off-diagonals, equal row sums and
    max(0, -lambda_min) on each diagonal; the dual blocks are PSD-clipped,
    their diagonals raised to the largest across k and rescaled to sum d.
    A dual pairing below one gives way to the identity at zero.
    """
    from crolab.sdp import extract_dual_witness, solve

    d = channel.dim
    blocks = np.stack([channel.choi.reshape(d, d, d, d)[:, k, :, k] for k in range(d)])
    solution = solve(admm_block_problem(channel.choi, d))
    if solution.status != "optimal":
        raise RuntimeError(f"robustness ADMM ended with status {solution.status!r}")

    s = np.stack([solution.variables[f"S{k}"] for k in range(d)])
    off = ~np.eye(d, dtype=bool)
    s[:, off] = -blocks[:, off]
    rows = np.real(np.einsum("kii->i", s))
    s[:, range(d), range(d)] -= (rows - rows.mean()) / d
    s[:, range(d), range(d)] += np.maximum(0.0, -np.linalg.eigvalsh(s)[:, :1])
    upper = float(np.real(np.einsum("kii->", s)))

    w = np.stack([extract_dual_witness(solution, k) for k in range(d)])
    evals, vecs = np.linalg.eigh(w)
    w = (vecs * np.clip(evals, 0.0, None)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    entries = np.real(w[:, range(d), range(d)])
    y = entries.max(axis=0)
    w[:, range(d), range(d)] += y - entries
    w *= d / y.sum()
    lower = float(np.real(np.einsum("kij,kji->", w, blocks))) - 1.0
    return max(lower, 0.0), upper


def decode_pair_matrix(node):
    """The replaced spec decoder: a matrix of ``[re, im]`` number pairs read
    one ``complex(re, im)`` at a time, rows checked for equal width."""
    if not isinstance(node, list) or not node:
        raise ValueError("expected a non-empty nested array")
    rows = []
    for row in node:
        if not isinstance(row, list) or not row or len(row) != len(node[0]):
            raise ValueError("rows must be non-empty arrays of one width")
        entries = []
        for pair in row:
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) for x in pair)
            ):
                raise ValueError("complex entries must be [re, im] number pairs")
            entries.append(complex(pair[0], pair[1]))
        rows.append(entries)
    return np.array(rows, dtype=complex)
