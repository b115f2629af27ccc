"""Independent answers for the benchmark's checks, from numpy alone.

Nothing here imports crolab or its tests.  Conventions are those of the
crolab spec format: a channel on dimension d has the trace-one Choi matrix
``J[(i, j), (i', j')] = (1/d) sum_k K_k[j, i] conj(K_k[j', i'])`` with row
index ``i * d + j``, ``i`` the input (reference) digit and ``j`` the output
digit.  Pauli strings are base-4 digits over (I, X, Y, Z), qubit 0 leftmost
and slowest.
"""

import numpy as np

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
PAULI_LETTERS = "IXYZ"


# ----------------------------------------------------------------- channels


def choi_from_kraus(ops):
    d = ops[0].shape[1]
    w = np.stack([np.asarray(k, dtype=complex).T.reshape(-1) for k in ops])
    return (w.T @ w.conj()) / d


def kraus_from_choi(choi):
    d = int(round(np.sqrt(choi.shape[0])))
    lam, vecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    return [
        np.sqrt(d * lam[k]) * vecs[:, k].reshape(d, d).T
        for k in range(lam.size)
        if lam[k] > 1e-14
    ]


def superop_from_kraus(ops):
    """Row-major superoperator: vec(K rho K^dag) = (K (x) conj K) vec(rho)."""
    return sum(np.kron(k, k.conj()) for k in ops)


def blocks(choi, d):
    """The d input-side blocks of the output-dephased Choi matrix.

    ``blocks(J)[j][i, i'] = J[(i, j), (i', j)]``: what output ``j`` sees.
    """
    t = choi.reshape(d, d, d, d)
    return [t[:, j, :, j] for j in range(d)]


def qubit_unitary_robustness(u):
    """Closed form for qubit unitaries: (1/2) sum_j (sum_i |U_ij|)^2 - 1.

    For a 2x2 unitary this is 2 |U_00| |U_01|; for U(theta) = cos Z + sin X
    it reads |sin 2 theta|.  Extension by identities leaves it unchanged.
    """
    a = np.abs(np.asarray(u))
    return float(np.sum(a.sum(axis=0) ** 2) / 2.0 - 1.0)


def binary_entropy(p):
    p = min(max(float(p), 0.0), 1.0)
    if p in (0.0, 1.0):
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def _entropy_of_eigs(w):
    w = np.clip(np.real(w), 0.0, None)
    w = w[w > 1e-15]
    return float(-np.sum(w * np.log2(w)))


def relative_entropy_bits(choi, d):
    """S(fully dephased J) - S(output-dephased J), in bits."""
    full = _entropy_of_eigs(np.real(np.diag(choi)))
    partial = _entropy_of_eigs(
        np.concatenate([np.linalg.eigvalsh(b) for b in blocks(choi, d)])
    )
    return max(full - partial, 0.0)


# ------------------------------------------------------- membership masks


def mask_residuals(choi, d):
    """Largest Choi-entry deviation of each defining identity.

    With D the dephasing, O D keeps the entries with equal input digits,
    D O those with equal output digits, D O D the diagonal.  So cq
    (O D = D O D) is violated by entries with i = i', j != j'; qc
    (D O = D O D) by entries with j = j', i != i'; qq (O = D O D) by every
    off-diagonal entry; DIO (D O = O D) by entries in exactly one of the
    first two groups.
    """
    t = np.abs(choi).reshape(d, d, d, d)
    same_in = np.eye(d, dtype=bool)[:, None, :, None]
    same_out = np.eye(d, dtype=bool)[None, :, None, :]
    diag = same_in & same_out

    def worst(mask):
        vals = t[np.broadcast_to(mask, t.shape)]
        return float(vals.max()) if vals.size else 0.0

    cq = worst(same_in & ~diag)
    qc = worst(same_out & ~diag)
    return {"cqcro": cq, "qqcro": worst(~diag), "qccro": qc, "dio": max(cq, qc)}


def replacement_matrix(choi, d):
    """T[j, i] = d J[(i, j), (i, j)]: output statistics for basis input i."""
    return d * np.real(np.diag(choi)).reshape(d, d).T


def ppt_min_eigenvalue(choi, d):
    t = choi.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    return float(np.linalg.eigvalsh((t + t.conj().T) / 2)[0])


# --------------------------------------------------------- Pauli identity


def pauli_index(label):
    index = 0
    for ch in label:
        index = 4 * index + PAULI_LETTERS.index(ch)
    return index


def pauli_label(index, n):
    return "".join(
        PAULI_LETTERS[(index >> (2 * (n - 1 - q))) & 3] for q in range(n)
    )


def pauli_matrix(index, n):
    out = np.ones((1, 1), dtype=complex)
    for q in range(n):
        out = np.kron(out, PAULIS[(index >> (2 * (n - 1 - q))) & 3])
    return out


def pauli_measure_superop(index, n):
    """Superoperator of measuring Pauli string ``index`` and re-preparing.

    ``rho -> sum_s tr(P_s rho) P_s / rank(P_s)`` over the eigenprojectors
    P_s = (I +- P)/2; the identity string has the single projector I.
    """
    d = 2**n
    eye = np.eye(d, dtype=complex)
    if index == 0:
        projectors = [eye]
    else:
        p = pauli_matrix(index, n)
        projectors = [(eye + p) / 2, (eye - p) / 2]
    out = np.zeros((d * d, d * d), dtype=complex)
    for proj in projectors:
        rank = np.real(np.trace(proj))
        # tr(P rho) = vec(P^T) . vec(rho) in row-major vec
        out += np.outer(proj.reshape(-1), proj.T.reshape(-1)) / rank
    return out


def vqa_identity(kraus_ops, observables, tol):
    """First j with T_i O = T_i O T_j for every observable i, or None.

    Returns (j or None, residual of each candidate j), residuals measured as
    the largest Choi-entry deviation (superoperator entries divided by d).
    """
    d = kraus_ops[0].shape[0]
    n = int(round(np.log2(d)))
    s_o = superop_from_kraus(kraus_ops)
    lhs = [pauli_measure_superop(i, n) @ s_o for i in observables]
    residuals = []
    found = None
    for j in range(4**n):
        t_j = pauli_measure_superop(j, n)
        res = max(float(np.max(np.abs(l - l @ t_j))) for l in lhs) / d
        residuals.append(res)
        if found is None and res <= tol:
            found = j
    return found, residuals


# ------------------------------------------------------------- robustness


def robustness_interval(choi, d, gap=1e-10, max_newton=200):
    """Certified bracket [lower, upper] on the robustness, by interior point.

    Works on the block form of the measure: R + 1 is the least ``sum p`` over
    real ``p[i, j]`` with ``diag(p[:, j]) >= B_j`` for every output block
    ``B_j`` and equal row sums.  A log-barrier path-following method
    (Boyd & Vandenberghe, Convex Optimization, ch. 11) tracks the central
    path until the barrier gap d^2/t is below ``gap``.  Both ends are then
    certified independently of convergence: the upper end by a primal point
    made exactly feasible (block deficits and row-sum shortfalls added to
    the diagonal), the lower end by the dual point
    ``W_j = S_j^{-1}/t`` rescaled to share one diagonal ``y`` with
    ``sum y = d``, whose value ``sum_j tr(W_j B_j)`` bounds R + 1 from below
    by weak duality.
    """
    bs = [(b + b.conj().T) / 2 for b in blocks(choi, d)]
    m = d * d
    # vec index of p[i, j] is i * d + j; row sums equal <=> A p = 0.
    # Newton steps stay in the null space of A, which keeps them exact
    # where a bordered KKT solve loses accuracy near the boundary.
    a = np.zeros((d - 1, m))
    for i in range(1, d):
        a[i - 1, i * d:(i + 1) * d] = 1.0
        a[i - 1, 0:d] -= 1.0
    null = np.linalg.svd(a)[2][d - 1:].T
    p = np.full((d, d), max(np.linalg.eigvalsh(b)[-1] for b in bs) + 1.0)

    def slack(pm):
        return [np.diag(pm[:, j]) - bs[j] for j in range(d)]

    def barrier(pm):
        total = 0.0
        for s in slack(pm):
            w = np.linalg.eigvalsh(s)
            if w[0] <= 0.0:
                return np.inf
            total -= float(np.sum(np.log(w)))
        return total

    t = 1.0
    while True:
        for _ in range(max_newton):
            inv = [np.linalg.inv(s) for s in slack(p)]
            grad = np.empty((d, d))
            hess = np.zeros((m, m))
            for j, sj in enumerate(inv):
                grad[:, j] = t - np.real(np.diag(sj))
                idx = np.arange(d) * d + j
                hess[np.ix_(idx, idx)] = np.abs(sj) ** 2
            g = grad.reshape(-1)
            reduced = null.T @ hess @ null
            step = (null @ np.linalg.solve(reduced, -(null.T @ g))).reshape(d, d)
            decrement = -float(g @ step.reshape(-1))
            if decrement / 2.0 <= 1e-13:
                break
            f0 = t * p.sum() + barrier(p)
            s = 1.0
            while s > 1e-12:
                cand = p + s * step
                f1 = t * cand.sum() + barrier(cand)
                if f1 <= f0 - 0.25 * s * decrement:
                    break
                s *= 0.5
            p = p + s * step
        if m / t <= gap:
            break
        t *= 4.0

    # upper end: make p exactly feasible, then read off sum p
    upper_p = p.copy()
    for j, sj in enumerate(slack(upper_p)):
        upper_p[:, j] += max(0.0, -float(np.linalg.eigvalsh(sj)[0]))
    rows = upper_p.sum(axis=1)
    upper = d * float(rows.max())

    # lower end: rescale the barrier duals onto the dual feasible set
    duals = []
    for sj in slack(p):
        w, v = np.linalg.eigh(np.linalg.inv(sj) / t)
        duals.append((v * np.clip(w, 0.0, None)) @ v.conj().T)
    y = np.mean([np.real(np.diag(w)) for w in duals], axis=0)
    y *= d / y.sum()
    lower = 0.0
    for w, b in zip(duals, bs):
        scale = np.sqrt(y / np.real(np.diag(w)))
        lower += float(np.real(np.trace((scale[:, None] * w * scale[None, :]) @ b)))
    return lower - 1.0, upper - 1.0
