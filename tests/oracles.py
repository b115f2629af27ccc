"""Independent reference computations used to pin expected values in tests.

Everything in this module is built from numpy alone and deliberately avoids
importing the package under test, with exceptions that keep replaced paths:
``SdpProblem`` and ``canonical`` are the generic front end of
``crolab.sdp`` that learned each structure map by probing it, and
``structured_problem`` states the cross-check programs through it;
``admm_solve`` is the consensus ADMM that ``crolab.sdp.solve`` ran before
its interior-point method, over the package's canonical form;
``admm_block_robustness`` states the robustness to that ADMM;
``interior_point_intervals`` solves every robustness problem by the
interior point alone, in the run that ``crolab.measures`` made before it
solved all of them in one loop over certified points, with or without
the screen that spares the repair of iterates whose gap cannot close
the interval;
``certified_loop_by_problem`` runs the loop over certified points one
problem at a time, each with its own record of ends;
``null_space_hkm_step`` is the Newton step that ``crolab.measures`` took
in the dense null-space basis ``row_sum_basis`` before it stated the step
by its d + 1 multipliers;
``sweep_per_point`` runs the sweep one ``Channel`` at a time;
``load_spec_node_by_node`` loads a CLI spec with a ``Channel`` at every
node, as ``crolab.cli`` did before it multiplied Kraus leaves into one
product list;
``eb_ppt_verdict`` is the PPT screen that ``crolab.cro.eb_ppt_test`` ran
on every channel before one-Kraus channels read its minimum in closed form;
``two_mask_verdict`` is the basis-class test that ``crolab.cro`` ran by
dephasing both sides of the identity and subtracting them, before it read
each residual from the entry sets where the two sides differ;
``probe_search_witness`` is the membership witness that ``crolab.cro``
searched for over all of ``probe_frame`` before it read one off the
residual's largest entry;
and ``property_suite_per_channel`` is the property suite that built every
mixture, sample and image as a ``Channel``.  The
robustness oracles solve the same question as the production solvers but
through different mechanisms (bisection over alternating projections, the
ADMM), so agreement between them is meaningful evidence rather than a
tautology.
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


def choi_image(m, rho):
    """N(rho)[k, l] = d sum_ij rho[i, j] m[(i,k),(j,l)] for the map N with
    trace-1 Choi array m."""
    d = rho.shape[-1]
    return d * np.einsum("ij,ikjl->kl", rho, m.reshape(d, d, d, d))


def probe_search_witness(diff, d):
    """The first ``probe_frame`` state whose image under the map with Choi
    array ``diff`` has the largest entry, all d^2 images from one stacked
    product: O(d^6)."""
    frame = probe_frame(d)
    realigned = diff.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    images = d * (frame.reshape(-1, d * d) @ realigned)
    return frame[int(np.argmax(np.max(np.abs(images), axis=1)))]


def _hermitian_coordinates(m):
    """The d^2 real coordinates of each Hermitian matrix in a stack: the
    diagonal, then the real and imaginary parts of the strict upper triangle."""
    rows, cols = np.triu_indices(m.shape[-1], 1)
    upper = m[..., rows, cols]
    diagonal = np.real(np.diagonal(m, axis1=-2, axis2=-1))
    return np.concatenate([diagonal, np.real(upper), np.imag(upper)], axis=-1)


def result_witness_game(channel):
    """The replaced ``game._witness_game``: the witness game read off the
    d^2 x d^2 witness of ``robustness(channel)``, re-blocked, and that
    result.  Returns (states, payoffs, result)."""
    from crolab.channels import choi_output_blocks
    from crolab.measures import robustness

    d = channel.dim
    result = robustness(channel)
    lam, vecs = np.linalg.eigh(choi_output_blocks(result.witness, d))
    outcome, index = np.nonzero(lam > lam[:, -1:] * d * np.finfo(float).eps)
    v = vecs[outcome, :, index].conj()
    payoffs = np.zeros((len(outcome), d))
    payoffs[np.arange(len(outcome)), outcome] = lam[outcome, index] / d
    return v[:, :, None] * v[:, None, :].conj(), payoffs, result


def state_stack_game_report(channel):
    """The replaced report of ``crolab game``: the six numbers read off the
    state stack of ``result_witness_game``, validated by
    ``game.certified_game`` and scored by ``game.payoff``.  Returns the
    report and that game."""
    from crolab.game import certified_game, payoff

    states, payoffs, result = result_witness_game(channel)
    game = certified_game(channel.dim, states, payoffs)
    score = payoff(channel, game)
    ratio = score / game.normalization["max"]
    one_plus_r = 1.0 + result.value
    report = {
        "payoff": score,
        "qccro_max": game.normalization["max"],
        "qccro_min": game.normalization["min"],
        "advantage_ratio": ratio,
        "one_plus_R": one_plus_r,
        "gap": abs(ratio - one_plus_r),
    }
    return report, game


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


# The generic front end that ``crolab.sdp`` had before programs were stated
# by their constraint rows: a program over named Hermitian variables, with
# each constraint a sum of real-linear maps, and its translation to a
# ``crolab.sdp.ConicProgram`` that learns each map's matrix by applying it
# to every svec basis matrix of its input side.


class SdpProblem:
    """Container for one SDP; build with add_var / minimize / add_eq / add_psd.

    A term is (variable name, real-linear map on Hermitian matrices or None
    for the identity, output matrix side).
    """

    def __init__(self):
        self.var_sides = {}
        self.objective = {}
        self.objective_offset = 0.0
        self.equalities = []  # (terms, target)
        self.psd_constraints = []  # (terms, offset or None)

    def add_var(self, name, side):
        if name in self.var_sides:
            raise ValueError(f"variable {name!r} already declared")
        self.var_sides[name] = int(side)

    def minimize(self, terms, offset=0.0):
        from crolab.linalg import hermitianize

        for name, coeff in terms.items():
            side = self.var_sides[name]
            coeff = np.asarray(coeff, dtype=complex)
            if coeff.shape != (side, side):
                raise ValueError(f"objective coefficient for {name!r} has wrong shape")
            self.objective[name] = hermitianize(coeff)
        self.objective_offset = float(offset)

    def add_eq(self, terms, target):
        from crolab.linalg import hermitianize

        out = terms[0][2]
        target = np.asarray(target, dtype=complex)
        if target.shape != (out, out):
            raise ValueError(f"equality target shape {target.shape} != ({out}, {out})")
        self.equalities.append((list(terms), hermitianize(target)))

    def add_psd(self, terms, offset=None):
        """Constrain sum of terms plus offset to the PSD cone; returns its index."""
        from crolab.linalg import hermitianize

        if offset is not None:
            offset = hermitianize(np.asarray(offset, dtype=complex))
        self.psd_constraints.append((list(terms), offset))
        return len(self.psd_constraints) - 1


def _materialize(fn, in_side, out_side, bases):
    """Real matrix of a Hermitian-to-Hermitian linear map in svec
    coordinates, from its images of the svec basis of its input side, which
    ``bases`` caches per side."""
    from crolab.linalg import hermitianize
    from crolab.sdp import svec, unsvec

    if fn is None:
        if in_side != out_side:
            raise ValueError("identity term needs equal input and output sides")
        return np.eye(in_side * in_side)
    if in_side not in bases:
        bases[in_side] = unsvec(np.eye(in_side * in_side), in_side)
    images = np.array([fn(m) for m in bases[in_side]], dtype=complex)
    return svec(hermitianize(images)).T


def canonical(problem):
    """The ``crolab.sdp.ConicProgram`` of an ``SdpProblem``.

    Each variable gets its columns in declaration order; every PSD
    constraint that is not a bare variable gets a slack block after the
    variables.  A and b keep every row the constraints produce, identically
    zero rows included: equality rows first, then L(X) - S = -F for each
    slack.  The dual block of a constraint ``X >= F`` is the PSD matrix
    pairing with F in the dual objective.
    """
    from crolab.sdp import ConicProgram, svec

    sides = problem.var_sides
    columns = {}
    width = 0
    for name, side in sides.items():
        columns[name] = slice(width, width + side * side)
        width += side * side

    plan = [(terms, target, None) for terms, target in problem.equalities]
    psd = []
    in_cone = set()
    for terms, offset in problem.psd_constraints:
        name, fn, side = terms[0]
        if len(terms) == 1 and fn is None and offset is None and name not in in_cone:
            in_cone.add(name)
            psd.append((columns[name], sides[name]))
        else:
            block = slice(width, width + side * side)
            width += side * side
            psd.append((block, side))
            target = -offset if offset is not None else np.zeros((side, side))
            plan.append((terms, target, block))

    rows, rhs = [np.zeros((0, width))], [np.zeros(0)]
    bases = {}
    for terms, target, slack in plan:
        out = terms[0][2]
        block = np.zeros((out * out, width))
        for name, fn, term_out in terms:
            if term_out != out:
                raise ValueError("mixed output sides inside one constraint")
            block[:, columns[name]] += _materialize(fn, sides[name], out, bases)
        if slack is not None:
            block[:, slack] -= np.eye(out * out)
        rows.append(block)
        rhs.append(svec(target))

    c = np.zeros(width)
    for name, coeff in problem.objective.items():
        c[columns[name]] = svec(coeff)
    return ConicProgram(
        c=c,
        offset=problem.objective_offset,
        a=np.concatenate(rows),
        b=np.concatenate(rhs),
        psd=tuple(psd),
        variables={name: (columns[name], side) for name, side in sides.items()},
    )


def structured_problem(floor, d, diagonal, by_blocks=True):
    """The replaced map statement of ``measures._structured_program``: the
    same program as an ``SdpProblem`` whose structure maps are Python
    callables, the diagonal one over d variables X_k placed in X by
    ``choi_from_output_blocks``.  Its ``canonical`` form has the built
    program's rows among identically zero ones.  With ``by_blocks`` false
    the diagonal program has one d^2-side variable instead, its off-block
    entries pinned to zero by the gap equalities: the statement before the
    diagonal program was stated over output blocks."""
    from crolab.channels import choi_from_output_blocks
    from crolab.linalg import dephase, partial_trace

    n = d * d
    dephased = () if diagonal else (1,)

    def gap(m):
        return dephase(m, [d, d], dephased) - dephase(m, [d, d], (0, 1))

    def marginal(m):
        return partial_trace(m, [d, d], 0) - np.trace(m) * np.eye(d) / d

    # Each variable with the map that places it in X.
    places = {
        f"x{k}": lambda m, u=unit: choi_from_output_blocks(np.multiply.outer(u, m))
        for k, unit in enumerate(np.eye(d))
    } if diagonal and by_blocks else {"x": lambda m: m}
    side = d if len(places) > 1 else n
    problem = SdpProblem()
    for name in places:
        problem.add_var(name, side)
        problem.add_psd([(name, None, side)])
    problem.minimize(dict.fromkeys(places, np.eye(side)), offset=float(np.real(np.trace(floor))))
    for fn, out in ((gap, n), (marginal, d)):
        terms = [(name, lambda m, f=fn, p=p: f(p(m)), out) for name, p in places.items()]
        problem.add_eq(terms, -fn(floor))
    return problem


# The consensus ADMM that ``crolab.sdp.solve`` ran before its interior-point
# method, kept as a second algorithm over the same canonical form (imported
# from ``crolab.sdp`` where it is used).  It alternates the affine step
# ``x = w - Q (Q^T w - t)`` onto {x : A x = b} with a projection onto the
# product of PSD cones (one batched eigendecomposition per block side), plus
# the scaled dual update, over-relaxation and residual-balancing penalty
# updates.  The dual slack ``c + rho (w - x)`` equals ``c - A^T y`` for a dual
# vector y, so dual feasibility is a cone distance and the dual value is
# ``offset - rho x.(w - x)``.  A best-snapshot score, a stall rule and an
# objective bound label the infeasible and unbounded programs.

# initial penalty, over-relaxation, iterations between residual checks
# (every fourth rebalances the penalty), feasibility mark of the stall rule
_RHO = 1.0
_OVER_RELAXATION = 1.7
_CHECK_EVERY = 25
_STALL_TOLERANCE = 1e-4


def _cone_project(canon, v):
    """Project onto the product cone (free entries pass through)."""
    from crolab.linalg import hermitianize, psd_part
    from crolab.sdp import svec, unsvec

    out = v.copy()
    for side, cols in canon.cones.items():
        out[cols] = svec(hermitianize(psd_part(unsvec(v[cols], side))))
    return out


def _cone_dual_distance(canon, s):
    """Max-norm distance of s from the dual cone (zero for free entries)."""
    from crolab.sdp import unsvec

    worst = float(np.max(np.abs(s[canon.free]), initial=0.0))
    for side, cols in canon.cones.items():
        w = np.linalg.eigvalsh(unsvec(s[cols], side))
        worst = max(worst, float(-np.min(w[:, 0])))
    return worst


def _row_space(a, b):
    """Orthonormal basis Q of A's row space, and t with Q t = A^+ b, from
    the eigendecomposition of A A^T over every row of A, zero rows included
    (``crolab.sdp._row_space`` skips those): the ADMM's iterates stay the
    replaced solver's, bit for bit."""
    w, u = np.linalg.eigh(a @ a.T)
    keep = w > np.max(w, initial=0.0) * 1e-12 + 1e-300
    scale = 1.0 / np.sqrt(w[keep])
    return (a.T @ u[:, keep]) * scale, scale * (u[:, keep].T @ b)


def admm_solve(canon, options=None):
    """Solve a ``crolab.sdp.ConicProgram`` by the ADMM; an ``SdpSolution``
    whose ``iterations`` counts ADMM iterations.  Without ``options`` it
    runs at the ADMM's own default gap tolerance, 1e-7."""
    from crolab.sdp import SdpSolution, SolverOptions, unsvec

    opts = options or SolverOptions(tol_gap=1e-7)
    if opts.max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {opts.max_iters}")
    q, t = _row_space(canon.a, canon.b)
    b_scale = 1.0 + float(np.max(np.abs(canon.b), initial=0.0))
    if np.max(np.abs(canon.a @ (q @ t) - canon.b), initial=0.0) > 1e-9 * b_scale:
        empty = {name: np.zeros((side, side), dtype=complex) for name, (_, side) in canon.variables.items()}
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
        obj_p = float(c @ z) + canon.offset
        obj_d = canon.offset - rho * float(x @ (w - x))
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
            name: unsvec(z_best[block], side) for name, (block, side) in canon.variables.items()
        },
        psd_duals=[unsvec(s_best[block], side) for block, side in canon.psd],
        residuals={"primal_feas": primal_feas, "dual_feas": dual_feas, "gap": gap},
        iterations=iters_done,
    )


# The robustness path that the interior-point solver of ``crolab.measures``
# replaced: the output-block program on the ADMM above, with its solver
# blocks repaired to an interval as before.  The cross-check then runs a
# different algorithm from the value it checks.


def _offdiagonal(m):
    return m - np.diag(np.diag(m))


def _row_excess(m):
    return np.diag(np.diag(m)) - np.trace(m) * np.eye(len(m)) / len(m)


def admm_block_problem(choi, d):
    """The output-block program as an ``SdpProblem`` with variables S0..S{d-1}.

    Minimize sum_k tr S_k over S_k >= 0 with offdiag S_k = -offdiag B_k and
    equal row sums sum_k S_k[i, i], where ``B_k[i, j] = choi[i*d+k, j*d+k]``.
    """
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
    d = channel.dim
    blocks = np.stack([channel.choi.reshape(d, d, d, d)[:, k, :, k] for k in range(d)])
    solution = admm_solve(canonical(admm_block_problem(channel.choi, d)))
    if solution.status != "optimal":
        raise RuntimeError(f"robustness ADMM ended with status {solution.status!r}")

    s = np.stack([solution.variables[f"S{k}"] for k in range(d)])
    off = ~np.eye(d, dtype=bool)
    s[:, off] = -blocks[:, off]
    rows = np.real(np.einsum("kii->i", s))
    s[:, range(d), range(d)] -= (rows - rows.mean()) / d
    s[:, range(d), range(d)] += np.maximum(0.0, -np.linalg.eigvalsh(s)[:, :1])
    upper = float(np.real(np.einsum("kii->", s)))

    w = np.stack(solution.psd_duals[:d])
    evals, vecs = np.linalg.eigh(w)
    w = (vecs * np.clip(evals, 0.0, None)[:, None, :]) @ vecs.conj().swapaxes(-1, -2)
    entries = np.real(w[:, range(d), range(d)])
    y = entries.max(axis=0)
    w[:, range(d), range(d)] += y - entries
    w *= d / y.sum()
    lower = float(np.real(np.einsum("kij,kji->", w, blocks))) - 1.0
    return max(lower, 0.0), upper


def interior_point_intervals(chois, screen=True):
    """Certified intervals ``(lower, upper)`` of the robustness of a
    (batch, d^2, d^2) Choi stack, all by the interior point, and the
    witnesses behind the lower ends.

    This is the interior-point run of ``measures._solve_blocks`` before it
    became one loop over certified points, on the whole stack: from p =
    (lambda_max(B) + 1) 1 and W_k = I, each iterate repaired by
    ``measures._certify`` and the best ends seen kept; a problem stops when
    its interval is at most ``_TARGET_WIDTH`` (1 + upper) wide, when its
    own factorization failed, or after ``_MAX_STEPS`` steps.  With
    ``screen``, a step's ends are kept only for the problems that
    ``measures._screen`` passes, whose factorization failed, or at the
    last step, the rule of ``_solve_blocks``; without it, every iterate
    counts, as before that screen.  Every iterate is repaired either way.
    A lower end below zero gives way to zero and the identity witness.
    """
    from crolab.channels import choi_from_output_blocks, choi_output_blocks
    from crolab.measures import (
        _MAX_STEPS,
        _TARGET_WIDTH,
        _certify,
        _hkm_steps,
        _screen,
        _slack,
    )

    n, d = len(chois), int(round(np.sqrt(chois.shape[-1])))
    blocks = np.ascontiguousarray(choi_output_blocks(chois, d), dtype=complex)
    solved = {"upper": np.empty(n), "lower": np.empty(n)}
    solved["dual"] = np.empty(blocks.shape, dtype=complex)
    index = np.arange(n)
    top = np.linalg.eigvalsh(blocks)[..., -1].max(axis=-1) + 1.0
    p = np.repeat(top, d * d).reshape(n, d, d)
    w = np.broadcast_to(np.eye(d, dtype=complex), blocks.shape).copy()
    best = failed = None
    for step in range(_MAX_STEPS + 1):
        check = np.ones(len(p), dtype=bool)
        s = _slack(blocks, p)
        if screen and best is not None and step < _MAX_STEPS:
            check = _screen(s, w, best["upper"])
            if failed is not None:
                check |= failed
        ends = _certify(blocks, s, p, w)
        if best is None:
            best = ends
        upper = check & (ends["upper"] < best["upper"])
        lower = check & (ends["lower"] > best["lower"])
        for keys, better in ((("upper", "primal", "p"), upper), (("lower", "dual", "w"), lower)):
            for key in keys:
                best[key][better] = ends[key][better]
        stop = best["upper"] - best["lower"] <= _TARGET_WIDTH * (1.0 + best["upper"])
        if failed is not None:
            stop |= failed
        if step == _MAX_STEPS:
            stop[:] = True
        if stop.any():
            for key, value in solved.items():
                value[index[stop]] = best[key][stop]
            if stop.all():
                break
            keep = ~stop
            best = {key: value[keep] for key, value in best.items()}
            index, blocks, p, w, s = index[keep], blocks[keep], p[keep], w[keep], s[keep]
        dp, dw, failed = _hkm_steps(s, w)
        p, w = p + dp, w + dw
    below = ~(solved["lower"] >= 0.0)
    dual = np.where(below[:, None, None, None], np.eye(d), solved["dual"])
    return np.where(below, 0.0, solved["lower"]), solved["upper"], choi_from_output_blocks(dual)


def certified_loop_by_problem(chois):
    """``measures._solve_blocks`` on the output blocks of a (batch, d^2,
    d^2) Choi stack, one problem at a time, each with its own record of
    ends: (upper, primal, dual, residuals), one entry per problem.

    A problem visits the three fixed points, each judged on its own ends,
    then the steps of ``measures._hkm_steps``; a step's repaired ends
    replace the recorded ones where they are better, once
    ``measures._screen`` passes, the factorization failed, or at the last
    step.  It stops at the first interval at most ``_TARGET_WIDTH`` (1 +
    upper) wide, at a failed factorization, or after ``_MAX_STEPS`` steps.
    The residuals are read off the p and W behind the ends, and a lower end
    below zero gives way to zero and the identity witness.
    """
    from crolab.channels import choi_output_blocks
    from crolab.measures import (
        _MAX_STEPS,
        _TARGET_WIDTH,
        _certify,
        _diagonal_point,
        _hkm_steps,
        _interior_start,
        _running_sum,
        _screen,
        _singular_vector_point,
        _slack,
    )

    def narrow(ends):
        return ends["upper"][0] - ends["lower"][0] <= _TARGET_WIDTH * (1.0 + ends["upper"][0])

    d = int(round(np.sqrt(chois.shape[-1])))
    records = []
    for choi in chois:
        blocks = np.ascontiguousarray(choi_output_blocks(choi[None], d))
        for point in (_singular_vector_point, _diagonal_point, _interior_start):
            p, w = point(blocks)
            s = _slack(blocks, p)
            best = _certify(blocks, s, p, w)
            if narrow(best):
                break
        else:
            for step in range(1, _MAX_STEPS + 1):
                dp, dw, failed = _hkm_steps(s, w)
                p, w = p + dp, w + dw
                s = _slack(blocks, p)
                failed = failed is not None and bool(failed[0])
                if failed or step == _MAX_STEPS or _screen(s, w, best["upper"])[0]:
                    ends = _certify(blocks, s, p, w)
                    if ends["upper"][0] < best["upper"][0]:
                        best.update({key: ends[key] for key in ("upper", "primal", "p")})
                    if ends["lower"][0] > best["lower"][0]:
                        best.update({key: ends[key] for key in ("lower", "dual", "w")})
                if failed or narrow(best):
                    break
        records.append(best)
    upper, lower, primal, dual, p, w = (
        np.concatenate([record[key] for record in records])
        for key in ("upper", "lower", "primal", "dual", "p", "w")
    )
    below = ~(lower >= 0.0)
    lower = np.where(below, 0.0, lower)
    dual = np.where(below[:, None, None, None], np.eye(d), dual)
    width = np.maximum(upper - lower, 0.0)
    row_sums = _running_sum(p.swapaxes(-1, -2))
    w_diagonals = np.real(np.einsum("...ii->...i", w))
    y = _running_sum(w_diagonals.swapaxes(-1, -2)) / d
    residuals = [
        {
            "primal_feas": float(rows.max() - rows.min()),
            "dual_feas": float(max(np.abs(diagonals - shared).max(), abs(_running_sum(shared) - d))),
            "gap": float(wp / (1.0 + abs(up) + abs(lo))),
            "witness_pairing": float(wp),
        }
        for rows, diagonals, shared, up, lo, wp in zip(row_sums, w_diagonals, y, upper, lower, width)
    ]
    return upper, primal, dual, residuals


def row_sum_basis(d):
    """Orthonormal basis N of {p : sum_k p[k, i] equal for all i}.

    p is flattened k-major.  The complement is spanned by the vectors
    1 (x) a with sum_i a_i = 0, whose projector is (11^T / d) (x) (I - 11^T
    / d); N holds the eigenvectors of the other eigenvalue.  At d = 1 the
    complement is empty and N is the whole space.
    """
    uniform = np.full((d, d), 1.0 / d)
    complement = np.kron(uniform, np.eye(d) - uniform)
    w, v = np.linalg.eigh(np.eye(d * d) - complement)
    return v[:, w > 0.5]


def null_space_hkm_step(s, w):
    """The Newton step of ``crolab.measures._hkm_step`` stated in the basis
    N of ``row_sum_basis``: p = N z, and N^T diag(W) = f = N^T 1 is the
    dual constraint.  A direction with target T has dW = T - W - sym(W dS
    S^-1), and N^T diag(W + dW) = f fixes dz by the Schur complement M dz =
    N^T diag(T) - f, with M = N^T blockdiag_k Re(S_k^-1 o W_k^T) N, a dense
    matrix of side d^2 - d + 1 solved twice per step.  Step lengths, mu and
    sigma are those of the package's step.  Returns the steps of p and W.
    """
    from crolab.linalg import _TO_BOUNDARY, hermitianize
    from crolab.measures import _pairing

    n, d = s.shape[:2]
    basis = row_sum_basis(d)
    f = basis.sum(axis=0)
    roots = np.linalg.inv(np.linalg.cholesky(np.concatenate([s, w], axis=1)))
    roots_h = roots.conj().swapaxes(-1, -2)
    s_inv = roots_h[:, :d] @ roots[:, :d]
    h = np.real(s_inv * w.swapaxes(-1, -2))
    columns = basis.reshape(d, d, -1)
    schur = basis.T @ np.einsum("bkil,klm->bkim", h, columns).reshape(n, d * d, -1)
    eye = np.eye(d)

    def direction(target):
        diag = np.real(np.einsum("...ii->...i", target)).reshape(n, d * d, 1)
        rhs = basis.T @ diag - f[:, None]
        dp = (basis @ np.linalg.solve(schur, rhs)).reshape(n, d, d)
        dw = target - w - hermitianize(w * dp[:, :, None, :] @ s_inv)
        ds = dp[..., None] * eye
        ratios = roots @ np.concatenate([ds, dw], axis=1) @ roots_h
        lowest = np.linalg.eigvalsh(ratios).min(axis=(1, 2))
        alpha = -_TO_BOUNDARY / np.minimum(lowest, -_TO_BOUNDARY)
        return dp, ds, dw, alpha[:, None, None, None]

    mu = _pairing(s, w) / (d * d)
    _, ds, dw, alpha = direction(np.zeros_like(w))
    ratio = _pairing(s + alpha * ds, w + alpha * dw) / (d * d) / mu
    sigma_mu = [r**3 * m for r, m in zip(ratio.tolist(), mu.tolist())]
    dp, _, dw, alpha = direction(
        np.array(sigma_mu).reshape(n, 1, 1, 1) * s_inv - hermitianize(dw @ ds @ s_inv)
    )
    return alpha[..., 0] * dp, alpha * dw


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


def choi_of_kraus(ops):
    """The replaced Kraus-to-Choi accumulation: starting from zero, add the
    outer product of vec(K^T) with itself for each operator in order, then
    divide by d."""
    d = ops[0].shape[0]
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in ops:
        w = k.T.reshape(-1)
        choi += np.outer(w, w.conj())
    return choi / d


def validate_choi_one(choi, tol, kraus=None):
    """The replaced ``Channel`` checks, on one Choi array at a time: its
    Hermitian part, or the ValueError of the first check it fails."""
    choi = np.asarray(choi, dtype=complex)
    dim = int(round(np.sqrt(choi.shape[0])))
    if kraus is not None:
        comp = sum(k.conj().T @ k for k in kraus)
        dev = float(np.max(np.abs(comp - np.eye(dim))))
        if dev > tol:
            raise ValueError(f"kraus completeness violated by {dev:.3e} (tol={tol:g})")
    if not np.max(np.abs(choi - choi.conj().T)) <= tol:
        raise ValueError(f"choi matrix is not Hermitian within tol={tol:g}")
    tr = float(np.real(np.trace(choi)))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"choi trace {tr:.12g} is not 1 within tol={tol:g}")
    marginal = np.trace(choi.reshape(dim, dim, dim, dim), axis1=1, axis2=3)
    dev = float(np.max(np.abs(marginal - np.eye(dim) / dim)))
    if dev > tol:
        raise ValueError(
            f"reference marginal deviates from I/d by {dev:.3e} (tol={tol:g}); "
            "the map is not trace preserving"
        )
    choi = 0.5 * (choi + choi.conj().T)
    min_eig = float(np.linalg.eigvalsh(choi)[0])
    if min_eig < -max(tol, 1e-7):
        raise ValueError(f"choi matrix has negative eigenvalue {min_eig:.3e}")
    return choi


def load_spec_node_by_node(node, where, tol):
    """The replaced spec loader: a validated ``Channel`` at every node of a
    spec that ``crolab.cli._spec_work`` has checked, each composition and
    tensor built by ``compose`` and ``tensor`` from its children's."""
    from functools import reduce

    from crolab.channels import Channel, channel_from_kraus, compose, tensor, unitary_channel
    from crolab.cli import SpecError, _as_complex_array, _gate_unitary

    kind = node["kind"]
    if kind == "kraus":
        dim = node["dim"]
        ops = _as_complex_array(node.get("operators"), f"{where}.operators", 3)
        if ops.shape[1:] != (dim, dim):
            raise SpecError(f"{where}.operators: shape {ops.shape[1:]} does not match dim {dim}")
        return channel_from_kraus(ops, tol=tol)
    if kind == "choi":
        dim = node["dim"]
        matrix = _as_complex_array(node.get("matrix"), f"{where}.matrix", 2)
        if matrix.shape != (dim * dim, dim * dim):
            raise SpecError(
                f"{where}.matrix: shape {matrix.shape} does not match "
                f"dim {dim} (need {dim * dim}x{dim * dim})"
            )
        return Channel(matrix, tol=tol)
    if kind == "gate":
        return unitary_channel(_gate_unitary(node, where), tol=tol)
    children = [
        load_spec_node_by_node(child, f"{where}.children[{k}]", tol)
        for k, child in enumerate(node["children"])
    ]
    if kind == "composition":
        return reduce(lambda acc, nxt: compose(nxt, acc, tol=tol), children)
    return reduce(lambda acc, nxt: tensor(acc, nxt, tol=tol), children)


def eb_ppt_verdict(choi, d, tol):
    """The replaced PPT screen: the smallest eigenvalue of the Hermitian part
    of the realigned partial transpose of a Choi array, and the status it
    gives (NPT below -tol; PPT decisive only at d = 2); (status, minimum)."""
    t = choi.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)
    min_eig = float(np.linalg.eigvalsh(0.5 * (t + t.conj().T))[0])
    if min_eig < -tol:
        return "not_eb_confirmed", min_eig
    return ("eb_confirmed" if d == 2 else "inconclusive"), min_eig


# Subsystems that the dephasing acts on, on each side of a basis identity
# (0 the input, 1 the output): O D = D O D, O = D O D, D O = D O D, D O = O D.
BASIS_SIDES = {
    "cq": ((0,), (0, 1)),
    "qq": ((), (0, 1)),
    "qc": ((1,), (0, 1)),
    "dio": ((1,), (0,)),
}


def dephase_sides(choi, d, sides):
    """Zero every Choi entry J[(i,k),(j,l)] with i != j (side 0 listed) or
    k != l (side 1 listed)."""
    i, k, j, l = np.indices((d, d, d, d))
    keep = np.ones((d, d, d, d), dtype=bool)
    if 0 in sides:
        keep &= i == j
    if 1 in sides:
        keep &= k == l
    return np.where(keep, choi.reshape(d, d, d, d), 0.0).reshape(d * d, d * d)


def two_mask_verdict(choi, d, kind, tol):
    """The replaced basis-class test: both sides of the identity dephased,
    then subtracted; (member, residual, replacement, witness), the last two
    from ``crolab.cro``'s replacement matrix and witness on the difference."""
    from crolab.cro import _stochastic_from_choi, _witness

    lhs, rhs = (dephase_sides(choi, d, sides) for sides in BASIS_SIDES[kind])
    diff = lhs - rhs
    residual = float(np.max(np.abs(diff)))
    replacement = _stochastic_from_choi(choi, d, tol)
    if residual <= tol:
        return True, residual, replacement, None
    return False, residual, None, _witness(diff, d)


def entropy_terms_one(choi, d):
    """The terms p log2 p of the entropy measure of one channel, for the
    positive entries p of the Choi diagonal and of the output blocks'
    spectra, each clipped to [0, 1]: two arrays, in the order of the
    diagonal and of the blocks' ascending spectra."""

    def terms(p):
        p = np.clip(p, 0.0, 1.0)
        p = p[p > 0.0]
        return p * np.log2(p)

    blocks = np.einsum("ikjk->kij", choi.reshape(d, d, d, d))
    return terms(np.diag(choi).real), terms(np.linalg.eigvalsh(blocks).ravel())


def entropy_gap_one(choi, d):
    """The replaced per-channel entropy measure: the entropy in bits of the
    Choi diagonal minus that of the output blocks' spectra, each summed as
    one flat array of its positive terms by numpy's pairwise ``sum``,
    clamped at zero."""
    diagonal, spectra = entropy_terms_one(choi, d)
    return max(float(-np.sum(diagonal)) - float(-np.sum(spectra)), 0.0)


def sweep_per_point(points):
    """The replaced ``crolab sweep u-theta`` path: one ``named_gate``
    channel per grid point, and each one's ``robustness`` and
    ``relative_entropy_irreplaceability``.  Returns lists of theta,
    robustness, entropy and note, NaN values and the error message for a
    failed point."""
    from crolab.channels import named_gate
    from crolab.measures import relative_entropy_irreplaceability, robustness

    thetas = np.linspace(0.0, np.pi / 2, points)
    values, entropies, notes = [], [], []
    for theta in thetas:
        channel = named_gate("U", theta)
        try:
            value = robustness(channel).value
        except RuntimeError as exc:
            values.append(float("nan"))
            entropies.append(float("nan"))
            notes.append(str(exc))
        else:
            values.append(value)
            entropies.append(relative_entropy_irreplaceability(channel))
            notes.append("")
    return thetas.tolist(), values, entropies, notes


def property_suite_per_channel(channel, seed=0):
    """The replaced ``measure_property_suite``: mixtures, free-family
    samples and images as ``Channel`` objects, each sample's membership by
    ``is_qccro`` and each entropy by ``relative_entropy_irreplaceability``.
    Its body is the old one; it returns the same report."""
    from crolab.channels import (
        MAX_DIM,
        Channel,
        check_dim,
        choi_dephase_output,
        identity_channel,
        mix,
        random_channel,
        tensor,
    )
    from crolab.cro import _stochastic_from_choi, is_qccro, random_qccro
    from crolab.linalg import DEFAULT_TOL
    from crolab.measures import (
        _permute,
        _postcompose,
        relative_entropy_irreplaceability,
        robustness,
    )

    if not isinstance(channel, Channel):
        raise TypeError("measure_property_suite expects a Channel")
    d = channel.dim
    check_dim(d, "measure_property_suite")
    rng = np.random.default_rng(seed)
    report = {}

    channels = [channel] + [
        random_channel(d, seed=int(rng.integers(2**31))) for _ in range(2)
    ]
    pairs = ((0, 1), (1, 2))
    weights = [float(rng.uniform(0.2, 0.8)) for _ in pairs]
    mixtures = [
        mix([channels[first], channels[second]], [w, 1.0 - w])
        for (first, second), w in zip(pairs, weights)
    ]

    # Two concrete families of free transformations, as maps on Choi states.
    inner = random_channel(d, seed=int(rng.integers(2**31)))
    t = _stochastic_from_choi(inner.choi, d, DEFAULT_TOL)
    perm = rng.permutation(d)
    families = {
        "monotonicity_postcompose": lambda m: _postcompose(m, t),
        "monotonicity_permutation": lambda m: _permute(m, perm),
    }

    # Each family must map replaceable channels to replaceable channels and
    # commute with output dephasing; only then is its monotonicity check
    # meaningful.
    worst_membership = 0.0
    worst_commutation = 0.0
    for family in families.values():
        for _ in range(5):
            member = random_qccro(d, seed=int(rng.integers(2**31)))
            image = Channel(family(member.choi))
            worst_membership = max(worst_membership, is_qccro(image).residual)
        left = choi_dephase_output(family(channel.choi), d)
        right = family(choi_dephase_output(channel.choi, d))
        worst_commutation = max(
            worst_commutation, float(np.max(np.abs(left - right)))
        )
    images = [Channel(family(channel.choi)) for family in families.values()]

    # The base channels, the mixtures and the images, solved one by one.
    values = [robustness(ch).value for ch in channels + mixtures + images]
    pair_values, mixture_values, image_values = values[:3], values[3:5], values[5:]
    entropies = [relative_entropy_irreplaceability(ch) for ch in channels]
    base_value, base_entropy = pair_values[0], entropies[0]

    robustness_gaps = []
    entropy_gaps = []
    for (first, second), w, mixed, value in zip(pairs, weights, mixtures, mixture_values):
        bound = w * pair_values[first] + (1.0 - w) * pair_values[second]
        robustness_gaps.append(bound - value)
        entropy_bound = w * entropies[first] + (1.0 - w) * entropies[second]
        entropy_gaps.append(
            entropy_bound - relative_entropy_irreplaceability(mixed)
        )
    report["convexity_robustness"] = {
        "passed": min(robustness_gaps) >= -1e-5,
        "margin": float(min(robustness_gaps)),
    }
    report["convexity_relative_entropy"] = {
        "passed": min(entropy_gaps) >= -1e-6,
        "margin": float(min(entropy_gaps)),
    }
    report["free_family_verified"] = {
        "passed": worst_membership <= 1e-9 and worst_commutation <= 1e-9,
        "membership_residual": float(worst_membership),
        "commutation_residual": float(worst_commutation),
    }

    for name, value in zip(families, image_values):
        drop = base_value - value
        report[name] = {"passed": drop >= -1e-5, "margin": float(drop)}

    if 2 * d <= MAX_DIM:
        extended = tensor(channel, identity_channel(2))
        gap = abs(robustness(extended).value - base_value)
        report["extension_robustness"] = {
            "passed": gap <= 1e-5,
            "margin": float(gap),
        }
        entropy_gap = abs(
            relative_entropy_irreplaceability(extended) - base_entropy
        )
        report["extension_relative_entropy"] = {
            "passed": entropy_gap <= 1e-6,
            "margin": float(entropy_gap),
        }
    else:
        report["extension_robustness"] = {"passed": True, "skipped": True}
        report["extension_relative_entropy"] = {"passed": True, "skipped": True}

    report["passed"] = all(
        entry["passed"] for key, entry in report.items() if key != "passed"
    )
    return report
