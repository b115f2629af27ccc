"""Quantitative measures of how far a channel is from classical replaceability.

Two measures are provided.  The robustness is the least amount of channel
mixing needed to push a channel into the measure-then-postprocess family.  It
is one semidefinite program over the output blocks of the Choi state with d^2
real unknowns, solved by one loop over certified points (``_solve_blocks``).
Its first points are closed forms: the top singular vector of the square
roots of the Choi diagonal, optimal for every unitary and for more
channels besides, then p = diag(B) with the identity witness, optimal for
every qc member, then the interior start.  The steps of a primal-dual
interior-point method (HKM direction, Mehrotra predictor-corrector) follow,
rather than the generic solver of ``sdp``, which only the cross-check
``robustness_equivalents`` loads; each solves one bordered system of side
d + 1 for its d + 1 multipliers, in O(d^4).  Every point is repaired to
exact feasibility, so it brackets the value in a certified interval that
comes with its witness, and a problem stops at the first point whose
interval is as narrow as the solver's target.  A step's iterate is
repaired only once its raw duality gap sum_k tr(S_k W_k), which bounds
the certified width from above, is within ``_SCREEN`` times that target
(``_screen``), or at the last step: before that, the repair's two
eigendecompositions could not stop the problem, and a stop the screen
misses costs one more step.  One run solves a whole stack of channels of
one dimension, in complex arithmetic: each problem has its own points,
centring, step length and stop rule, and gets the same result, bit for
bit, in a stack of any size.  ``robustness`` is a stack of one, and the
property suite maps Choi arrays and validates, solves and measures them
in one stack per dimension.  The CLI sweep builds, validates and measures
its whole grid as one stack: one array of Choi states, checked by
``channels.validate_choi_stack``, one solve (``_solve_chois``; every point
of the sweep family is a unitary, so the singular-vector point settles
it) and one batched entropy (``_entropy_gaps``, whose terms are computed
over the whole stack), with no per-point ``Channel`` or
``RobustnessResult``.  The relative entropy measure has a closed form:
the entropy gap between the fully dephased and the output-dephased Choi
states, read off the same output blocks (``channels.choi_output_blocks``).
Every measure accepts d <= ``channels.MAX_DIM`` = 32; ``robustness_equivalents``
stops at d = 8, where its d^2 x d^2 block reaches ``sdp.MAX_BLOCK_SIDE``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    MAX_DIM,
    Channel,
    _random_choi,
    check_dim,
    choi_dephase_output,
    choi_from_output_blocks,
    choi_output_blocks,
    identity_channel,
    tensor,
    validate_choi_stack,
)
from .cro import _random_qccro_choi, _stochastic_from_choi
from .linalg import _TO_BOUNDARY, DEFAULT_TOL, hermitianize, partial_trace, psd_part

# Interior-point robustness: step cap, target and accepted interval widths.
# Each step goes ``linalg._TO_BOUNDARY`` of the way to the cone boundary.
# An iterate is certified only once its raw gap is within ``_SCREEN`` times
# the target width (``_screen``).
_MAX_STEPS = 60
_TARGET_WIDTH = 1e-9
_SCREEN = 100.0
_ACCEPT_WIDTH = 1e-6


@dataclass(frozen=True)
class RobustnessResult:
    """Outcome of a robustness computation, certified by an interval.

    ``value`` is the upper end and ``value - residuals["witness_pairing"]``
    the lower end.  ``optimal_psi`` (trace 1 + value, dominating the Choi
    state J) and ``witness`` (pairing with J to 1 + the lower end) are
    exactly feasible points of the primal and dual programs; ``residuals``
    and ``status`` are the solver's, plus the interval width.
    """

    value: float
    optimal_psi: np.ndarray
    witness: np.ndarray
    residuals: dict
    status: str


def _structured_program(floor, d, diagonal):
    """The program min tr(psi) over structured psi dominating ``floor``, as
    an ``sdp.ConicProgram`` written down row by row.

    ``floor`` is the Choi state or its output dephasing.  The structure is
    the cone of output-measured channels: psi's output dephasing equals its
    full dephasing (or psi is outright diagonal when ``diagonal`` is set),
    and its input marginal is uniform.  The program's variable is the bare
    PSD matrix X = psi - floor: the objective is tr X + tr floor and each
    structure map L takes L(X) = -L(floor).  ``floor`` is positive, so psi
    is positive too.  In svec coordinates of X, the gap rows are the unit
    rows of the Re, then the Im, parts of the entries ((a, i), (b, i)) with
    a < b, in svec order; the marginal rows are those of partial_trace(X,
    [d, d], 0) - tr(X) I / d, diagonal row a with 1 - 1/d on (a, i) and
    -1/d on the other diagonal coordinates, and the Re and Im rows of (a,
    b) summing the entries ((a, i), (b, i)).  Only nonzero rows are kept.
    The diagonal program states X by its output blocks, d PSD variables X_k
    of side d with X = sum_k X_k (x) |k><k|: its columns are those of the
    coordinates the X_k fill.
    """
    from .sdp import ConicProgram, _upper_indices, svec

    n = d * d
    rows, cols = _upper_indices(n)
    # X's svec coordinate of the Re part of entry (r, c), r < c; the Im
    # part's is rows.size further on.
    coordinate = np.zeros((n, n), dtype=int)
    coordinate[rows, cols] = n + np.arange(rows.size)
    a, b, i = np.indices((d, d, d))
    real = coordinate[a * d + i, b * d + i]
    # The gap entries in svec order, (a, i, b), and the marginal's (a, b).
    gap = real.transpose(0, 2, 1)[(a < b).transpose(0, 2, 1)]
    pairs = real[a[..., 0] < b[..., 0]]
    gap, pairs = (np.concatenate([x, x + rows.size]) for x in (gap, pairs))
    a_rows = np.zeros((gap.size + d + len(pairs), n * n))
    a_rows[np.arange(gap.size), gap] = 1.0
    a_rows[gap.size : gap.size + d, :n] = -1.0 / d
    a_rows[gap.size + np.arange(d)[:, None], np.arange(n).reshape(d, d)] = 1.0 - 1.0 / d
    a_rows[gap.size + d + np.arange(len(pairs))[:, None], pairs] = 1.0
    marginal = partial_trace(floor, [d, d], 0) - np.trace(floor) * np.eye(d) / d
    b_rows = -np.concatenate([svec(floor)[gap], svec(marginal)])
    if diagonal:
        # X_k's coordinates as coordinates of X: the diagonal entries (a, k),
        # then the Re and Im parts of ((a, k), (b, k)), a < b.
        k = np.arange(d)[:, None]
        sub_rows, sub_cols = _upper_indices(d)
        block = coordinate[sub_rows * d + k, sub_cols * d + k]
        a_rows = a_rows[:, np.concatenate([np.arange(d) * d + k, block, block + rows.size], 1).ravel()]
    side, count = (d, d) if diagonal else (n, 1)
    psd = tuple((slice(j * side * side, (j + 1) * side * side), side) for j in range(count))
    nonzero = np.any(a_rows != 0.0, axis=1)
    return ConicProgram(
        c=np.tile(svec(np.eye(side)), count),
        offset=float(np.real(np.trace(floor))),
        a=a_rows[nonzero],
        b=b_rows[nonzero],
        psd=psd,
        variables=dict(zip([f"x{j}" for j in range(count)] if diagonal else ["x"], psd)),
    )


def _diagonals(x):
    """Writable view of the diagonals of the trailing square axes, several
    times cheaper than fancy indexing on small blocks."""
    return np.einsum("...ii->...i", x)


def _running_sum(x):
    """Sum over the last axis strictly from left to right."""
    return np.add.accumulate(x, axis=-1)[..., -1]


def _pairing(a, b, rows="bki"):
    """Re sum_k tr(A_k B_k) for each problem of two stacks of blocks.

    The products A_k[i, j] B_k[j, i] are summed by an einsum over the one
    index that ``rows`` leaves out, and the resulting rows from left to
    right: an einsum that also summed over the rows would choose its order
    from the shape of the whole stack, so a problem's pairing would depend
    on the stack around it.
    """
    partial = np.real(np.einsum(f"bkij,bkji->{rows}", a, b))
    return _running_sum(partial.reshape(len(a), -1))


def _certified_primal(s):
    """Repair primal blocks S_k = diag(p_k) - B_k to exact feasibility, for
    each problem.

    Each diagonal entry gives up its share of the excess of its row sum
    over the mean, and block k then takes -lambda_min on its diagonal, which
    keeps the row sums equal: every block ends PSD and singular, so no
    feasible shift of it lowers the trace.
    """
    d = s.shape[1]
    s = s.copy()
    diagonals = _diagonals(s)
    rows = np.einsum("bkii->bi", s.real)
    mean = rows.sum(axis=-1, keepdims=True) / d
    diagonals -= ((rows - mean) / d)[:, None]
    diagonals -= np.linalg.eigvalsh(s)[..., :1]
    return s


def _certified_dual(duals):
    """Repair dual blocks W_k to exact feasibility, for each problem.

    Each block is clipped to the PSD cone, its diagonal raised to
    y_i = max_k W_k[i, i], and all blocks rescaled so that sum_i y_i = d.
    """
    d = duals.shape[1]
    w = psd_part(duals)
    diagonals = _diagonals(w)
    entries = np.real(diagonals)
    # numpy sums the rows of an array that is not C-contiguous in an order
    # that can depend on their number, and a max over a strided view need
    # not come out C-contiguous.
    y = np.ascontiguousarray(entries.max(axis=-2))
    diagonals += y[:, None] - entries
    return w * (d / y.sum(axis=-1))[:, None, None, None]


def _slack(blocks, p):
    """The primal slack S_k = diag(p_k) - B_k of each problem of a stack."""
    s = -blocks
    _diagonals(s)[...] += p
    return s


def _screen(s, w, upper):
    """Which problems of a stack an iterate (S, W) may settle: those whose
    raw complementarity gap sum_k tr(S_k W_k) is at most ``_SCREEN`` times
    the target width of (1 + ``upper``), their best upper end so far.

    The steps keep the row sums of p equal and the W_k on one diagonal of
    trace d, up to rounding, so the raw gap is the primal objective less
    the dual one.  ``_certify`` lowers the primal end by the least
    eigenvalues of the S_k and leaves an interior W as it is: the certified
    width is at most the raw gap.  An iterate that fails the screen can
    stop its problem only when that repair closes the gap by more than
    ``_SCREEN``, as for R = 0 problems, whose S_k is nearly a multiple of
    I on the range of W_k; the problem then stops at a later step.  A
    missed stop costs a step, never a certificate.
    """
    return _pairing(s, w) <= _SCREEN * _TARGET_WIDTH * (1.0 + upper)


def _certify(blocks, p, w):
    """Candidates p and W of a stack of output-block programs, repaired to
    certified ends.

    Returns the slack S_k = diag(p_k) - B_k and each problem's entries:
    the upper end and the repaired S behind it (``primal``), the lower end
    and the repaired W behind it (``dual``), and p and W themselves.
    """
    s = _slack(blocks, p)
    primal = _certified_primal(s)
    dual = _certified_dual(w)
    return s, {
        "upper": _running_sum(np.einsum("bkii->bk", primal.real)),
        # Summed over k first: the order of the one-channel solver's einsum
        # over the strided block view, so lower ends and witnesses are the
        # ones earlier versions report, bit for bit.
        "lower": _pairing(dual, blocks, rows="bij") - 1.0,
        "primal": primal,
        "dual": dual,
        "p": p,
        "w": w,
    }


def _hkm_step(s, w):
    """One Mehrotra predictor-corrector step along the HKM direction, for
    each problem of a stack.

    The primal slack is S_k = diag(p_k) - B_k, with equal row sums of p;
    the dual W is a stack of d blocks.  A direction with target T (a
    Hermitian stack) has dW = T - W - sym(W dS S^-1), so diag(W_k + dW_k) =
    diag(T_k) - H_k dp_k, with H_k = Re(S_k^-1 o W_k^T) positive definite.
    The d + 1 multipliers are the diagonal y' that all W_k + dW_k share,
    with sum_i y'_i = d, and the row sum c that dp has: dp_k = H_k^-1
    (diag T_k - y'), with [[G, 1], [1^T, 0]] [y'; c] = [sum_k H_k^-1 diag
    T_k; d] and G = sum_k H_k^-1 for both directions (the range-space
    method; Nocedal and Wright, Numerical Optimization, 2nd ed., 16.2).
    dp_k comes from a solve with H_k: an explicit inverse leaves a residual
    in H_k dp_k = diag T_k - y', the dual constraint, that grows with H_k's
    condition and stalls the last steps.  The predictor's target is zero,
    so its diag T_k and the top of its bordered right side are left out,
    and dW dS is dW with its columns scaled by dp_k.  mu is the raw gap
    sum_k tr(S_k W_k) over d^2; ``_screen`` reads the same gap at the
    iterate the step reaches.  Both sides take one step length,
    0.98 of the way to the boundary of the PSD cones (at most 1), which
    keeps the iterates centred enough for the interval to close to about
    1e-9.  One Cholesky factorization of the stacked S and W gives S^-1 and
    the scaling of both ratio tests.  Each problem has its own mu, sigma
    and step length.  Returns the steps of p and of W.
    """
    n, d = s.shape[:2]
    roots = np.linalg.inv(np.linalg.cholesky(np.concatenate([s, w], axis=1)))
    roots_h = roots.conj().swapaxes(-1, -2)
    s_inv = roots_h[:, :d] @ roots[:, :d]
    h = np.real(s_inv * w.swapaxes(-1, -2))
    bordered = np.ones((n, d + 1, d + 1))
    # Sums over k strictly in order, as in _running_sum, so that a problem's
    # step does not depend on the stack around it.
    bordered[:, :d, :d] = np.add.accumulate(np.linalg.inv(h), axis=1)[:, -1]
    bordered[:, d, d] = 0.0
    eye = np.eye(d)

    def shared(top):
        """y', from the bordered system with right side [top; d]."""
        rhs = np.concatenate([top, np.full((n, 1, 1), float(d))], axis=1)
        return np.linalg.solve(bordered, rhs)[:, None, :d]

    def direction(dp, base):
        """dS = diag(dp), dW = base - sym(W dS S^-1) with base = T - W, and
        the step length of both."""
        dw = base - hermitianize(w * dp[:, :, None, :] @ s_inv)
        ds = dp[..., None] * eye
        ratios = roots @ np.concatenate([ds, dw], axis=1) @ roots_h
        lowest = np.linalg.eigvalsh(ratios).min(axis=(1, 2))
        # 1 when lowest >= -0.98, else -0.98 / lowest.
        alpha = -_TO_BOUNDARY / np.minimum(lowest, -_TO_BOUNDARY)
        return ds, dw, alpha[:, None, None, None]

    mu = _pairing(s, w) / (d * d)
    # The predictor's target is zero, and so are diag T_k and the top of
    # the bordered system's right side.
    dp = np.linalg.solve(h, -shared(np.zeros((n, d, 1))))[..., 0]
    ds, dw, alpha = direction(dp, -w)
    ratio = _pairing(s + alpha * ds, w + alpha * dw) / (d * d) / mu
    # sigma = ratio^3 by Python's float power, not numpy's vectorized one,
    # so that each problem's sigma does not depend on its place in the stack.
    sigma_mu = [r**3 * m for r, m in zip(ratio.tolist(), mu.tolist())]
    # dW dS is dW with its columns scaled by dp_k.
    target = np.array(sigma_mu).reshape(n, 1, 1, 1) * s_inv - hermitianize(
        dw * dp[:, :, None, :] @ s_inv
    )
    diag = np.real(_diagonals(target))[..., None]
    top = np.add.accumulate(np.linalg.solve(h, diag), axis=1)[:, -1]
    dp = np.linalg.solve(h, diag - shared(top))[..., 0]
    _, dw, alpha = direction(dp, target - w)
    return alpha[..., 0] * dp, alpha * dw


def _hkm_steps(s, w):
    """``_hkm_step`` on a stack, and which problems' factorizations failed
    (None when none did).

    A ``LinAlgError`` names no problem, so the stack is then stepped one
    problem at a time: a failed problem gets a zero step, the others the
    step they get in any stack.
    """
    try:
        return (*_hkm_step(s, w), None)
    except np.linalg.LinAlgError:
        pass
    dp, dw = np.zeros(s.shape[:3]), np.zeros_like(w)
    failed = np.zeros(len(s), dtype=bool)
    for b in range(len(s)):
        try:
            dp[b : b + 1], dw[b : b + 1] = _hkm_step(s[b : b + 1], w[b : b + 1])
        except np.linalg.LinAlgError:
            failed[b] = True
    return dp, dw, failed


def _singular_vector_point(blocks):
    """The rank-one candidate p and W of each problem of a complex stack of
    output-block programs.

    Let M_ki = sqrt(Re B_k[i, i]) and let s be a unit right-singular vector
    of M for its largest singular value sigma, with M s = sigma t.  The
    primal point p_ki = M_ki (M s)_k / s_i = sigma M_ki t_k / s_i has row
    sums sigma^2, and the dual blocks W_k = w_k w_k^dag with w_ki = sqrt(d)
    s_i e^{i arg B_k[i, r_k]}, r_k the first largest diagonal entry of B_k,
    share the diagonal d s_i^2.  Both reach 1 + R = d sigma^2 when every
    block has rank one, as for a unitary, whose M is |U| / sqrt(d); this is
    the rank-one witness of Takagi and Regula (PRX 9, 031053, 2019).  s is
    the all-ones vector projected onto the right-singular vectors whose
    singular value equals the largest exactly, so it is positive, by
    Perron-Frobenius, whenever a positive top vector exists, also when M is
    reducible (Z, X, CNOT, permutations).  A problem whose p is not finite
    gets the point of ``_diagonal_point`` instead.  Every step acts on each
    problem alone.
    """
    d = blocks.shape[1]
    diagonals = np.real(_diagonals(blocks))
    m = np.sqrt(np.maximum(diagonals, 0.0))
    _, sigma, vh = np.linalg.svd(m)
    top = (sigma == sigma[:, :1])[..., None]
    s = _running_sum(np.where(top, _running_sum(vh)[..., None] * vh, 0.0).swapaxes(-1, -2))
    s = s / np.sqrt(_running_sum(s * s))[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        p = m * _running_sum(m * s[:, None, :])[..., None] / s[:, None, :]
    rows = np.argmax(diagonals, axis=-1)[..., None, None]
    column = np.take_along_axis(blocks, rows, axis=-1)[..., 0]
    magnitude = np.abs(column)
    phase = np.divide(column, magnitude, out=np.ones_like(column), where=magnitude > 0.0)
    w = math.sqrt(d) * s[:, None, :] * phase
    w = w[..., :, None] * w[..., None, :].conj()
    finite = np.isfinite(p).all(axis=(1, 2))[:, None, None]
    return np.where(finite, p, diagonals), np.where(finite[..., None], w, np.eye(d, dtype=w.dtype))


def _diagonal_point(blocks):
    """p = diag(B) and W_k = I for each problem of a stack: zero slack and
    the identity witness.  A qc member, whose output blocks are diagonal,
    gets S = 0 and the interval [0, 0] up to the rounding of tr J; a
    channel whose off-diagonals are nearly zero gets a narrow one."""
    eye = np.eye(blocks.shape[1], dtype=blocks.dtype)
    return np.real(_diagonals(blocks)), np.broadcast_to(eye, blocks.shape)


def _interior_start(blocks):
    """p = (lambda_max(B) + 1) 1 and W_k = I for each problem of a stack:
    strictly feasible on both sides."""
    n, d = blocks.shape[:2]
    top = np.linalg.eigvalsh(blocks)[..., -1].max(axis=-1) + 1.0
    p = np.repeat(top, d * d).reshape(n, d, d)
    return p, np.broadcast_to(np.eye(d, dtype=blocks.dtype), blocks.shape).copy()


def _solve_blocks(blocks):
    """Certified intervals of a stack of output-block programs, from one
    loop over certified points.

    ``blocks`` is a (batch, d, d, d) complex stack: problem b's output
    blocks are blocks[b].  The unknowns are the diagonals p[k, i] of S_k =
    diag(p_k) - B_k, with equal row sums, and the dual blocks W_k.  The
    loop visits the points of ``_singular_vector_point``,
    ``_diagonal_point`` and ``_interior_start``, then takes at most
    ``_MAX_STEPS`` steps of ``_hkm_steps``, which keep the row sums of p
    equal.  One record of ``_certify``'s keys holds each problem's best
    ends, the repaired points behind them and the raw p and W behind those,
    at the problem's place in the stack, and every update goes through
    ``index``, the places of the running problems.  A fixed point, repaired
    to exact feasibility by ``_certify``, overwrites their entries, so it
    is judged on its own ends; a step's repaired ends replace an entry's
    upper or lower half where they are better.  A step's iterate is
    certified only for the problems that ``_screen`` passes, whose raw gap
    could close the interval, whose factorization failed, or all at the
    last step: the certified width is at most the raw gap, and until the
    last two or three steps the screen spares the eigendecompositions of
    the repair.  The stack is certified whole when any problem needs it,
    and the ends of the others are dropped, so that a problem's ends never
    depend on its neighbours' screens.  A problem stops when its interval
    is at most 1e-9 (1 + upper) wide, when a factorization of its own fails
    (it keeps its iterate and stops at this check), or after the last step:
    it leaves ``index``, and the working stack is compacted to the problems
    still running.  Every operation acts on each problem alone, in an order
    that does not depend on the stack, so a problem's result is the same,
    bit for bit, in any stack and at any place in it.  The record is the
    result: a lower end below zero gives way to the identity witness at
    zero.  Returns (upper, primal, dual, residuals), one entry per problem:
    the residuals are the equality residuals of the points behind the two
    ends (the spread of the row sums of p, and the largest of |W_k[i, i] -
    y_i| and |sum_i y_i - d| with y the mean diagonal of the W_k), the
    relative gap and the width ``witness_pairing`` of the interval.
    """
    n, d = blocks.shape[:2]
    points = (_singular_vector_point, _diagonal_point, _interior_start)
    last = len(points) + _MAX_STEPS - 1
    index = np.arange(n)
    failed = None
    for step in range(last + 1):
        if step < len(points):
            p, w = points[step](blocks)
            s, ends = _certify(blocks, p, w)
            if step == 0:
                best = ends
            else:
                for key, value in ends.items():
                    best[key][index] = value
        else:
            dp, dw, failed = _hkm_steps(s, w)
            p, w = p + dp, w + dw
            s = _slack(blocks, p)
            check = _screen(s, w, best["upper"][index]) | (step == last)
            if failed is not None:
                check |= failed
            if not check.any():
                continue
            ends = _certify(blocks, p, w)[1]
            for keys, better in (
                (("upper", "primal", "p"), check & (ends["upper"] < best["upper"][index])),
                (("lower", "dual", "w"), check & (ends["lower"] > best["lower"][index])),
            ):
                for key in keys:
                    best[key][index[better]] = ends[key][better]
        # A problem left unchecked keeps the ends that did not stop it.
        upper = best["upper"][index]
        stop = upper - best["lower"][index] <= _TARGET_WIDTH * (1.0 + upper)
        if failed is not None:
            stop |= failed
        if step == last or stop.all():
            break
        if stop.any():
            keep = ~stop
            index, blocks, p, w, s = index[keep], blocks[keep], p[keep], w[keep], s[keep]

    upper, lower, dual = best["upper"], best["lower"], best["dual"]
    below = ~(lower >= 0.0)
    lower = np.where(below, 0.0, lower)
    dual = np.where(below[:, None, None, None], np.eye(d), dual)
    width = np.maximum(upper - lower, 0.0)
    gap = width / (1.0 + np.abs(upper) + np.abs(lower))
    row_sums = _running_sum(best["p"].swapaxes(-1, -2))
    primal_feas = row_sums.max(axis=-1) - row_sums.min(axis=-1)
    w_diagonals = np.real(_diagonals(best["w"]))
    y = _running_sum(w_diagonals.swapaxes(-1, -2)) / d
    dual_feas = np.maximum(
        np.abs(w_diagonals - y[:, None]).max(axis=(1, 2)), np.abs(_running_sum(y) - d)
    )
    residuals = [
        {"primal_feas": pf, "dual_feas": df, "gap": g, "witness_pairing": wp}
        for pf, df, g, wp in zip(
            primal_feas.tolist(), dual_feas.tolist(), gap.tolist(), width.tolist()
        )
    ]
    return upper, best["primal"], dual, residuals


def _width_failure(record):
    """The message of a solve whose certified interval stays wider than
    ``_ACCEPT_WIDTH``, or None when it is narrow enough."""
    width = record["witness_pairing"]
    if width <= _ACCEPT_WIDTH:
        return None
    return (
        f"robustness solve stopped with a certified interval of width "
        f"{width:.3e}, above {_ACCEPT_WIDTH:g}; residuals {record}"
    )


def _solve_chois(chois):
    """One ``_solve_blocks`` run on the output blocks of a validated
    (batch, d^2, d^2) Choi stack: its (upper, primal, dual, residuals) and
    each problem's ``_width_failure``.  The singular-vector point settles
    every point of the sweep and most other unitaries, and only the
    problems that no candidate point settles reach the interior point."""
    d = math.isqrt(chois.shape[-1])
    check_dim(d, "robustness")
    solved = _solve_blocks(np.ascontiguousarray(choi_output_blocks(chois, d)))
    return (*solved, [_width_failure(record) for record in solved[3]])


def _robustness_stack(chois):
    """``robustness`` of a validated (batch, d^2, d^2) Choi stack, from one
    stacked solve.

    Entry b is entry b's ``RobustnessResult``, or the RuntimeError that
    ``robustness`` raises for it when its interval stays wider than
    ``_ACCEPT_WIDTH``; one entry's failure leaves the others' results as
    they are in any other stack.
    """
    upper, primal, dual, residuals, failures = _solve_chois(chois)
    psi = chois + choi_from_output_blocks(primal)
    witness = choi_from_output_blocks(dual)
    return [
        RuntimeError(failure)
        if failure is not None
        else RobustnessResult(
            value=float(upper[b]),
            optimal_psi=psi[b],
            witness=witness[b],
            residuals=residuals[b],
            status="optimal",
        )
        for b, failure in enumerate(failures)
    ]


def robustness(channel):
    """Least mixing weight that makes the channel classically replaceable.

    One program over the output blocks B_k of the Choi state (B_k is the
    d x d matrix over the input at output k): minimize sum_k tr S_k over
    S_k >= 0 with the off-diagonals of S_k those of -B_k and equal row sums
    sum_k S_k[i, i].  Its dual maximizes sum_k tr(W_k B_k) - 1 over W_k >= 0
    sharing one diagonal y with sum_i y_i = d.  It has d^2 real unknowns,
    the diagonals of the S_k.  ``_solve_blocks``, here on a stack of one,
    runs one loop over certified points.  The first two are closed forms:
    with M_ki = sqrt(B_k[i, i]) and sigma its largest singular value, the
    singular-vector point gives 1 + R = d sigma^2 whenever every B_k has
    rank one, as for a unitary U, where it is sigma_max(|U|)^2; p = diag(B)
    with W_k = I gives 0 for a qc member.  The loop then follows the central
    path from a strictly feasible start by a primal-dual interior-point
    method (HKM direction, Mehrotra predictor-corrector), and stops at the
    first narrow interval.  Each point's primal and dual parts, repaired to
    exact feasibility, bracket the value:
    ``value`` is the primal end, ``value - residuals["witness_pairing"]``
    the dual end (zero, certified by the identity, when the repaired dual
    pairs below one).  The witness is the sum over k of W_k (x) |k><k| and
    ``optimal_psi`` is J plus the sum over k of S_k (x) |k><k|.  Raises
    RuntimeError when the interval stays wider than 1e-6.
    """
    if not isinstance(channel, Channel):
        raise TypeError("robustness expects a Channel")
    return _checked(_robustness_stack(channel.choi[None]))[0]


def _checked(results):
    """Entries of ``_robustness_stack``, once none of them is a failure:
    the first RuntimeError among them, in order, is raised."""
    for result in results:
        if isinstance(result, RuntimeError):
            raise result
    return results


def robustness_equivalents(channel):
    """The measure through its three equivalent programs, as a list.

    The entries are: domination of the plain Choi state by a structured
    matrix; domination of the output-dephased Choi state by a diagonal
    matrix; domination of the output-dephased Choi state by a structured
    matrix.  Each is the primal value of ``sdp.solve`` minus one, at X = psi
    - floor strictly inside the PSD cone: never below zero but for the
    rounding of tr(floor), and the three agree to the solver's tolerances.
    The second is stated over X's d output blocks, the others over X.  Only
    this cross-check loads ``sdp``.
    """
    from .sdp import MAX_BLOCK_SIDE, solve

    if not isinstance(channel, Channel):
        raise TypeError("robustness_equivalents expects a Channel")
    d = channel.dim
    if d * d > MAX_BLOCK_SIDE:  # the side of the plain program's one PSD block
        raise ValueError(f"robustness_equivalents: block side {d * d} exceeds the sdp limit of {MAX_BLOCK_SIDE}")
    dephased = choi_dephase_output(channel.choi, d)
    programs = ((channel.choi, False), (dephased, True), (dephased, False))
    values = []
    for floor, diagonal in programs:
        solution = solve(_structured_program(floor, d, diagonal))
        if solution.status != "optimal":
            raise RuntimeError(
                f"robustness equivalent solve ended with status {solution.status!r} after "
                f"{solution.iterations} iterations; residuals {solution.residuals}"
            )
        values.append(solution.primal_value - 1.0)
    return values


def _entropy_gaps(chois):
    """``relative_entropy_irreplaceability`` of each of a (batch, d^2, d^2)
    Choi stack, as a list.

    The spectra of all output blocks come from one batched ``eigvalsh``;
    the clip to [0, 1], the ``log2`` and the terms p log2 p of the diagonals
    and the spectra are computed once over the whole stack, and their
    positive terms are compacted in order into one array.  Each entropy is
    the sum of its own slice of that array alone: a sum over a row that
    kept its zeros, or over the whole stack, would group the terms
    differently and change the last bits.  0 log 0 is 0.
    """
    d = math.isqrt(chois.shape[-1])
    spectra = np.linalg.eigvalsh(choi_output_blocks(chois, d)).reshape(len(chois), -1)
    p = np.clip(np.stack([chois.diagonal(axis1=1, axis2=2).real, spectra], axis=1), 0.0, 1.0)
    positive = p > 0.0
    terms = p * np.log2(np.where(positive, p, 1.0))
    flat = terms[positive]
    ends = np.cumsum(positive.sum(axis=-1)).tolist()
    sums = [float(-flat[start:end].sum()) for start, end in zip([0] + ends[:-1], ends)]
    return [max(a - b, 0.0) for a, b in zip(sums[0::2], sums[1::2])]


def relative_entropy_irreplaceability(channel):
    """Entropy of the fully dephased Choi minus the output-dephased one.

    Measured in bits.  The output-dephased Choi state is the direct sum of
    the output blocks B_k, so the value is the entropy of the Choi diagonal
    minus that of the spectra of the B_k, from one batched ``eigvalsh``.
    Dephasing more can only raise entropy, so the value is nonnegative;
    rounding noise below zero is clamped.  This is ``_entropy_gaps`` on a
    stack of one.
    """
    if not isinstance(channel, Channel):
        raise TypeError("relative_entropy_irreplaceability expects a Channel")
    return _entropy_gaps(channel.choi[None])[0]


def _postcompose(choi, t):
    """Choi state of the classical map T after the channel.

    ``J'[(a, j), (b, l)] = delta_jl sum_i T[j, i] J[(a, i), (b, i)]``: output
    block j is the T-weighted sum of the channel's output blocks.
    """
    return choi_from_output_blocks(np.tensordot(t, choi_output_blocks(choi, len(t)), 1))


def _permute(choi, perm):
    """Choi state of P N(P^dag rho P) P^dag, where P|c> = |perm[c]>.

    Every input and output digit is relabelled by the inverse permutation.
    """
    d = len(perm)
    inv = np.argsort(perm)
    j4 = choi.reshape(d, d, d, d)[np.ix_(inv, inv, inv, inv)]
    return j4.reshape(d * d, d * d)


def _check(passed, margin):
    """One report entry: whether a check passed, and by what margin."""
    return {"passed": passed, "margin": float(margin)}


def measure_property_suite(channel, seed=0):
    """Empirical check of the measure's structural properties on one channel.

    Verifies convexity under mixing, monotonicity under two concrete free
    transformation families (post-composition with a classical map, and
    conjugation by a basis permutation), invariance under attaching an idle
    qubit, and the same convexity and extension properties for the entropic
    measure.  Each family is a linear map on Choi arrays, and each sampled
    one is checked first: it must keep random replaceable channels
    replaceable and commute with output dephasing.  Returns a report dict
    with one entry per check and an overall ``passed`` flag.
    """
    if not isinstance(channel, Channel):
        raise TypeError("measure_property_suite expects a Channel")
    d = channel.dim
    check_dim(d, "measure_property_suite")
    rng = np.random.default_rng(seed)
    report = {}

    # Random channels and samples are Choi arrays, validated in two stacks.
    bases = [channel.choi] + [_random_choi(d, None, int(rng.integers(2**31))) for _ in range(2)]
    pairs = ((0, 1), (1, 2))
    weights = [float(rng.uniform(0.2, 0.8)) for _ in pairs]
    mixtures = [w * bases[i] + (1.0 - w) * bases[j] for (i, j), w in zip(pairs, weights)]

    # Two concrete families of free transformations, as maps on Choi states.
    t = _stochastic_from_choi(_random_choi(d, None, int(rng.integers(2**31))), d, DEFAULT_TOL)
    perm = rng.permutation(d)
    families = {
        "monotonicity_postcompose": lambda m: _postcompose(m, t),
        "monotonicity_permutation": lambda m: _permute(m, perm),
    }

    # Each family must map replaceable channels to replaceable channels and
    # commute with output dephasing; only then is its monotonicity check
    # meaningful.  An image is qc-replaceable when its output blocks are
    # diagonal, so its residual is their largest off-diagonal entry.
    samples = validate_choi_stack([
        family(_random_qccro_choi(d, int(rng.integers(2**31)))) for family in families.values() for _ in range(5)
    ])
    off_diagonal = np.where(np.eye(d, dtype=bool), 0.0, choi_output_blocks(samples, d))
    worst_membership = float(np.max(np.abs(off_diagonal)))
    dephased = choi_dephase_output(channel.choi, d)
    worst_commutation = max(
        float(np.max(np.abs(choi_dephase_output(family(channel.choi), d) - family(dephased))))
        for family in families.values()
    )

    # The base channels, the mixtures and the images share one solve, and
    # the first five one entropy call.
    images = [family(channel.choi) for family in families.values()]
    stack = validate_choi_stack(np.stack(bases + mixtures + images))
    values = [r.value for r in _checked(_robustness_stack(stack))]
    entropies = _entropy_gaps(stack[:5])
    base_value, base_entropy, image_values = values[0], entropies[0], values[5:]

    def convexity(v):
        # The mixed parts' values less the mixture's (stack rows 3 and 4).
        mixed = zip(pairs, weights, (3, 4))
        return min(w * v[i] + (1.0 - w) * v[j] - v[m] for (i, j), w, m in mixed)

    robustness_gap, entropy_gap = convexity(values), convexity(entropies)
    report["convexity_robustness"] = _check(robustness_gap >= -1e-5, robustness_gap)
    report["convexity_relative_entropy"] = _check(entropy_gap >= -1e-6, entropy_gap)
    report["free_family_verified"] = {
        "passed": worst_membership <= 1e-9 and worst_commutation <= 1e-9,
        "membership_residual": worst_membership,
        "commutation_residual": worst_commutation,
    }

    for name, value in zip(families, image_values):
        drop = base_value - value
        report[name] = _check(drop >= -1e-5, drop)

    if 2 * d <= MAX_DIM:
        extended = tensor(channel, identity_channel(2)).choi[None]
        gap = abs(_checked(_robustness_stack(extended))[0].value - base_value)
        report["extension_robustness"] = _check(gap <= 1e-5, gap)
        entropy_gap = abs(_entropy_gaps(extended)[0] - base_entropy)
        report["extension_relative_entropy"] = _check(entropy_gap <= 1e-6, entropy_gap)
    else:
        report["extension_robustness"] = {"passed": True, "skipped": True}
        report["extension_relative_entropy"] = {"passed": True, "skipped": True}

    report["passed"] = all(
        entry["passed"] for key, entry in report.items() if key != "passed"
    )
    return report
