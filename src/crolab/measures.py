"""Quantitative measures of how far a channel is from classical replaceability.

Two measures are provided.  The robustness is the least amount of channel
mixing needed to push a channel into the measure-then-postprocess family; it
is computed by semidefinite programming and comes with a dual witness.  The
relative entropy measure has a closed form: the entropy gap between the fully
dephased and the output-dephased Choi states.
"""

from dataclasses import dataclass

import numpy as np

from .channels import (
    Channel,
    choi_dephase_output,
    compose,
    dephasing,
    identity_channel,
    mix,
    random_channel,
    tensor,
    unitary_channel,
)
from .cro import is_qccro, random_qccro
from .linalg import dephase, partial_trace, von_neumann_entropy
from .sdp import SdpProblem, extract_dual_witness, solve

MAX_DIM = 8

# Raw optima this far below zero indicate the solver missed its tolerances;
# anything milder is first-order noise and gets clamped to zero.
NEGATIVE_VALUE_LIMIT = -1e-5


@dataclass(frozen=True)
class RobustnessResult:
    """Outcome of a robustness computation.

    ``value`` is the clamped measure; ``optimal_psi`` optimizes the
    trace-minimization over structured psi dominating the Choi state J, with
    trace 1 + value up to solver gap; ``witness`` is the dual certificate
    pairing to 1 + value against D_out J, the output-dephased Choi state
    (None when not requested); ``residuals`` and ``status`` are the solver's.

    With a witness, psi is lifted from the optimizer psi' of the D_out J
    program as ``psi' + J - D_out J``: ``psi - J = psi' - D_out J >= 0``,
    ``psi = (psi' - D_out J) + J >= 0``, and ``J - D_out J`` has no
    same-output blocks and no output partial trace, so psi keeps the
    structure, input marginal and trace of psi'.
    """

    value: float
    optimal_psi: np.ndarray
    witness: np.ndarray | None
    residuals: dict
    status: str


def _dephase_gap(d):
    def fn(m):
        return dephase(m, [d, d], (1,)) - dephase(m, [d, d], (0, 1))

    return fn


def _diagonal_gap(d):
    def fn(m):
        return m - dephase(m, [d, d], (0, 1))

    return fn


def _marginal_gap(d):
    def fn(m):
        return partial_trace(m, [d, d], 0) - np.trace(m) * np.eye(d) / d

    return fn


def _solve_structured(floor, d, diagonal):
    """Minimize tr(psi) over structured psi dominating ``floor``.

    ``floor`` is the Choi state or its output dephasing.  The structure is
    the cone of output-measured channels: psi is positive, its output
    dephasing equals its full dephasing (or psi is outright diagonal when
    ``diagonal`` is set), and its input marginal is uniform.  Returns the
    solution together with the index of the domination constraint, whose
    dual variable is the witness.
    """
    n = d * d
    problem = SdpProblem()
    problem.add_var("psi", n)
    problem.minimize({"psi": np.eye(n)})
    domination = problem.add_psd([("psi", None, n)], offset=-floor)
    problem.add_psd([("psi", None, n)])
    gap = _diagonal_gap if diagonal else _dephase_gap
    problem.add_eq([("psi", gap(d), n)], np.zeros((n, n)))
    problem.add_eq([("psi", _marginal_gap(d), d)], np.zeros((d, d)))
    return solve(problem), domination


def _require_optimal(solution, what):
    if solution.status != "optimal":
        raise RuntimeError(
            f"{what} solve ended with status {solution.status!r} after "
            f"{solution.iterations} iterations; residuals {solution.residuals}"
        )


def _clamped(raw):
    if raw < NEGATIVE_VALUE_LIMIT:
        raise RuntimeError(
            f"robustness optimum {raw:.3e} is negative beyond solver noise"
        )
    return max(float(raw), 0.0)


def _check_dim(d):
    if d > MAX_DIM:
        raise ValueError(
            f"robustness supports dimension up to {MAX_DIM}, got {d}"
        )


def robustness(channel, want_witness=True):
    """Least mixing weight that makes the channel classically replaceable.

    One SDP solve: the trace-minimization over structured matrices
    dominating the Choi state or, when ``want_witness`` is set, the
    output-dephased Choi state, whose equal optimum comes with the dual
    witness (that program takes more iterations, so only then).  The pairing
    error goes to ``residuals["witness_pairing"]``; ``optimal_psi`` is
    lifted back to the plain program (see ``RobustnessResult``).
    """
    if not isinstance(channel, Channel):
        raise TypeError("robustness expects a Channel")
    d = channel.dim
    _check_dim(d)
    choi = channel.choi
    floor = choi_dephase_output(choi, d) if want_witness else choi
    solution, domination = _solve_structured(floor, d, False)
    _require_optimal(solution, "robustness")
    value = _clamped(solution.primal_value - 1.0)
    residuals = dict(solution.residuals)
    psi = solution.variables["psi"]
    witness = None
    if want_witness:
        witness = extract_dual_witness(solution, domination)
        pairing = np.real(np.trace(witness @ floor))
        residuals["witness_pairing"] = abs(pairing - 1.0 - value)
        psi = psi + choi - floor
    return RobustnessResult(
        value=value,
        optimal_psi=psi,
        witness=witness,
        residuals=residuals,
        status=solution.status,
    )


def robustness_equivalents(channel):
    """The measure through its three equivalent programs, as a list.

    The entries are: domination of the plain Choi state by a structured
    matrix; domination of the output-dephased Choi state by a diagonal
    matrix; domination of the output-dephased Choi state by a structured
    matrix.  All three agree up to solver accuracy.
    """
    if not isinstance(channel, Channel):
        raise TypeError("robustness_equivalents expects a Channel")
    d = channel.dim
    _check_dim(d)
    dephased = choi_dephase_output(channel.choi, d)
    programs = ((channel.choi, False), (dephased, True), (dephased, False))
    values = []
    for floor, diagonal in programs:
        solution, _ = _solve_structured(floor, d, diagonal)
        _require_optimal(solution, "robustness equivalent")
        values.append(_clamped(solution.primal_value - 1.0))
    return values


def relative_entropy_irreplaceability(channel):
    """Entropy of the fully dephased Choi minus the output-dephased one.

    Measured in bits.  Dephasing more can only raise entropy, so the value
    is nonnegative; rounding noise below zero is clamped.
    """
    if not isinstance(channel, Channel):
        raise TypeError("relative_entropy_irreplaceability expects a Channel")
    d = channel.dim
    partially = choi_dephase_output(channel.choi, d)
    fully = np.diag(np.diag(partially))
    value = von_neumann_entropy(fully) - von_neumann_entropy(partially)
    return max(float(value), 0.0)


def _random_qq_member(dim, rng):
    """Random channel sandwiched between dephasings: a fully classical map."""
    inner = random_channel(dim, seed=int(rng.integers(2**31)))
    return compose(dephasing(dim), compose(inner, dephasing(dim)))


def _random_permutation_unitaries(dim, rng):
    perm = rng.permutation(dim)
    p = np.zeros((dim, dim), dtype=complex)
    for col, row in enumerate(perm):
        p[row, col] = 1.0
    return p, p.conj().T


def measure_property_suite(channel, seed=0):
    """Empirical check of the measure's structural properties on one channel.

    Verifies convexity under mixing, monotonicity under two concrete free
    transformation families (post-composition with a classical map, and
    conjugation by a basis permutation), invariance under attaching an idle
    qubit, and the same convexity and extension properties for the entropic
    measure.  Each sampled free transformation is itself validated by
    checking that it maps random replaceable channels to replaceable
    channels.  Returns a report dict with one entry per check and an
    overall ``passed`` flag.
    """
    if not isinstance(channel, Channel):
        raise TypeError("measure_property_suite expects a Channel")
    d = channel.dim
    _check_dim(d)
    rng = np.random.default_rng(seed)
    report = {}

    def rvalue(ch):
        return robustness(ch, want_witness=False).value

    base_value = rvalue(channel)
    base_entropy = relative_entropy_irreplaceability(channel)

    partner_a = random_channel(d, seed=int(rng.integers(2**31)))
    partner_b = random_channel(d, seed=int(rng.integers(2**31)))
    pair_values = {
        id(channel): base_value,
        id(partner_a): rvalue(partner_a),
        id(partner_b): rvalue(partner_b),
    }

    robustness_gaps = []
    entropy_gaps = []
    for first, second in ((channel, partner_a), (partner_a, partner_b)):
        weight = float(rng.uniform(0.2, 0.8))
        mixed = mix([first, second], [weight, 1.0 - weight])
        bound = weight * pair_values[id(first)] + (1.0 - weight) * pair_values[
            id(second)
        ]
        robustness_gaps.append(bound - rvalue(mixed))
        entropy_bound = weight * relative_entropy_irreplaceability(first) + (
            1.0 - weight
        ) * relative_entropy_irreplaceability(second)
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

    # Two concrete families of free transformations.
    post = _random_qq_member(d, rng)
    p, p_dagger = _random_permutation_unitaries(d, rng)
    p_channel = unitary_channel(p)
    p_dagger_channel = unitary_channel(p_dagger)

    def post_family(ch):
        return compose(post, ch)

    def permutation_family(ch):
        return compose(p_channel, compose(ch, p_dagger_channel))

    families = {
        "monotonicity_postcompose": post_family,
        "monotonicity_permutation": permutation_family,
    }

    # Each family must map replaceable channels to replaceable channels and
    # commute with output dephasing; only then is its monotonicity check
    # meaningful.
    worst_membership = 0.0
    worst_commutation = 0.0
    delta = dephasing(d)
    for family in families.values():
        for _ in range(5):
            member = random_qccro(d, seed=int(rng.integers(2**31)))
            worst_membership = max(
                worst_membership, is_qccro(family(member)).residual
            )
        left = compose(delta, family(channel)).choi
        right = family(compose(delta, channel)).choi
        worst_commutation = max(
            worst_commutation, float(np.max(np.abs(left - right)))
        )
    report["free_family_verified"] = {
        "passed": worst_membership <= 1e-9 and worst_commutation <= 1e-9,
        "membership_residual": float(worst_membership),
        "commutation_residual": float(worst_commutation),
    }

    for name, family in families.items():
        drop = base_value - rvalue(family(channel))
        report[name] = {"passed": drop >= -1e-5, "margin": float(drop)}

    if d <= 4:
        extended = tensor(channel, identity_channel(2))
        gap = abs(rvalue(extended) - base_value)
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
