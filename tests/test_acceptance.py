"""Acceptance suite: every promised behavior, one test per criterion.

Each test records a single [PASS]/[FAIL] line with the measured quantities
before asserting.  The conftest hook replays all recorded lines in a summary
section at the end of the run, so the per-criterion verdicts survive pytest's
output capture even when every criterion passes.
"""

import numpy as np
import pytest

import oracles
from crolab.channels import (
    apply,
    basis_pvm,
    channel_from_kraus,
    channel_partial_trace,
    choi_max_diff,
    compose,
    dephasing,
    identity_channel,
    mix,
    named_gate,
    pauli_channel_T,
    random_channel,
    te_channel,
    tensor,
    unitary_channel,
)
from crolab.cro import (
    eb_ppt_test,
    is_cqcro,
    is_cro_pvm,
    is_deterministic_cru,
    is_dio,
    is_qccro,
    is_qccro_two_pvm,
    is_qqcro,
    random_qccro,
    vqa_replaceable_set_R,
)
from crolab.game import game_from_witness, payoff
from crolab.measures import (
    relative_entropy_irreplaceability,
    robustness,
    robustness_equivalents,
)
from crolab.paulis import pauli_index, pauli_matrix, random_clifford
from crolab.sdp import SolverOptions, solve
from oracles import SdpProblem, canonical

# The robustness of the Hadamard gate, pinned once by the independent
# alternating-projection bisection oracle and kept as a regression constant.
PINNED_HADAMARD_ROBUSTNESS = 1.0


# Verdict lines collected here are replayed by conftest.py in a terminal
# summary section once the run finishes.
VERDICT_LINES = []


def _report(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    VERDICT_LINES.append(line)
    print(line)
    assert ok, f"{name}: {detail}"


def _rvalue(channel):
    return robustness(channel).value


def prepare_plus_channel():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return channel_from_kraus(
        [np.outer(plus, [1, 0]), np.outer(plus, [0, 1])]
    )


def eb_example_channel():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    zero = np.array([1.0, 0.0], dtype=complex)
    return channel_from_kraus(
        [np.outer(zero, plus.conj()), np.outer(plus, minus.conj())]
    )


def test_criterion_01_classification_table():
    checks = []

    def expect(label, actual, wanted):
        checks.append((label, actual == wanted))

    for name in ("Z", "X"):
        expect(f"{name} qccro", is_qccro(named_gate(name)).is_member, True)
    h = named_gate("H")
    for label, fn in (
        ("cqcro", is_cqcro),
        ("qqcro", is_qqcro),
        ("qccro", is_qccro),
        ("dio", is_dio),
    ):
        expect(f"H {label}", fn(h).is_member, False)
    cnot = named_gate("CNOT")
    expect("CNOT dio", is_dio(cnot).is_member, True)
    expect("CNOT qqcro", is_qqcro(cnot).is_member, False)
    dephased_h = compose(dephasing(2), h)
    expect("dephased-H cqcro", is_cqcro(dephased_h).is_member, True)
    expect("dephased-H dio", is_dio(dephased_h).is_member, False)
    prep = prepare_plus_channel()
    expect("prepare-plus qccro", is_qccro(prep).is_member, True)
    expect("prepare-plus dio", is_dio(prep).is_member, False)
    eb = eb_example_channel()
    expect("eb-example ppt", eb_ppt_test(eb).status, "eb_confirmed")
    expect("eb-example cqcro", is_cqcro(eb).is_member, False)
    expect("eb-example qccro", is_qccro(eb).is_member, False)

    failed = [label for label, ok in checks if not ok]
    _report(
        "criterion 01 classification table",
        not failed,
        f"{len(checks)} memberships checked at tol 1e-9"
        + (f"; wrong: {failed}" if failed else ""),
    )


def test_criterion_02_sweep_reproduction():
    thetas = np.linspace(0.0, np.pi / 2, 50)
    values = np.array(
        [_rvalue(named_gate("U", t)) for t in thetas]
    )
    entropies = np.array(
        [relative_entropy_irreplaceability(named_gate("U", t)) for t in thetas]
    )
    endpoint_max = max(values[0], values[-1], entropies[0], entropies[-1])
    step = thetas[1] - thetas[0]
    peak_theta_error = max(
        abs(thetas[values.argmax()] - np.pi / 4),
        abs(thetas[entropies.argmax()] - np.pi / 4),
    )
    quarter_entropy = relative_entropy_irreplaceability(
        named_gate("U", np.pi / 4)
    )
    symmetry = max(
        np.max(np.abs(values - values[::-1])),
        np.max(np.abs(entropies - entropies[::-1])),
    )
    peak_value = _rvalue(named_gate("U", np.pi / 4))
    oracle_value = oracles.oracle_robustness(
        oracles.choi_of_unitary(oracles.interpolation_matrix(np.pi / 4)), 2
    )
    ok = (
        endpoint_max <= 1e-6
        and peak_theta_error <= step / 2 + 1e-12
        and abs(quarter_entropy - 1.0) <= 1e-6
        and symmetry <= 1e-5
        and abs(peak_value - PINNED_HADAMARD_ROBUSTNESS) <= 1e-5
        and abs(oracle_value - PINNED_HADAMARD_ROBUSTNESS) <= 2e-3
    )
    _report(
        "criterion 02 sweep reproduction",
        ok,
        f"endpoints {endpoint_max:.2e}, peak at pi/4 +- {peak_theta_error:.3f}"
        f", C_rel(pi/4) {quarter_entropy:.9f}, symmetry {symmetry:.2e}"
        f", peak {peak_value:.8f} vs pinned {PINNED_HADAMARD_ROBUSTNESS}"
        f" (oracle re-derivation {oracle_value:.5f})",
    )


def test_criterion_03_game_advantage():
    channels = [named_gate("H")] + [
        random_channel(2, seed=seed) for seed in range(5)
    ]
    worst_gap = 0.0
    worst_max = 0.0
    worst_min = 0.0
    for channel in channels:
        game = game_from_witness(channel)
        ratio = payoff(channel, game) / game.normalization["max"]
        expected = 1.0 + _rvalue(channel)
        worst_gap = max(worst_gap, abs(ratio - expected))
        worst_max = max(worst_max, game.normalization["max"] - 1.0)
        worst_min = min(worst_min, game.normalization["min"])
    ok = worst_gap <= 1e-3 and worst_max <= 1e-6 and worst_min >= -1e-6
    _report(
        "criterion 03 game advantage",
        ok,
        f"6 channels; |ratio-(1+R)| <= {worst_gap:.2e}, "
        f"qccro max excess {worst_max:.2e}, min {worst_min:.2e}",
    )


def test_criterion_04_equivalent_formulations():
    worst_spread = 0.0
    worst_dephase_gap = 0.0
    for seed in range(10, 20):
        channel = random_channel(2, seed=seed)
        values = robustness_equivalents(channel)
        worst_spread = max(worst_spread, max(values) - min(values))
        dephased = compose(dephasing(2), channel)
        worst_dephase_gap = max(
            worst_dephase_gap, abs(_rvalue(channel) - _rvalue(dephased))
        )
    ok = worst_spread <= 1e-5 and worst_dephase_gap <= 1e-5
    _report(
        "criterion 04 equivalent formulations",
        ok,
        f"10 channels; pairwise spread <= {worst_spread:.2e}, "
        f"|R(N)-R(dephased N)| <= {worst_dephase_gap:.2e}",
    )


def test_criterion_05_convexity_and_monotonicity():
    rng = np.random.default_rng(2024)
    worst_r_gap = np.inf
    worst_c_gap = np.inf
    for _ in range(10):
        a = random_channel(2, seed=int(rng.integers(2**31)))
        b = random_channel(2, seed=int(rng.integers(2**31)))
        weight = float(rng.uniform(0.1, 0.9))
        mixed = mix([a, b], [weight, 1.0 - weight])
        r_bound = weight * _rvalue(a) + (1.0 - weight) * _rvalue(b)
        worst_r_gap = min(worst_r_gap, r_bound - _rvalue(mixed))
        c_bound = weight * relative_entropy_irreplaceability(a) + (
            1.0 - weight
        ) * relative_entropy_irreplaceability(b)
        worst_c_gap = min(
            worst_c_gap,
            c_bound - relative_entropy_irreplaceability(mixed),
        )

    inner = random_channel(2, seed=int(rng.integers(2**31)))
    post = compose(dephasing(2), compose(inner, dephasing(2)))
    swap = unitary_channel(np.array([[0, 1], [1, 0]], dtype=complex))

    def post_family(ch):
        return compose(post, ch)

    def permutation_family(ch):
        return compose(swap, compose(ch, swap))

    family_residual = 0.0
    for family in (post_family, permutation_family):
        for _ in range(5):
            member = random_qccro(2, seed=int(rng.integers(2**31)))
            family_residual = max(
                family_residual, is_qccro(family(member)).residual
            )

    worst_drop = np.inf
    for channel in (named_gate("H"), random_channel(2, seed=77)):
        base = _rvalue(channel)
        for family in (post_family, permutation_family):
            worst_drop = min(worst_drop, base - _rvalue(family(channel)))

    ok = (
        worst_r_gap >= -1e-5
        and worst_c_gap >= -1e-5
        and family_residual <= 1e-9
        and worst_drop >= -1e-5
    )
    _report(
        "criterion 05 convexity and monotonicity",
        ok,
        f"10 mixtures; R convexity margin {worst_r_gap:.2e}, C_rel margin "
        f"{worst_c_gap:.2e}; families free within {family_residual:.1e}; "
        f"monotonicity margin {worst_drop:.2e}",
    )


def test_criterion_06_extension_stability():
    worst_r = 0.0
    worst_c = 0.0
    for channel in (named_gate("H"), random_channel(2, seed=5)):
        extended = tensor(channel, identity_channel(2))
        worst_r = max(worst_r, abs(_rvalue(extended) - _rvalue(channel)))
        worst_c = max(
            worst_c,
            abs(
                relative_entropy_irreplaceability(extended)
                - relative_entropy_irreplaceability(channel)
            ),
        )
    ok = worst_r <= 1e-5 and worst_c <= 1e-5
    _report(
        "criterion 06 extension stability",
        ok,
        f"|R(NxI)-R(N)| <= {worst_r:.2e}, |C_rel(NxI)-C_rel(N)| <= "
        f"{worst_c:.2e} (16x16 Choi solves)",
    )


def test_criterion_07_permutations_and_closure():
    rng = np.random.default_rng(7)
    binary_ok = True
    for d in (2, 3, 4):
        perm = rng.permutation(d)
        u = np.zeros((d, d), dtype=complex)
        for col, row in enumerate(perm):
            u[row, col] = 1.0
        verdict = is_deterministic_cru(u)
        t = verdict.replacement
        binary_ok = binary_ok and verdict.is_member
        binary_ok = binary_ok and np.array_equal(t, t.astype(bool).astype(float))

    worst = 0.0
    members = [random_qccro(2, seed=seed) for seed in range(10)]
    for k in range(0, 10, 2):
        product = tensor(members[k], members[k + 1])
        worst = max(worst, is_qccro(product).residual)
        for keep in (0, 1):
            reduced = channel_partial_trace(product, [2, 2], keep)
            worst = max(worst, is_qccro(reduced).residual)
    ok = binary_ok and worst <= 1e-9
    _report(
        "criterion 07 permutations and closure",
        ok,
        f"0/1 replacement matrices exact: {binary_ok}; tensor and partial "
        f"trace closure residual <= {worst:.1e} over 10 members",
    )


def test_criterion_08_pvm_suite():
    reduction_ok = True
    for channel in (
        named_gate("Z"),
        named_gate("H"),
        named_gate("CNOT"),
        random_channel(2, seed=3),
    ):
        pvm = basis_pvm(channel.dim)
        for kind, fn in (("cq", is_cqcro), ("qq", is_qqcro), ("qc", is_qccro)):
            general = is_cro_pvm(channel, pvm, kind).is_member
            reduction_ok = reduction_ok and general == fn(channel).is_member

    zz = [
        (np.eye(4, dtype=complex) + np.kron(pauli_matrix(3, 1), pauli_matrix(3, 1)))
        / 2,
        (np.eye(4, dtype=complex) - np.kron(pauli_matrix(3, 1), pauli_matrix(3, 1)))
        / 2,
    ]
    worst_idem = 0.0
    worst_stats = 0.0
    rng = np.random.default_rng(8)
    for projectors in (basis_pvm(2), basis_pvm(3), zz):
        te = te_channel(projectors)
        worst_idem = max(worst_idem, choi_max_diff(compose(te, te), te))
        d = te.dim
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho)
        projector_list = (
            projectors.projectors if hasattr(projectors, "projectors") else projectors
        )
        for e in projector_list:
            before = np.real(np.trace(e @ rho))
            after = np.real(np.trace(e @ apply(te, rho)))
            worst_stats = max(worst_stats, abs(before - after))

    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    x_basis = [np.outer(plus, plus.conj()), np.outer(minus, minus.conj())]
    two_pvm = is_qccro_two_pvm(named_gate("H"), basis_pvm(2), x_basis)
    ok = (
        reduction_ok
        and worst_idem <= 1e-10
        and worst_stats <= 1e-10
        and two_pvm.is_member
    )
    _report(
        "criterion 08 measurement variants",
        ok,
        f"rank-one reduction consistent: {reduction_ok}; idempotence "
        f"{worst_idem:.1e}, statistics {worst_stats:.1e}; H member for "
        f"(Z-out, X-in) pair: {two_pvm.is_member}",
    )


def test_criterion_09_clifford_observable_membership():
    rng = np.random.default_rng(9)
    failures = []
    for trial in range(20):
        n = 1 + trial % 2
        u = random_clifford(n, seed=int(rng.integers(2**31)))
        channel = unitary_channel(u)
        observable = int(rng.integers(1, 4**n))
        member, j = vqa_replaceable_set_R(channel, [observable])
        if not member:
            failures.append((trial, n, observable))
    _report(
        "criterion 09 sampled cliffords in R",
        not failures,
        f"20 gates with random observables"
        + (f"; failures {failures}" if failures else "; all members"),
    )


def test_criterion_09_ccx_with_zzz():
    channel = named_gate("CCX")
    zzz = pauli_index("ZZZ")
    t = pauli_channel_T(zzz, 3)
    lhs = compose(t, channel)
    rhs = compose(lhs, t)
    residual = choi_max_diff(lhs, rhs)
    member, j = vqa_replaceable_set_R(channel, [zzz])
    ok = residual <= 1e-9 and member and j == zzz
    _report(
        "criterion 09 ccx with zzz observable",
        ok,
        f"identity residual {residual:.10f} (member={member}, j={j}); "
        f"the residual is exactly 3/128, so the demanded membership does "
        f"not hold",
    )


def test_criterion_10_solver_health():
    a = np.array([[0.5, 1.5], [1.5, 0.5]], dtype=complex)
    tight = SolverOptions(tol_gap=1e-9, tol_feas=1e-9, max_iters=400000)
    problem = SdpProblem()
    problem.add_var("x", 2)
    problem.minimize({"x": np.eye(2)})
    problem.add_psd([("x", None, 2)], offset=-a)
    problem.add_psd([("x", None, 2)])
    solution = solve(canonical(problem), tight)
    mini_one = abs(solution.primal_value - 2.0)

    rng = np.random.default_rng(10)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m = raw + raw.conj().T
    problem = SdpProblem()
    problem.add_var("t", 1)
    problem.minimize({"t": -np.eye(1)})
    problem.add_psd([("t", lambda s: -s[0, 0] * np.eye(3), 3)], offset=m)
    solution = solve(canonical(problem), tight)
    mini_two = abs(-solution.primal_value - np.linalg.eigvalsh(m)[0])

    channels = [random_qccro(2, seed=seed) for seed in range(10)]
    channels += [random_channel(2, seed=seed) for seed in range(30, 40)]
    worst_gap = 0.0
    agreement = True
    for channel in channels:
        result = robustness(channel)
        worst_gap = max(worst_gap, result.residuals["gap"])
        zero = result.value <= 1e-6
        member = is_qccro(channel).is_member
        agreement = agreement and (zero == member)
    ok = (
        mini_one <= 1e-8
        and mini_two <= 1e-8
        and worst_gap <= 1e-6
        and agreement
    )
    _report(
        "criterion 10 solver health",
        ok,
        f"mini-SDP errors {mini_one:.1e}, {mini_two:.1e}; duality gap <= "
        f"{worst_gap:.1e} on 20 channels; zero-iff-free agreement: "
        f"{agreement}",
    )
