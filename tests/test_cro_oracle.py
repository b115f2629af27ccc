"""The membership tests against the composition path in ``oracles.py``.

The package decides the basis identities on dephasing masks of the Choi
matrix and the PVM and Pauli identities on products of its reshaped
superoperators.  The oracle builds every map's superoperator from Kraus
operators, writes D as ``diag(vec(I))`` and compares the Choi matrices of the
composed products.  Both must agree on membership, on the residual to 1e-12
and, for the Pauli set, on the replacing index; a reported witness must
separate the oracle's two sides.
"""

import numpy as np
import pytest

import oracles
from crolab.channels import (
    ProjectorSet,
    basis_pvm,
    compose,
    dephasing,
    named_gate,
    random_channel,
)
from crolab.cro import (
    is_cqcro,
    is_cro_pvm,
    is_dio,
    is_qccro,
    is_qccro_two_pvm,
    is_qccro_under_unitaries,
    is_qqcro,
    random_qccro,
    vqa_replaceable_set_R,
)
from crolab.paulis import pauli_index

TOL = 1e-9
BASIS_TESTS = {"cq": is_cqcro, "qq": is_qqcro, "qc": is_qccro, "dio": is_dio}


def sample_channels():
    """Random channels at d = 2, 3, 4, members of each class, and gates."""
    out = {f"random d={d} seed={s}": random_channel(d, seed=s) for d in (2, 3, 4) for s in (1, 2)}
    out["random rank-2 d=3"] = random_channel(3, rank=2, seed=3)
    for d in (2, 3, 4):
        out[f"qc member d={d}"] = random_qccro(d, seed=d)
        inner = random_channel(d, seed=10 + d)
        out[f"qq member d={d}"] = compose(dephasing(d), compose(inner, dephasing(d)))
    for name in ("H", "CNOT", "CCX"):
        out[name] = named_gate(name)
    return out


CHANNELS = sample_channels()


def random_unitary(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    return q


def assert_agrees(verdict, lhs, rhs, d):
    residual = oracles.choi_residual(lhs, rhs, d)
    assert verdict.is_member == (residual <= TOL)
    assert verdict.residual == pytest.approx(residual, abs=1e-12)
    if not verdict.is_member:
        sigma = verdict.witness_state
        gap = oracles.apply_superop(lhs, sigma) - oracles.apply_superop(rhs, sigma)
        assert np.max(np.abs(gap)) > TOL


@pytest.mark.parametrize("name", sorted(CHANNELS))
@pytest.mark.parametrize("kind", sorted(BASIS_TESTS))
def test_basis_classes_match_composition(name, kind):
    o = CHANNELS[name]
    d = o.dim
    s = oracles.superop_of_kraus(o.kraus)
    lhs, rhs = oracles.identity_sides(s, oracles.dephasing_superop(d), kind)
    assert_agrees(BASIS_TESTS[kind](o, TOL), lhs, rhs, d)


def pvms(d):
    """The basis PVM, a random rank-one PVM, and a degenerate one."""
    u = random_unitary(d, np.random.default_rng(d))
    rank_one = [np.outer(u[:, k], u[:, k].conj()) for k in range(d)]
    low = sum(rank_one[: d // 2])
    return {
        "basis": basis_pvm(d).projectors,
        "rotated": rank_one,
        "degenerate": [low, np.eye(d) - low],
    }


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_pvm_classes_match_composition(name):
    o = CHANNELS[name]
    d = o.dim
    s = oracles.superop_of_kraus(o.kraus)
    for projectors in pvms(d).values():
        t = oracles.reprepare_superop(projectors)
        pvm = ProjectorSet(projectors)
        for kind in ("cq", "qq", "qc"):
            lhs, rhs = oracles.identity_sides(s, t, kind)
            assert_agrees(is_cro_pvm(o, pvm, kind, TOL), lhs, rhs, d)


@pytest.mark.parametrize("name", sorted(CHANNELS))
def test_two_pvm_and_unitary_variants_match_composition(name):
    o = CHANNELS[name]
    d = o.dim
    s = oracles.superop_of_kraus(o.kraus)
    sets = list(pvms(d).values())
    for outcomes in sets:
        for inputs in sets:
            lhs = oracles.reprepare_superop(outcomes) @ s
            rhs = lhs @ oracles.reprepare_superop(inputs)
            verdict = is_qccro_two_pvm(o, ProjectorSet(outcomes), ProjectorSet(inputs), TOL)
            assert_agrees(verdict, lhs, rhs, d)

    rng = np.random.default_rng(7)
    candidates = [random_unitary(d, rng) for _ in range(2)] + [np.eye(d)]
    verdict = is_qccro_under_unitaries(o, candidates, TOL)
    dd = oracles.dephasing_superop(d)
    sides = []
    for u in candidates:
        rotated = s @ oracles.superop_of_kraus([u.conj().T])
        sides.append(oracles.identity_sides(rotated, dd, "qc"))
    residuals = [oracles.choi_residual(lhs, rhs, d) for lhs, rhs in sides]
    if verdict.is_member:
        first = next(k for k, r in enumerate(residuals) if r <= TOL)
        np.testing.assert_array_equal(verdict.matched_unitary, candidates[first])
        assert verdict.residual == pytest.approx(residuals[first], abs=1e-12)
    else:
        closest = int(np.argmin(residuals))
        assert_agrees(verdict, *sides[closest], d)


def vqa_cases():
    cnot_after_qc = compose(named_gate("CNOT"), CHANNELS["qc member d=4"])
    cases = [
        ("H", named_gate("H"), ["Z"]),
        ("H", named_gate("H"), ["X", "Y"]),
        ("CNOT", named_gate("CNOT"), ["ZI"]),
        ("CNOT", named_gate("CNOT"), ["IZ", "ZZ"]),
        ("CNOT", named_gate("CNOT"), ["XX"]),
        ("CCX", named_gate("CCX"), ["ZZZ"]),
        ("CCX", named_gate("CCX"), ["ZII", "IZI"]),
        ("CNOT after qc member", cnot_after_qc, ["ZZ"]),
        ("random d=2", CHANNELS["random d=2 seed=1"], ["Z"]),
        ("random d=4", CHANNELS["random d=4 seed=1"], ["ZI", "XX"]),
        ("qq member d=4", CHANNELS["qq member d=4"], ["ZZ", "IZ"]),
    ]
    return [pytest.param(o, labels, id=f"{name} {'+'.join(labels)}") for name, o, labels in cases]


@pytest.mark.parametrize("channel,observables", vqa_cases())
def test_vqa_matches_composition(channel, observables):
    n = channel.dim.bit_length() - 1
    indices = [pauli_index(p) for p in observables]
    expected = oracles.vqa_first_index(oracles.superop_of_kraus(channel.kraus), indices, n, TOL)
    member, j = vqa_replaceable_set_R(channel, indices, TOL)
    assert member == (expected is not None)
    assert j == expected


def test_ccx_zzz_residual_is_three_over_128():
    zzz = pauli_index("ZZZ")
    s = oracles.superop_of_kraus(named_gate("CCX").kraus)
    t = oracles.pauli_reprepare_superop(zzz, 3)
    assert oracles.choi_residual(t @ s, t @ s @ t, 8) == pytest.approx(3 / 128, abs=1e-12)

