"""The membership tests against the composition path in ``oracles.py``.

The package decides the basis identities on dephasing masks of the Choi
matrix, the PVM identities on the same side table with ``choi_measure`` in
place of the masks, and the Pauli identities on the pulled-back observables
O^dag(P_i).  The oracle builds every map's superoperator from Kraus
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
    choi_apply,
    choi_measure,
    compose,
    dephasing,
    mix,
    named_gate,
    random_channel,
    unitary_channel,
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
from crolab.linalg import dephase
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
CCZ = unitary_channel(np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex))


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


def measure_pvms(d):
    """A random rank-one PVM and, at d = 4, the mixed-rank (I +- ZZ)/2 and a
    rank-1/rank-2/rank-1 PVM in a random basis."""
    u = random_unitary(d, np.random.default_rng(20 + d))
    rank_one = [np.outer(u[:, k], u[:, k].conj()) for k in range(d)]
    out = {"rank-one": rank_one}
    if d == 4:
        zz = np.diag([1, -1, -1, 1]).astype(complex)
        out["(I +- ZZ)/2"] = [(np.eye(4) + zz) / 2, (np.eye(4) - zz) / 2]
        out["ranks 1-2-1"] = [rank_one[0], rank_one[1] + rank_one[2], rank_one[3]]
    return out


MAP_CHANNELS = [pytest.param(d, seed, id=f"d={d} seed={seed}") for d in (2, 3, 4) for seed in (1, 2)]


@pytest.mark.parametrize("d,seed", MAP_CHANNELS)
def test_choi_measure_matches_reprepare_products(d, seed):
    o = random_channel(d, seed=seed)
    s = oracles.superop_of_kraus(o.kraus)
    for projectors in measure_pvms(d).values():
        t = oracles.reprepare_superop(projectors)
        expected = {(): s, (0,): s @ t, (1,): t @ s, (0, 1): t @ s @ t}
        for sides, product in expected.items():
            got = choi_measure(o.choi, ProjectorSet(projectors), sides)
            np.testing.assert_allclose(got, oracles.choi_of_superop(product, d), rtol=0, atol=1e-12)


@pytest.mark.parametrize("d,seed", MAP_CHANNELS)
def test_choi_measure_of_the_basis_is_the_dephasing_mask(d, seed):
    choi = random_channel(d, seed=seed).choi
    for sides in ((), (0,), (1,), (0, 1)):
        got = choi_measure(choi, basis_pvm(d), sides)
        np.testing.assert_allclose(got, dephase(choi, [d, d], sides), rtol=0, atol=1e-15)


@pytest.mark.parametrize("d,seed", MAP_CHANNELS)
def test_choi_apply_and_compose_match_superops(d, seed):
    a, b = random_channel(d, seed=seed), random_channel(d, seed=seed + 10)
    s = oracles.superop_of_kraus(a.kraus)
    rng = np.random.default_rng(seed)
    ops = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
    images = choi_apply(a.choi, ops)
    assert images.shape == ops.shape
    for op, image in zip(ops, images):
        np.testing.assert_allclose(image, oracles.apply_superop(s, op), rtol=0, atol=1e-12)
    expected = oracles.choi_of_superop(s @ oracles.superop_of_kraus(b.kraus), d)
    np.testing.assert_allclose(compose(a, b).choi, expected, rtol=0, atol=1e-12)


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
        ("CCZ", CCZ, ["ZZZ"]),
        ("CCZ", CCZ, ["III", "ZIZ"]),
        ("CCZ", CCZ, ["XII", "XII"]),
        ("H", named_gate("H"), ["I"]),
        ("CNOT", named_gate("CNOT"), ["XI", "II", "XI"]),
    ]
    for s in (1, 2, 3):
        cases.append((f"random d=8 seed={s}", random_channel(8, seed=s), ["ZZZ", "III"]))
        cases.append((f"qc member d=8 seed={s}", random_qccro(8, seed=s), ["III"]))
        cases.append((f"qc member d=8 seed={s}", random_qccro(8, seed=s), ["ZIZ", "ZIZ"]))
    return [pytest.param(o, labels, id=f"{name} {'+'.join(labels)}") for name, o, labels in cases]


@pytest.mark.parametrize("channel,observables", vqa_cases())
def test_vqa_matches_composition(channel, observables):
    n = channel.dim.bit_length() - 1
    indices = [pauli_index(p) for p in observables]
    expected = oracles.vqa_first_index(oracles.superop_of_kraus(channel.kraus), indices, n, TOL)
    member, j = vqa_replaceable_set_R(channel, indices, TOL)
    assert member == (expected is not None)
    assert j == expected


def test_vqa_tolerance_edges_match_composition():
    """Set tol just above and just below every candidate's residual on a
    CCX/CCZ mixture: the decision and the index must follow the oracle's
    scan, which pins the residual's scale to within a part in 10^6."""
    channel = mix([named_gate("CCX"), CCZ], [0.3, 0.7])
    zzz = pauli_index("ZZZ")
    residuals = oracles.vqa_residuals(oracles.superop_of_kraus(channel.kraus), [zzz], 3)
    assert min(residuals) > 1e-3
    for r in residuals:
        for tol in (r * (1 + 1e-6), r * (1 - 1e-6)):
            expected = next((j for j, rj in enumerate(residuals) if rj <= tol), None)
            assert vqa_replaceable_set_R(channel, [zzz], tol) == (expected is not None, expected)


def test_ccx_zzz_residual_is_three_over_128():
    zzz = pauli_index("ZZZ")
    s = oracles.superop_of_kraus(named_gate("CCX").kraus)
    t = oracles.pauli_reprepare_superop(zzz, 3)
    assert oracles.choi_residual(t @ s, t @ s @ t, 8) == pytest.approx(3 / 128, abs=1e-12)

