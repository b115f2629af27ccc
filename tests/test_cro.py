import copy
import functools
import json
import pickle
import tracemalloc

import numpy as np
import pytest

import oracles
from crolab import channels as channels_module
from crolab import cli, cro
from crolab.channels import (
    _FIXED_GATES,
    MAX_DIM,
    Channel,
    ProjectorSet,
    apply,
    basis_pvm,
    channel_from_kraus,
    choi_measure,
    choi_max_diff,
    compose,
    dephasing,
    identity_channel,
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
    is_qccro_under_unitaries,
    is_qqcro,
    random_qccro,
    vqa_replaceable_set_R,
)
from crolab.linalg import DEFAULT_TOL, dephase
from crolab.paulis import HADAMARD, PAULI_X, pauli_index, pauli_stack, random_clifford


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def prepare_plus_channel():
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return channel_from_kraus([np.outer(plus, [1, 0]), np.outer(plus, [0, 1])])


def eb_example_channel():
    """Measure in the X basis, then prepare |0> or |+> depending on outcome."""
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    zero = np.array([1.0, 0.0], dtype=complex)
    return channel_from_kraus([np.outer(zero, plus.conj()), np.outer(plus, minus.conj())])


class TestClassificationTable:
    """Membership of benchmark channels in the four classes."""

    TABLE = {
        "Z": (True, False, True, True),
        "X": (True, False, True, True),
        "H": (False, False, False, False),
        "CNOT": (True, False, True, True),
    }

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_named_gates(self, name):
        o = named_gate(name)
        expected = self.TABLE[name]
        got = (
            is_cqcro(o).is_member,
            is_qqcro(o).is_member,
            is_qccro(o).is_member,
            is_dio(o).is_member,
        )
        assert got == expected

    def test_dephased_hadamard(self):
        o = compose(dephasing(2), named_gate("H"))
        assert is_cqcro(o).is_member
        assert not is_dio(o).is_member

    def test_prepare_plus(self):
        o = prepare_plus_channel()
        assert is_qccro(o).is_member
        assert not is_dio(o).is_member
        assert not is_cqcro(o).is_member

    def test_eb_example_outside_cq_and_qc(self):
        o = eb_example_channel()
        assert not is_cqcro(o).is_member
        assert not is_qccro(o).is_member

    def test_dephasing_is_fully_classical(self):
        v = is_qqcro(dephasing(3))
        assert v.is_member
        np.testing.assert_allclose(v.replacement, np.eye(3), atol=1e-12)

    def test_dio_equals_cq_intersect_qc(self):
        channels = [
            named_gate("H"),
            named_gate("CNOT"),
            prepare_plus_channel(),
            compose(dephasing(2), named_gate("H")),
            random_qccro(2, seed=5),
            random_channel(2, seed=6),
            random_channel(3, seed=7),
        ]
        for o in channels:
            both = is_cqcro(o).is_member and is_qccro(o).is_member
            assert is_dio(o).is_member == both

    def test_qq_members_are_in_every_class(self):
        d = dephasing(3)
        for seed in (1, 2, 3):
            o = compose(d, compose(random_channel(3, seed=seed), d))
            assert is_qqcro(o).is_member
            assert is_cqcro(o).is_member
            assert is_qccro(o).is_member
            assert is_dio(o).is_member


class TestVerdictContents:
    def test_member_carries_stochastic_replacement(self):
        v = is_qccro(random_qccro(3, seed=9))
        assert v.is_member
        t = v.replacement
        assert t.shape == (3, 3)
        np.testing.assert_allclose(t.sum(axis=0), np.ones(3), atol=1e-9)
        assert t.min() >= 0.0

    def test_replacement_soundness_on_diagonals(self):
        """For qc members, diag(O(rho)) = T diag(rho) for every state."""
        rng = np.random.default_rng(20)
        for seed in (11, 12, 13):
            o = random_qccro(3, seed=seed)
            t = is_qccro(o).replacement
            for _ in range(4):
                rho = random_density(rng, 3)
                lhs = np.real(np.diag(apply(o, rho)))
                np.testing.assert_allclose(lhs, t @ np.real(np.diag(rho)), atol=1e-9)

    def test_nonmember_carries_witness_state(self):
        v = is_qccro(named_gate("H"))
        assert not v.is_member
        assert v.witness_state is not None
        assert v.replacement is None
        # the witness actually violates the defining identity
        d = dephasing(2)
        lhs = apply(compose(d, named_gate("H")), v.witness_state)
        rhs = apply(compose(d, compose(named_gate("H"), d)), v.witness_state)
        assert np.max(np.abs(lhs - rhs)) > 1e-3

    def test_residual_scales_with_coherence(self):
        v0 = is_qccro(named_gate("U", 0.05))
        v1 = is_qccro(named_gate("U", np.pi / 4))
        assert 0 < v0.residual < v1.residual

    def test_probe_frame_is_informationally_complete(self):
        for d in (2, 3):
            probes = oracles.probe_frame(d)
            assert len(probes) == d * d
            stacked = np.stack([p.reshape(-1) for p in probes])
            assert np.linalg.matrix_rank(stacked) == d * d

    def test_witness_is_writable_and_fresh(self):
        h = named_gate("H")
        first, second = is_qccro(h).witness_state, is_qccro(h).witness_state
        assert first.flags.writeable
        assert first.tobytes() == second.tobytes()
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, h.choi)

    def test_one_pass_equals_the_four_tests(self, monkeypatch):
        """``_masked_verdicts`` dephases nothing and builds one replacement,
        and gives each public test's membership, residual and replacement
        bit for bit, with no witness."""
        tests = {"cq": is_cqcro, "qq": is_qqcro, "qc": is_qccro, "dio": is_dio}
        channels = [named_gate(g) for g in ("H", "Z", "CNOT")]
        channels += [random_channel(3, seed=4), random_qccro(3, seed=5), dephasing(4)]

        def refuse(*args):
            raise AssertionError("a side of an identity was dephased")

        for channel in channels:
            monkeypatch.setattr(cro, "dephase", refuse)
            built = []
            stochastic = cro._stochastic_from_choi
            monkeypatch.setattr(cro, "_stochastic_from_choi", lambda *a: built.append(1) or stochastic(*a))
            verdicts = cro._masked_verdicts(channel.choi, channel.dim, tuple(tests), 1e-9)
            assert built == [1]
            monkeypatch.undo()
            assert list(verdicts) == list(tests)
            for kind, test in tests.items():
                got, expected = verdicts[kind], test(channel)
                assert (got.is_member, got.residual) == (expected.is_member, expected.residual)
                a, b = got.replacement, expected.replacement
                assert (a is None and b is None) or a.tobytes() == b.tobytes()
                assert got.witness_state is None
                assert (expected.witness_state is None) == expected.is_member


class TestOnePassAgainstTwoMasks:
    """Every basis class, in ``_masked_verdicts`` and in the public test,
    against the replaced path that dephases both sides of the identity
    and subtracts them (``oracles.two_mask_verdict``), bit for bit."""

    TESTS = {"cq": is_cqcro, "qq": is_qqcro, "qc": is_qccro, "dio": is_dio}

    @staticmethod
    def _channels(d):
        """Random channels, qc members, near-members (1 - eps) qc + eps
        random on both sides of the tolerance, and the named gates of
        dimension d."""
        rng = np.random.default_rng(33 + d)
        channels = [random_channel(d, rank=rank, seed=rng) for rank in (1, 2, d * d)]
        members = [random_qccro(d, seed=rng), random_qccro(d, seed=rng, qq_weight=0.5)]
        channels += members
        for eps in (1e-12, 1e-9, 1e-8, 3e-8, 1e-7, 1e-6):
            noise = random_channel(d, seed=rng)
            channels += [Channel((1 - eps) * m.choi + eps * noise.choi) for m in members]
        channels += [named_gate(name) for name, u in _FIXED_GATES.items() if len(u) == d]
        if d == 2:
            channels += [named_gate(name, theta) for name in ("RZ", "RX", "U") for theta in (0.0, 0.3, np.pi / 2)]
        return channels

    @staticmethod
    def _same(a, b):
        return (a is None and b is None) or (a is not None and b is not None and a.tobytes() == b.tobytes())

    @pytest.mark.parametrize("d", range(1, 9))
    def test_membership_residual_replacement_and_witness(self, d):
        verdicts = members = 0
        for channel in self._channels(d):
            one_pass = cro._masked_verdicts(channel.choi, d, tuple(self.TESTS), DEFAULT_TOL)
            for kind, test in self.TESTS.items():
                member, residual, replacement, witness = oracles.two_mask_verdict(channel.choi, d, kind, DEFAULT_TOL)
                for got in (one_pass[kind], test(channel)):
                    assert (got.is_member, got.residual) == (member, residual)
                    assert self._same(got.replacement, replacement)
                verdict = test(channel)
                assert self._same(verdict.witness_state, witness)
                assert one_pass[kind].witness_state is None
                verdicts += 1
                members += member
        # Both verdicts occur at every d > 1; at d = 1 every channel is a member.
        assert 0 < members <= verdicts and (members < verdicts) == (d > 1)


class TestWitnessBound:
    """Every public non-member verdict carries a pure witness whose image
    under the difference of the identity's two sides has an entry of at
    least d * residual / 4 (``cro._witness``)."""

    BASIS = {"cq": is_cqcro, "qq": is_qqcro, "qc": is_qccro, "dio": is_dio}

    @classmethod
    def _verdicts_and_sides(cls, o, pvm):
        """(verdict, lhs, rhs) of the four basis tests, the three PVM
        tests for ``pvm`` and the two-PVM test (``pvm`` out, basis in)."""
        d, choi = o.dim, o.choi
        for kind, test in cls.BASIS.items():
            yield (test(o), *(dephase(choi, [d, d], s) for s in cro._MASKS[kind]))
        for kind in ("cq", "qq", "qc"):
            yield (is_cro_pvm(o, pvm, kind), *(choi_measure(choi, pvm, s) for s in cro._MASKS[kind]))
        lhs = choi_measure(choi, pvm, (1,))
        yield is_qccro_two_pvm(o, pvm, basis_pvm(d)), lhs, choi_measure(lhs, basis_pvm(d), (0,))

    @pytest.mark.parametrize("d", [*range(1, 9), 16])
    def test_image_entry_is_at_least_a_quarter_of_d_residual(self, d):
        """A Haar unitary and random channels of every Kraus rank (at d =
        16, the ranks 1, 2, 4, ..., 256), against a random rank-one PVM."""
        rng = np.random.default_rng(d)
        u = oracles.haar_unitary(d, rng)
        pvm = ProjectorSet([np.outer(u[:, k], u[:, k].conj()) for k in range(d)])
        ranks = range(1, d * d + 1) if d <= 8 else [2**j for j in range(9)]
        channels = [unitary_channel(oracles.haar_unitary(d, rng))]
        channels += [random_channel(d, rank=rank, seed=100 * d + rank) for rank in ranks]
        ratios = []
        for o in channels:
            for verdict, lhs, rhs in self._verdicts_and_sides(o, pvm):
                if verdict.is_member:
                    assert verdict.witness_state is None
                    continue
                sigma = verdict.witness_state
                assert np.trace(sigma) == pytest.approx(1.0, abs=1e-15)
                assert np.linalg.matrix_rank(sigma) == 1
                image = oracles.choi_image(lhs - rhs, sigma)
                ratios.append(np.max(np.abs(image)) / (d * verdict.residual))
        # At d = 1 every channel is in every class.
        assert (d == 1) == (not ratios)
        assert min(ratios, default=1.0) >= 0.25

    def test_under_unitaries_witnesses_only_the_returned_verdict(self, monkeypatch):
        built = []
        real = cro._witness
        monkeypatch.setattr(cro, "_witness", lambda diff, d: built.append(d) or real(diff, d))
        rng = np.random.default_rng(3)
        o = random_channel(4, seed=3)
        candidates = [oracles.haar_unitary(4, rng) for _ in range(6)]
        verdict = is_qccro_under_unitaries(o, candidates)
        assert not verdict.is_member and built == [4]
        rotated = [compose(o, unitary_channel(u.conj().T)) for u in candidates]
        closest = min(rotated, key=lambda c: is_qccro(c).residual)
        assert verdict.residual == pytest.approx(is_qccro(closest).residual, abs=1e-14)
        lhs, rhs = (dephase(closest.choi, [4, 4], s) for s in cro._MASKS["qc"])
        image = oracles.choi_image(lhs - rhs, verdict.witness_state)
        assert np.max(np.abs(image)) >= verdict.residual - 1e-12  # d * residual / 4 at d = 4
        built.clear()
        assert is_qccro_under_unitaries(named_gate("H"), [PAULI_X, HADAMARD]).is_member
        assert built == []

    def test_basis_tests_at_five_qubits_apply_no_map_and_stay_small(self, monkeypatch):
        """At d = 32 no basis test calls ``choi_apply``, and each one's
        traced peak is at most 80 MiB (the O(d^6) probe search it replaced
        kept a 16 MiB probe stack and peaked at about 80 MiB warm, 112 MiB
        cold)."""
        o = unitary_channel(oracles.haar_unitary(MAX_DIM, np.random.default_rng(32)))

        def refuse(*args):
            raise AssertionError("a basis test applied a map")

        monkeypatch.setattr(cro, "choi_apply", refuse)
        for test in self.BASIS.values():
            tracemalloc.start()
            try:
                verdict = test(o)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not verdict.is_member and verdict.witness_state.shape == (MAX_DIM, MAX_DIM)
            assert peak <= 80 * 2**20


class TestPvmVariants:
    def test_rank_one_pvm_reduces_to_basis_classes(self):
        pvm = basis_pvm(2)
        for o in (named_gate("H"), named_gate("Z"), random_qccro(2, seed=3), random_channel(2, seed=4)):
            assert is_cro_pvm(o, pvm, "cq").is_member == is_cqcro(o).is_member
            assert is_cro_pvm(o, pvm, "qq").is_member == is_qqcro(o).is_member
            assert is_cro_pvm(o, pvm, "qc").is_member == is_qccro(o).is_member

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_replacement_accepts_every_channel_that_loads(self, d):
        """A channel validated at tol = 1e-6 whose reference marginal has
        off-diagonal entries 0.8 tol: against the Fourier basis its PVM
        replacement's column sums are off by 1.6 (d - 1) tol, within the
        d^2 tol that the marginal check leaves (the check at tol refused
        them)."""
        tol = 1e-6
        choi = random_channel(d, seed=1).choi.copy()
        for i in range(1, d):
            choi[0, i * d] += 0.8 * tol
            choi[i * d, 0] += 0.8 * tol
        o = Channel(choi, tol=tol)
        f = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
        pvm = ProjectorSet([np.outer(f[:, k], f[:, k].conj()) for k in range(d)])
        for kind in ("cq", "qq", "qc"):
            assert not is_cro_pvm(o, pvm, kind, tol).is_member
        assert not is_qccro_two_pvm(o, pvm, pvm, tol).is_member
        t = cro._pvm_stochastic(o, pvm, pvm, tol)
        assert np.max(np.abs(t.sum(axis=0) - 1)) == pytest.approx(1.6 * (d - 1) * tol, rel=1e-6)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            is_cro_pvm(named_gate("Z"), basis_pvm(2), "cc")

    def test_cnot_with_zz_pvm(self):
        """CNOT moves the ZZ observable to IZ, which the coarse ZZ
        measurement cannot represent, so it is not replaceable for that PVM.

        Oracle: with P = projector onto the even-parity subspace,
        T(CNOT P CNOT) = (3P + (I-P))/4... computed directly from matrix
        algebra below rather than through the channel classes.
        """
        zz = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        plus = (np.eye(4) + zz) / 2
        minus = (np.eye(4) - zz) / 2
        pvm = ProjectorSet([plus, minus])
        verdict = is_cro_pvm(named_gate("CNOT"), pvm, "qc")
        assert not verdict.is_member

        # independent residual estimate on a basis state: |01><01| maps to
        # |01+1 mod 2> = ... CNOT|01> = |01>? control is qubit 0; CNOT|01>=|01>.
        # use |10>: CNOT|10> = |11>, parity flips from odd to even.
        cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0
        t_of = lambda s: (np.trace(plus @ s) * plus + np.trace(minus @ s) * minus) / 2
        lhs = t_of(cnot @ rho @ cnot.conj().T)
        rhs = t_of(cnot @ t_of(rho) @ cnot.conj().T)
        assert np.max(np.abs(lhs - rhs)) > 0.1
        assert verdict.residual > 1e-3

    def test_degenerate_pvm_member(self):
        """block measurement of a channel that only permutes blocks classically"""
        zz = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
        pvm = ProjectorSet([(np.eye(4) + zz) / 2, (np.eye(4) - zz) / 2])
        # the te channel itself is replaceable for its own PVM in every mode
        t = te_channel(pvm)
        for kind in ("cq", "qq", "qc"):
            v = is_cro_pvm(t, pvm, kind)
            assert v.is_member
            np.testing.assert_allclose(v.replacement, np.eye(2), atol=1e-9)

    def test_two_pvm_hadamard(self):
        """H maps the X basis to the Z basis, so (Z out, X in) replaces it."""
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        xbasis = ProjectorSet([np.outer(plus, plus.conj()), np.outer(minus, minus.conj())])
        v = is_qccro_two_pvm(named_gate("H"), basis_pvm(2), xbasis)
        assert v.is_member
        np.testing.assert_allclose(v.replacement, np.eye(2), atol=1e-10)

    def test_two_pvm_nonmember_has_witness(self):
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        xbasis = ProjectorSet([np.outer(plus, plus.conj()), np.outer(minus, minus.conj())])
        v = is_qccro_two_pvm(named_gate("T"), basis_pvm(2), xbasis)
        assert not v.is_member
        assert v.witness_state is not None

    def test_two_pvm_reduces_to_single(self):
        pvm = basis_pvm(2)
        for o in (named_gate("H"), random_qccro(2, seed=14)):
            assert is_qccro_two_pvm(o, pvm, pvm).is_member == is_qccro(o).is_member


class TestUnderUnitaries:
    def test_hadamard_fixed_by_own_rotation(self):
        v = is_qccro_under_unitaries(named_gate("H"), [HADAMARD, PAULI_X])
        assert v.is_member
        np.testing.assert_allclose(v.matched_unitary, HADAMARD)

    def test_reports_first_match(self):
        v = is_qccro_under_unitaries(named_gate("H"), [PAULI_X, HADAMARD])
        np.testing.assert_allclose(v.matched_unitary, HADAMARD)

    def test_nonmember(self):
        t8 = np.diag([1.0, np.exp(1j * np.pi / 4)])
        v = is_qccro_under_unitaries(named_gate("H"), [t8])
        assert not v.is_member
        assert v.matched_unitary is None

    def test_empty_list_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            is_qccro_under_unitaries(named_gate("H"), [])

    def test_plain_member_matches_identity(self):
        o = random_qccro(2, seed=15)
        v = is_qccro_under_unitaries(o, [np.eye(2)])
        assert v.is_member

    def test_rejects_zero_dim_candidate(self):
        with pytest.raises(ValueError, match="not a unitary"):
            is_qccro_under_unitaries(named_gate("H"), [np.array(1.0)])


class TestDeterministicCru:
    def test_bit_flip(self):
        v = is_deterministic_cru(PAULI_X)
        assert v.is_member
        np.testing.assert_allclose(v.replacement, np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_phase_gate_gives_identity(self):
        v = is_deterministic_cru(np.diag([1.0, np.exp(0.37j)]))
        assert v.is_member
        np.testing.assert_allclose(v.replacement, np.eye(2))

    def test_hadamard_is_not_cru(self):
        v = is_deterministic_cru(HADAMARD)
        assert not v.is_member
        assert v.residual == pytest.approx(0.5, abs=1e-12)

    def test_permutation_with_phases_is_exact(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            d = 4
            perm = rng.permutation(d)
            u = np.zeros((d, d), dtype=complex)
            for col, row in enumerate(perm):
                u[row, col] = np.exp(2j * np.pi * rng.random())
            v = is_deterministic_cru(u)
            assert v.is_member
            t = v.replacement
            assert set(np.unique(t)) <= {0.0, 1.0}
            np.testing.assert_allclose(t.sum(axis=0), np.ones(d))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            is_deterministic_cru(np.diag([1.0, 0.5]))

    def test_rejects_zero_dim_array(self):
        with pytest.raises(ValueError, match="not a unitary"):
            is_deterministic_cru(np.array(1.0))


class TestVqaSet:
    def test_identity_channel_matches_its_own_index(self):
        for i in (1, 5, 10):
            member, j = vqa_replaceable_set_R(identity_channel(4), [i])
            assert member and j == i

    def test_depolarizing_index_zero_matches_first(self):
        member, j = vqa_replaceable_set_R(identity_channel(2), [0])
        assert member and j == 0

    def test_swap_singleton(self):
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        member, j = vqa_replaceable_set_R(unitary_channel(swap), [pauli_index("ZI")])
        assert member and j == pauli_index("IZ")

    def test_swap_two_observables_has_no_common_index(self):
        """ZI and IZ land on different indices after SWAP, and no single
        dephasing index serves both, so the one-index set excludes SWAP."""
        swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
        member, j = vqa_replaceable_set_R(
            unitary_channel(swap), [pauli_index("ZI"), pauli_index("IZ")]
        )
        assert not member and j is None

    def test_t_gate_with_x_observable(self):
        member, j = vqa_replaceable_set_R(named_gate("T"), [pauli_index("X")])
        assert not member and j is None

    def test_s_gate_with_x_observable(self):
        """S conjugates X to Y, so the Y measurement replaces it."""
        member, j = vqa_replaceable_set_R(named_gate("S"), [pauli_index("X")])
        assert member and j == pauli_index("Y")

    def test_sampled_cliffords_with_singleton_observables(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            n = 1 + (trial % 2)
            c = random_clifford(n, seed=trial)
            i = int(rng.integers(1, 4**n))
            member, j = vqa_replaceable_set_R(unitary_channel(c), [i])
            assert member, f"clifford seed {trial} failed for observable {i}"

    def test_ccx_with_zzz_is_not_replaceable(self):
        """CCX conjugates ZZZ to a sum of four Pauli strings, so no single
        Pauli measurement reproduces its statistics; the defining identity
        at j = ZZZ misses by exactly 3/128 on the Choi states (the value a
        direct calculation on |110><110| gives)."""
        ccx = named_gate("CCX")
        zzz = pauli_index("ZZZ")
        member, j = vqa_replaceable_set_R(ccx, [zzz])
        assert not member and j is None
        t = pauli_channel_T(zzz, 3)
        lhs = compose(t, ccx)
        residual = choi_max_diff(lhs, compose(lhs, t))
        assert residual == pytest.approx(3.0 / 128.0, abs=1e-12)

    def test_ccz_with_zzz_is_replaceable(self):
        """the diagonal cousin of CCX commutes with the ZZZ dephasing"""
        ccz = unitary_channel(np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex))
        member, j = vqa_replaceable_set_R(ccz, [pauli_index("ZZZ")])
        assert member and j == pauli_index("ZZZ")

    def test_pauli_stack_is_cached_read_only(self):
        stack = pauli_stack(3)
        assert pauli_stack(3) is stack and stack.shape == (64, 8, 8)
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 2.0
        zii = pauli_index("ZII")
        assert vqa_replaceable_set_R(named_gate("CCX"), [zii]) == (True, zii)
        assert pauli_stack(3) is stack

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="2\\^n"):
            vqa_replaceable_set_R(identity_channel(3), [0])
        with pytest.raises(ValueError, match="dimension 33 exceeds the limit of 32"):
            vqa_replaceable_set_R(identity_channel(MAX_DIM + 1), [0])

    @pytest.mark.parametrize("n", [4, 5])
    def test_known_answers_at_four_and_five_qubits(self, n):
        """H^n conjugates Z^n to X^n, a member with j = X^n; T (x) I^(n-1)
        turns X I^(n-1) into (X + Y) I^(n-1) / sqrt(2), which no single
        Pauli measurement reproduces."""
        hadamards = functools.reduce(tensor, [named_gate("H")] * n)
        zs, xs = pauli_index("Z" * n), pauli_index("X" * n)
        assert vqa_replaceable_set_R(hadamards, [zs]) == (True, xs)
        t_gate = tensor(named_gate("T"), identity_channel(2 ** (n - 1)))
        assert vqa_replaceable_set_R(t_gate, [pauli_index("X" + "I" * (n - 1))]) == (False, None)

    def test_observables_are_folded_across_chunks(self):
        """Each observable's residuals are folded into the maximum per j,
        one observable at a time.  Under H^4, Z^4 repeated 20 times stays a
        member with j = X^4; Z I I I after 16 of them (a member with j =
        X I I I by itself) leaves no common j."""
        hadamards = functools.reduce(tensor, [named_gate("H")] * 4)
        zs = pauli_index("ZZZZ")
        assert vqa_replaceable_set_R(hadamards, [zs] * 20) == (True, pauli_index("XXXX"))
        assert vqa_replaceable_set_R(hadamards, [pauli_index("ZIII")]) == (True, pauli_index("XIII"))
        assert vqa_replaceable_set_R(hadamards, [zs] * 16 + [pauli_index("ZIII")]) == (False, None)

    def test_thirty_two_observables_at_five_qubits_stay_small(self):
        """The traced peak of 32 observables at n = 5, the Pauli stack's
        build included, stays under 100 MB: one observable's (4^5, 32, 32)
        array of residual operators, 16 MiB, at a time rather than 512 MiB
        for all of them."""
        channel = functools.reduce(tensor, [named_gate("H")] * 5)
        observables = list(range(0, 4**5, 32))
        pauli_stack.cache_clear()
        tracemalloc.start()
        try:
            member, _ = vqa_replaceable_set_R(channel, observables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not member
        assert peak < 100 * 2**20

    def test_observable_range_guard(self):
        with pytest.raises(ValueError, match="out of range"):
            vqa_replaceable_set_R(identity_channel(2), [4])


class TestEbPpt:
    def test_dephasing_is_eb(self):
        status, mineig = eb_ppt_test(dephasing(2))
        assert status == "eb_confirmed"
        assert mineig >= -1e-12

    def test_identity_is_not_eb(self):
        status, mineig = eb_ppt_test(identity_channel(2))
        assert status == "not_eb_confirmed"
        assert mineig == pytest.approx(-0.5, abs=1e-12)

    def test_eb_example(self):
        assert eb_ppt_test(eb_example_channel()).status == "eb_confirmed"

    def test_ppt_beyond_qubits_is_inconclusive(self):
        assert eb_ppt_test(dephasing(3)).status == "inconclusive"

    def test_npt_beyond_qubits_is_decisive(self):
        assert eb_ppt_test(identity_channel(3)).status == "not_eb_confirmed"


def _no_eigvalsh(m):
    raise AssertionError(f"eigvalsh of a {m.shape} array")


def _ppt_bound(d, tol):
    """How far the closed form -sigma_1 sigma_2 / d may sit from the
    replaced eigvalsh minimum on the same one-Kraus channel, n = d^2.

    The Choi array J = w w^dag / d is pure, so ||J||_2 = ||J||_F = tr J <=
    1 + tol.  eigvalsh is backward stable, within p(n) eps ||J||_2 of the
    eigenvalues of the rounded array (p(n) taken as n); each rounded entry
    is within 4 u = 2 eps of w_i conj(w_j) / d in relative terms (a complex
    product, then a division), which moves the eigenvalues by at most
    2 eps ||J||_F; the SVD gives each sigma within p(d) eps ||K||_2 (p(d)
    taken as d), so their product within 2 d eps (1 + tol).  That is
    (n + 2 d + 2) eps (1 + tol), doubled for room.
    """
    return 2 * (d * d + 2 * d + 2) * np.finfo(float).eps * (1 + tol)


class TestEbPptClosedForm:
    """One-Kraus channels read the partial-transpose minimum as -sigma_1
    sigma_2 / d (Peres) from one d x d SVD; every other channel, and a
    Kraus operator whose Choi array is not the channel's, keeps the
    replaced eigvalsh (``oracles.eb_ppt_verdict``)."""

    @staticmethod
    def _one_kraus_channels():
        rng = np.random.default_rng(28)
        channels = [(name, named_gate(name), DEFAULT_TOL) for name in _FIXED_GATES]
        for d in (*range(1, 9), 32):
            channels.append((f"haar {d}", unitary_channel(oracles.haar_unitary(d, rng)), DEFAULT_TOL))
        # Complete only within 1e-3: K^dag K = diag((1 + delta)^2).
        k = oracles.haar_unitary(3, rng) @ np.diag([1 + 4e-4, 1 - 3e-4, 1 + 1e-4]) @ oracles.haar_unitary(3, rng)
        channels.append(("near-unitary", channel_from_kraus([k], tol=1e-3), 1e-3))
        return channels

    @staticmethod
    def _loaded_channels(tmp_path):
        """Gate tensors and compositions, and compositions and tensors of
        one-operator Kraus leaves, as the CLI loads them, at d = 1..8."""
        rng = np.random.default_rng(33)

        def leaf(d):
            u = oracles.haar_unitary(d, rng)
            return {"kind": "kraus", "dim": d, "operators": [np.stack([u.real, u.imag], -1).tolist()]}

        def gates(kind, *names):
            return {"kind": kind, "children": [{"kind": "gate", "name": name} for name in names]}

        specs = [gates("tensor", "H", "T"), gates("tensor", "X", "H", "S"), gates("tensor", "H", "CNOT")]
        specs += [gates("composition", "H", "T"), gates("composition", "CNOT", "CNOT"), gates("composition", "CCX", "CCX")]
        specs += [{"kind": "composition", "children": [leaf(d), leaf(d)]} for d in range(1, 9)]
        specs += [{"kind": "tensor", "children": [leaf(a), leaf(b)]} for a, b in ((1, 1), (1, 2), (2, 2), (2, 3), (4, 2))]
        specs.append({"kind": "composition", "children": [gates("tensor", "H", "I"), {"kind": "gate", "name": "CNOT"}, leaf(4)]})
        for k, spec in enumerate(specs):
            path = tmp_path / f"spec{k}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            yield f"spec {k}", cli.load_channel(str(path), DEFAULT_TOL), DEFAULT_TOL

    def test_one_kraus_channels_match_the_replaced_path(self, monkeypatch, tmp_path):
        """Each reads the record that ``channel_from_kraus`` left: no Choi
        array is built and no eigvalsh runs."""

        def refuse(*args):
            raise AssertionError("a Choi array was built from the Kraus operator")

        for name, channel, tol in [*self._one_kraus_channels(), *self._loaded_channels(tmp_path)]:
            d = channel.dim
            assert channel._gram and len(channel._kraus) == 1, name
            status, expected = oracles.eb_ppt_verdict(channel.choi, d, tol)
            monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigvalsh)
            monkeypatch.setattr(channels_module, "choi_stack_from_kraus", refuse)
            monkeypatch.setattr(cro, "choi_stack_from_kraus", refuse, raising=False)
            got = eb_ppt_test(channel, tol)
            monkeypatch.undo()
            assert got.status == status, name
            assert abs(got.min_eigenvalue - expected) <= _ppt_bound(d, tol), name

    def test_copies_keep_the_record(self):
        rng = np.random.default_rng(34)
        channels = [named_gate("H"), unitary_channel(oracles.haar_unitary(3, rng)), dephasing(2), random_channel(2, seed=0)]
        for channel in channels:
            for copied in (copy.deepcopy(channel), pickle.loads(pickle.dumps(channel))):
                assert copied._gram == channel._gram
                assert eb_ppt_test(copied) == eb_ppt_test(channel)
        assert [c._gram for c in channels] == [True, True, True, False]

    def test_a_matching_kraus_operator_passed_in_keeps_eigvalsh(self, monkeypatch):
        """``Channel(choi, kraus=[K])`` records nothing, even when ``choi``
        is exactly the Gram sum of K."""
        rng = np.random.default_rng(35)
        for u in (HADAMARD, _FIXED_GATES["CNOT"], oracles.haar_unitary(3, rng)):
            channel = Channel(unitary_channel(u).choi, kraus=[u])
            assert channel.choi.tobytes() == unitary_channel(u).choi.tobytes()
            assert not channel._gram
            calls = []
            eigvalsh = np.linalg.eigvalsh
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
            got = eb_ppt_test(channel)
            monkeypatch.undo()
            assert calls == [channel.choi.shape]
            assert tuple(got) == oracles.eb_ppt_verdict(channel.choi, channel.dim, DEFAULT_TOL)

    def test_permutation_gates_are_exact(self):
        for name in ("X", "CNOT", "CCX"):
            channel = named_gate(name)
            assert eb_ppt_test(channel) == ("not_eb_confirmed", -1.0 / channel.dim)

    def test_a_kraus_operator_that_is_not_the_choi_array_keeps_eigvalsh(self):
        channel = Channel(dephasing(2).choi, kraus=[HADAMARD])
        assert tuple(eb_ppt_test(channel)) == oracles.eb_ppt_verdict(channel.choi, 2, DEFAULT_TOL)
        assert eb_ppt_test(channel) == ("eb_confirmed", 0.0)

    def test_other_channels_keep_eigvalsh_bit_for_bit(self):
        rng = np.random.default_rng(29)
        channels = [dephasing(2), dephasing(3), eb_example_channel(), random_qccro(3, seed=1)]
        for d in range(1, 7):
            channels.append(random_channel(d, seed=d))
            ops = np.linalg.qr(rng.normal(size=(2 * d, d)) + 1j * rng.normal(size=(2 * d, d)))[0]
            channels.append(channel_from_kraus(ops.reshape(2, d, d)))
        channels.append(tensor(named_gate("H"), named_gate("CNOT")))
        channels.append(compose(named_gate("H"), named_gate("T")))
        for channel in channels:
            for tol in (DEFAULT_TOL, 1e-3):
                expected = oracles.eb_ppt_verdict(channel.choi, channel.dim, tol)
                assert tuple(eb_ppt_test(channel, tol)) == expected


class TestRandomQccro:
    def test_members(self):
        for seed in range(4):
            assert is_qccro(random_qccro(2, seed=seed)).is_member
            assert is_qccro(random_qccro(4, seed=seed)).is_member

    def test_qq_mixture_stays_member(self):
        o = random_qccro(3, seed=8, qq_weight=0.4)
        assert is_qccro(o).is_member

    def test_seed_determinism(self):
        assert choi_max_diff(random_qccro(2, seed=1), random_qccro(2, seed=1)) == 0.0

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="qq_weight"):
            random_qccro(2, seed=1, qq_weight=1.5)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 16])
    def test_choi_equals_the_two_channel_path(self, d):
        """One ``Channel`` from the dephased (and mixed) array holds, byte
        for byte, the Choi array that the path through two validated
        ``random_channel`` samples built."""
        for seed, weight in ((0, 0.0), (1, 0.3), (2, 1.0)):
            rng = np.random.default_rng(seed)
            base = dephase(random_channel(d, seed=rng).choi, [d, d], (0,))
            if weight == 0.0:
                expected = Channel(base)
            else:
                qq = dephase(random_channel(d, seed=rng).choi, [d, d], (0, 1))
                expected = Channel((1.0 - weight) * base + weight * qq)
            assert random_qccro(d, seed, weight).choi.tobytes() == expected.choi.tobytes()


class TestClosure:
    def test_tensor_of_qc_members_is_member(self):
        for seed in range(3):
            a = random_qccro(2, seed=seed)
            b = random_qccro(2, seed=seed + 100)
            assert is_qccro(tensor(a, b)).is_member

    def test_partial_trace_of_qc_member_is_member(self):
        from crolab.channels import channel_partial_trace

        for seed in range(3):
            o = random_qccro(4, seed=seed)
            assert is_qccro(channel_partial_trace(o, [2, 2], 0)).is_member
            assert is_qccro(channel_partial_trace(o, [2, 2], 1)).is_member
