"""Tests for the irreplaceability measures."""

import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crolab.measures
import crolab.sdp
import oracles
from crolab import cli
from crolab.channels import (
    _FIXED_GATES,
    MAX_DIM,
    Channel,
    choi_dephase_output,
    choi_from_output_blocks,
    choi_output_blocks,
    compose,
    dephasing,
    gate_matrix,
    identity_channel,
    named_gate,
    pauli_channel_T,
    random_channel,
    tensor,
    unitary_channel,
)
from crolab.cro import _stochastic_from_choi, random_qccro
from crolab.linalg import dephase, partial_trace
from crolab.measures import (
    RobustnessResult,
    measure_property_suite,
    relative_entropy_irreplaceability,
    robustness,
    robustness_equivalents,
)

# Pinned by the alternating-projection bisection oracle in oracles.py and
# consistent with the closed form sin(2 theta) at theta = pi/4.
PINNED_HADAMARD_ROBUSTNESS = 1.0


def binary_entropy_bits(p):
    terms = [q * np.log2(q) for q in (p, 1.0 - p) if q > 0.0]
    return -sum(terms)


def stacked_results(chois):
    """Each problem's ``robustness`` result, or the RuntimeError that
    ``robustness`` raises for it, assembled from the output blocks of one
    ``measures._solve_chois`` run on a validated Choi stack."""
    solved = crolab.measures._solve_chois(chois)
    upper, primal, dual, *_, failures = solved
    psi = chois + choi_from_output_blocks(primal)
    witness = choi_from_output_blocks(dual)
    return [
        RuntimeError(failure)
        if failure is not None
        else RobustnessResult(
            float(upper[b]), psi[b], witness[b], crolab.measures._residuals(solved, b), "optimal"
        )
        for b, failure in enumerate(failures)
    ]


def robustness_stack(channels):
    """``stacked_results`` on the Choi stack of ``channels``."""
    return stacked_results(np.stack([ch.choi for ch in channels]))


class TestRobustnessValues:
    """Solver output against analytic and oracle references."""

    def test_hadamard_matches_pinned_value(self):
        result = robustness(named_gate("H"))
        assert result.status == "optimal"
        assert result.value == pytest.approx(
            PINNED_HADAMARD_ROBUSTNESS, abs=1e-5
        )

    def test_hadamard_matches_independent_oracle(self):
        choi = oracles.choi_of_unitary(
            np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        )
        oracle_value = oracles.oracle_robustness(choi, 2)
        assert oracle_value == pytest.approx(
            PINNED_HADAMARD_ROBUSTNESS, abs=2e-3
        )
        solver_value = robustness(named_gate("H")).value
        assert solver_value == pytest.approx(oracle_value, abs=2e-3)

    def test_rotation_family_closed_form(self):
        for theta in (np.pi / 8, np.pi / 6, np.pi / 3):
            value = robustness(named_gate("U", theta)).value
            assert value == pytest.approx(np.sin(2 * theta), abs=1e-5)

    def test_replaceable_endpoints_are_zero(self):
        for name in ("Z", "X"):
            value = robustness(named_gate(name)).value
            assert value <= 1e-6

    def test_random_free_members_are_zero(self):
        for seed in range(3):
            member = random_qccro(2, seed=seed)
            assert robustness(member).value <= 1e-6

    @pytest.mark.parametrize("d", [8, MAX_DIM])
    def test_documented_ceiling(self, d):
        """U(pi/8) with idle qubits at d = 8 and at d = MAX_DIM: the
        certified interval brackets the closed form sin(pi/4)."""
        channel = tensor(named_gate("U", np.pi / 8), identity_channel(d // 2))
        assert channel.dim == d
        result = robustness(channel)
        lower = result.value - result.residuals["witness_pairing"]
        assert lower - 1e-6 <= np.sin(np.pi / 4) <= result.value + 1e-6

    def test_oracle_agrees_on_rotation(self):
        theta = np.pi / 6
        choi = oracles.choi_of_unitary(oracles.interpolation_matrix(theta))
        assert oracles.oracle_robustness(choi, 2) == pytest.approx(
            np.sin(2 * theta), abs=2e-3
        )


class TestRobustnessResultInvariants:
    """The returned optimizer and witness satisfy their defining relations."""

    def test_optimizer_structure(self):
        """optimal_psi is feasible for the plain program and has trace 1 + R."""
        for d in (2, 3):
            channel = random_channel(d, seed=42)
            result = robustness(channel)
            psi = result.optimal_psi
            assert np.real(np.trace(psi)) - 1.0 == pytest.approx(
                result.value, abs=1e-6
            )
            assert np.linalg.eigvalsh(psi)[0] >= -1e-7
            assert np.linalg.eigvalsh(psi - channel.choi)[0] >= -1e-7
            gap = dephase(psi, [d, d], (1,)) - dephase(psi, [d, d], (0, 1))
            assert np.max(np.abs(gap)) < 1e-6
            marginal = partial_trace(psi, [d, d], 0)
            target = np.trace(psi) * np.eye(d) / d
            assert np.max(np.abs(marginal - target)) < 1e-6

    def test_witness_pairing_and_positivity(self):
        for seed in (1, 7):
            channel = random_channel(2, seed=seed)
            result = robustness(channel)
            assert result.witness is not None
            assert np.linalg.eigvalsh(result.witness)[0] >= -1e-6
            assert result.residuals["witness_pairing"] < 1e-5

    def test_type_and_dimension_guards(self):
        with pytest.raises(TypeError, match="Channel"):
            robustness(np.eye(4))
        with pytest.raises(ValueError, match="dimension 33 exceeds the limit of 32"):
            robustness(identity_channel(MAX_DIM + 1))


class TestSolveCount:
    """Value, witness and optimizer come from one interior-point solve, and
    the generic solver of ``sdp`` is not called on these paths."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"blocks": 0, "solve": 0}
        real_blocks = crolab.measures._solve_blocks
        real_solve = crolab.sdp.solve

        def counting_blocks(*args, **kwargs):
            calls["blocks"] += 1
            return real_blocks(*args, **kwargs)

        def counting_solve(*args, **kwargs):
            calls["solve"] += 1
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(crolab.measures, "_solve_blocks", counting_blocks)
        monkeypatch.setattr(crolab.sdp, "solve", counting_solve)
        return calls

    def test_robustness_solves_once(self, calls):
        robustness(random_channel(2, seed=5))
        assert calls == {"blocks": 1, "solve": 0}

    @pytest.mark.parametrize("command", ["measures", "game"])
    def test_cli_command_solves_once(self, calls, tmp_path, capsys, command):
        spec = tmp_path / "h.json"
        spec.write_text(json.dumps({"kind": "gate", "name": "H"}))
        assert cli.main([command, str(spec)]) == 0
        assert json.loads(capsys.readouterr().out)["tool"] == "crolab"
        assert calls == {"blocks": 1, "solve": 0}

    def test_sweep_solves_its_grid_once(self, calls, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "u-theta", "--points", "50", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 51
        assert calls == {"blocks": 1, "solve": 0}

    @pytest.mark.parametrize("d, stacks", [(2, 2), (8, 2)])
    def test_property_suite_solves_one_stack_per_dimension(self, calls, d, stacks):
        """Base channels, mixtures and family images in one stack; the
        extension, at twice the dimension, in a second one."""
        measure_property_suite(random_channel(d, seed=1), seed=0)
        assert calls == {"blocks": stacks, "solve": 0}


def _interval(result):
    return result.value - result.residuals["witness_pairing"], result.value


def _assert_sound_witness(result, d):
    """The witness is PSD and its output blocks share one diagonal of sum d."""
    assert np.linalg.eigvalsh(result.witness)[0] >= -1e-12
    blocks = result.witness.reshape(d, d, d, d)
    diagonals = np.real([np.diag(blocks[:, k, :, k]) for k in range(d)])
    assert np.max(np.abs(diagonals - diagonals[0])) <= 1e-12
    assert diagonals[0].sum() == pytest.approx(d, abs=1e-12)


def real_channel(d, rank=None, seed=0):
    """The real part of a random Choi state: the even mixture of a random
    channel and its complex conjugate, whose output blocks are real."""
    return Channel(random_channel(d, rank=rank, seed=seed).choi.real)


def depolarized(u, weight=0.8):
    """Conjugation by ``u`` mixed with the completely depolarizing channel,
    ``weight`` on the unitary."""
    d = len(u)
    return Channel(weight * unitary_channel(u).choi + (1.0 - weight) * np.eye(d * d) / d**2)


def noisy_qutrit(seed):
    """A depolarized Haar qutrit unitary: the closed form leaves its
    interval open, so the interior point solves it."""
    return depolarized(oracles.haar_unitary(3, np.random.default_rng(seed)))


def qutrit_shift():
    """Conjugation by the cyclic shift of three levels: |U| is a permutation
    and the closed form settles it at zero."""
    return unitary_channel(np.eye(3)[[1, 2, 0]])


@pytest.fixture
def interior_point_runs(monkeypatch):
    """The block stacks that reach ``_interior_start``, in call order."""
    runs = []
    real_start = crolab.measures._interior_start

    def recording(blocks):
        runs.append(blocks)
        return real_start(blocks)

    monkeypatch.setattr(crolab.measures, "_interior_start", recording)
    return runs


def reached(runs, channel):
    """Whether the output blocks of ``channel`` were in a recorded
    ``_interior_start`` call."""
    return _reached_blocks(runs, choi_output_blocks(channel.choi, channel.dim))


def _reached_blocks(runs, blocks):
    """Whether the output blocks ``blocks`` were in a recorded run."""
    return any(np.array_equal(b, blocks) for run in runs for b in run)


def _block_program(draw, d):
    """A channel of dimension d with its closed-form robustness, or None.

    Random channels of Kraus rank 1, 2 and d^2 (no closed form); random qc
    members and phased permutations (zero); Haar unitaries
    (sigma_max(|U|)^2 - 1).  The real kind, whose output blocks are real,
    draws the real part of a random channel (no closed form) or a Haar
    orthogonal matrix (the unitary closed form)."""
    kind = draw(st.sampled_from(["random", "qccro", "permutation", "haar", "real"]))
    seed = draw(st.integers(0, 2**31 - 1))
    if kind == "random":
        rank = draw(st.sampled_from([1, 2, d * d]))
        return random_channel(d, rank=rank, seed=seed), None
    if kind == "qccro":
        return random_qccro(d, seed=seed), 0.0
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        phases = np.exp(2j * np.pi * rng.random(d))
        return unitary_channel(np.eye(d)[rng.permutation(d)] * phases), 0.0
    if kind == "real":
        if draw(st.booleans()):
            return real_channel(d, rank=draw(st.sampled_from([1, 2, d * d])), seed=seed), None
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        u = q * np.sign(np.diag(r))
        return unitary_channel(u), oracles.unitary_robustness(u)
    u = oracles.haar_unitary(d, rng)
    return unitary_channel(u), oracles.unitary_robustness(u)


@st.composite
def block_programs(draw):
    """A stack of 1 to 6 channels of one dimension d = 1 to 8, each with its
    closed-form robustness or None (see ``_block_program``)."""
    d = draw(st.integers(1, 8))
    size = draw(st.integers(1, 6))
    return [_block_program(draw, d) for _ in range(size)]


class TestInteriorPointSolver:
    """The certified interval of ``_solve_blocks`` on every kind of channel."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(block_programs())
    def test_narrow_interval_holds_closed_form(self, stack):
        results = robustness_stack([ch for ch, _ in stack])
        for (channel, closed), result in zip(stack, results):
            lower, upper = _interval(result)
            assert result.residuals["witness_pairing"] <= 1e-7
            assert 0.0 <= lower <= upper
            if closed is not None:
                assert lower - 1e-9 <= closed <= upper + 1e-9
            _assert_sound_witness(result, channel.dim)

    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(block_programs(), st.randoms(use_true_random=False))
    def test_stack_entries_equal_batch_of_one(self, stack, shuffle):
        """Each entry of a stacked solve, at any place in a stack of any
        size, is its batch-of-one solve bit for bit: both ends, the witness,
        the optimizer and the residuals."""
        channels = [channel for channel, _ in stack]
        shuffle.shuffle(channels)
        for channel, result in zip(channels, robustness_stack(channels)):
            single = robustness(channel)
            assert result.value == single.value
            assert result.residuals == single.residuals
            assert np.array_equal(result.witness, single.witness)
            assert np.array_equal(result.optimal_psi, single.optimal_psi)

    @pytest.mark.parametrize("d", [2, 4])
    def test_record_in_every_rotation(self, monkeypatch, d):
        """In every rotation of a stack that stops at each kind of point (a
        unitary, a qc member, a near-qc mixture, random channels of rank 2
        and of full rank, whose closed forms are rejected so that they take
        steps also at d = 2), each entry's upper end, optimizer, witness and
        residuals are its batch-of-one solve's and those of the loop run one
        problem at a time (``oracles.certified_loop_by_problem``), bit for
        bit: the record keeps every problem's ends at its own place."""
        rng = np.random.default_rng(d)
        # A qc member with a positive diagonal: at d = 4 the singular-vector
        # point leaves it open, with other residuals than the diagonal point
        # that settles it.
        qc = 0.5 * random_qccro(d, seed=1).choi + 0.5 * np.eye(d * d) / (d * d)
        chois = np.stack([
            unitary_channel(oracles.haar_unitary(d, rng)).choi,
            qc,
            0.999 * qc + 0.001 * random_channel(d, seed=d).choi,
            random_channel(d, rank=2, seed=d + 1).choi,
            random_channel(d, rank=d * d, seed=d + 2).choi,
        ])
        targets = choi_output_blocks(chois[3:], d)
        _reject_closed_form(monkeypatch, lambda b: any(np.array_equal(b, t) for t in targets))
        expected = oracles.certified_loop_by_problem(chois)

        def assert_solved(order):
            """Each entry of the solve of chois[order] is the oracle's."""
            solved = crolab.measures._solve_chois(chois[order])
            residuals = [crolab.measures._residuals(solved, b) for b in range(len(order))]
            for got, want in zip((*solved[:3], residuals), expected):
                for position, b in enumerate(order):
                    if isinstance(got, np.ndarray):
                        assert np.array_equal(got[position], want[b]), (order, b)
                    else:
                        assert got[position] == want[b], (order, b)

        for b in range(len(chois)):
            assert_solved([b])
        for shift in range(len(chois)):
            assert_solved(np.roll(np.arange(len(chois)), shift))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_step_closes_dual_residual(self, d):
        """From the primal start and duals W whose diagonals miss the
        shared-diagonal constraint, one step on a stack of two problems
        keeps each problem's row sums of p equal and shrinks its dual
        residual, the ``dual_feas`` of ``_solve_blocks``, by the factor
        1 - alpha: a full step meets the constraint."""
        blocks = np.stack(
            [choi_output_blocks(random_channel(d, rank=2, seed=seed).choi, d) for seed in (3, 4)]
        )
        diagonal = np.arange(d)
        top = np.linalg.eigvalsh(blocks)[..., -1].max(axis=-1) + 1.0
        p = np.broadcast_to(top[:, None, None], (2, d, d))
        s = -blocks
        s[..., diagonal, diagonal] += p
        w = np.broadcast_to(np.eye(d, dtype=complex), blocks.shape).copy()
        w[..., diagonal, diagonal] += 0.1 * np.random.default_rng(d).random((2, d, d))

        def residual(w):
            entries = np.real(w[:, diagonal, diagonal])
            y = entries.mean(axis=0)
            return max(np.abs(entries - y).max(), abs(y.sum() - d))

        dp, dw = crolab.measures._hkm_step(s, w)
        for b in range(2):
            assert np.ptp((p[b] + dp[b]).sum(axis=0)) <= 1e-12
            assert residual(w[b] + dw[b]) <= 0.5 * residual(w[b])

    def test_one_dimension_is_exactly_zero(self):
        """At d = 1 the row sums are trivially equal and the start
        already pins the program: value 0, width 0."""
        result = robustness(identity_channel(1))
        assert result.value == 0.0
        assert result.residuals["witness_pairing"] == 0.0

    def test_random_d8_inside_admm_interval(self):
        """random_channel(8, seed=0), which took the ADMM seconds: a narrow
        interval overlapping the ADMM's [0.46993861474387,
        0.4699388148766206] (pinned with ``oracles.admm_block_robustness``)."""
        channel = random_channel(8, seed=0)
        result = robustness(channel)
        lower, upper = _interval(result)
        assert upper - lower <= 1e-7
        assert lower <= 0.4699388148766206 and 0.46993861474387 <= upper
        _assert_sound_witness(result, 8)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_open_problems_equal_the_replaced_run(self, monkeypatch, d, interior_point_runs):
        """Every problem of a mixed stack that reaches ``_interior_start``
        gets the upper end, interval width and witness of the replaced
        interior-point run (``oracles.interior_point_intervals``) on the
        whole stack, bit for bit.  The candidates of every other problem
        are rejected, so that problems of every kind reach it.  At d = 1
        every point settles every problem, and every problem is compared."""
        rng = np.random.default_rng(d)
        channels = [
            *(random_channel(d, rank=rank, seed=d) for rank in (1, 2, d * d)),
            *(real_channel(d, rank=rank, seed=d) for rank in (1, 2, d * d)),
            random_qccro(d, seed=d),
            unitary_channel(oracles.haar_unitary(d, rng)),
            unitary_channel(np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))),
            unitary_channel(np.diag(np.exp(2j * np.pi * rng.random(d)))),
            depolarized(oracles.haar_unitary(d, rng)),
        ]
        chois = np.stack([channel.choi for channel in channels])
        targets = choi_output_blocks(chois[::2], d)
        _reject_closed_form(monkeypatch, lambda b: any(np.array_equal(b, t) for t in targets))
        results = stacked_results(chois)
        lower, upper, witness = oracles.interior_point_intervals(chois)
        open_problems = [b for b, c in enumerate(channels) if reached(interior_point_runs, c)]
        rejected = set(range(0, len(channels), 2))
        assert (open_problems == []) if d == 1 else rejected <= set(open_problems)
        for b in open_problems or range(len(channels)):
            assert results[b].value == upper[b]
            assert results[b].residuals["witness_pairing"] == max(upper[b] - lower[b], 0.0)
            assert np.array_equal(results[b].witness, witness[b])

    @pytest.mark.parametrize("d", range(1, 9))
    def test_step_equals_the_null_space_step(self, d):
        """From the same (S, W), the step of the d + 1 multipliers equals
        the replaced null-space step (``oracles.null_space_hkm_step``) to
        1e-9 relative, on every problem of a mixed stack: the interior
        start and the next two iterates of the solver.  Later iterates grow
        ill-conditioned as mu falls and the two routes' rounding differs
        more, so full solves are compared by their intervals instead."""
        rng = np.random.default_rng(d)
        channels = [
            *(random_channel(d, rank=rank, seed=d) for rank in (1, 2, d * d)),
            *(real_channel(d, rank=rank, seed=d) for rank in (1, 2, d * d)),
            random_qccro(d, seed=d),
            unitary_channel(oracles.haar_unitary(d, rng)),
            unitary_channel(np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))),
            unitary_channel(np.diag(np.exp(2j * np.pi * rng.random(d)))),
            depolarized(oracles.haar_unitary(d, rng)),
        ]
        blocks = choi_output_blocks(np.stack([channel.choi for channel in channels]), d)
        p, w = crolab.measures._interior_start(blocks)
        for _ in range(3):
            s = -blocks
            s[..., range(d), range(d)] += p
            dp, dw = crolab.measures._hkm_step(s, w)
            ref_p, ref_w = oracles.null_space_hkm_step(s, w)
            for b in range(len(channels)):
                size = np.linalg.norm(ref_p[b]) + np.linalg.norm(ref_w[b])
                miss = np.linalg.norm(dp[b] - ref_p[b]) + np.linalg.norm(dw[b] - ref_w[b])
                assert miss <= 1e-9 * size
            p, w = p + dp, w + dw

    def test_d16_intervals_overlap_the_null_space_run(self, monkeypatch):
        """Random channels at d = 16 (Kraus rank 2 and d^2, and a real
        one): the solve with the step of the d + 1 multipliers and the one
        with the null-space step give narrow, overlapping intervals, and the
        first takes no more steps."""
        chois = np.stack([
            random_channel(16, rank=2, seed=0).choi,
            random_channel(16, seed=0).choi,
            real_channel(16, rank=2, seed=1).choi,
        ])
        runs = []
        for step in (crolab.measures._hkm_step, oracles.null_space_hkm_step):
            sizes = []

            def counting(s, w, step=step, sizes=sizes):
                sizes.append(len(s))
                return step(s, w)

            monkeypatch.setattr(crolab.measures, "_hkm_step", counting)
            runs.append((stacked_results(chois), sum(sizes)))
        (results, taken), (references, reference_taken) = runs
        assert taken <= reference_taken
        for result, reference in zip(results, references):
            (low, high), (ref_low, ref_high) = _interval(result), _interval(reference)
            assert high - low <= 1e-7 and ref_high - ref_low <= 1e-7
            assert max(low, ref_low) <= min(high, ref_high)

    def test_step_cap_failure(self, monkeypatch, tmp_path, capsys, interior_point_runs):
        """One step leaves the interval of a depolarized qutrit unitary wide:
        RuntimeError, and ``measures`` exits 4 with a solver diagnostic."""
        monkeypatch.setattr(crolab.measures, "_MAX_STEPS", 1)
        channel = noisy_qutrit(0)
        with pytest.raises(RuntimeError, match="certified interval"):
            robustness(channel)
        assert reached(interior_point_runs, channel)
        pairs = np.stack([channel.choi.real, channel.choi.imag], axis=-1)
        spec = tmp_path / "noisy.json"
        spec.write_text(json.dumps({"kind": "choi", "dim": 3, "matrix": pairs.tolist()}))
        assert cli.main(["measures", str(spec)]) == 4
        assert len(interior_point_runs) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "solver"


class TestRealArithmetic:
    """Problems whose output blocks are real are solved as complex ones."""

    def test_mixed_stack_runs_as_one_complex_stack(self, interior_point_runs):
        """Three real random qutrit channels and two complex ones, all left
        open by the closed form, share one complex128 run; the qutrit
        shift, settled by the closed form, is in none."""
        channels = [
            random_channel(3, seed=1),
            real_channel(3, seed=1),
            qutrit_shift(),
            random_channel(3, seed=2),
            real_channel(3, seed=2),
            real_channel(3, seed=3),
        ]
        robustness_stack(channels)
        assert [(run.dtype, len(run)) for run in interior_point_runs] == [(complex, 5)]
        assert not reached(interior_point_runs, channels[2])


def _targeted(blocks, targets):
    """Whether a problem, given by its output blocks or by -S, is one of
    ``targets`` (output-block stacks): the off-diagonals tell."""
    off = ~np.eye(len(blocks), dtype=bool)
    return any(np.array_equal(blocks[:, off], t[:, off]) for t in targets)


def _fail_on(monkeypatch, targets):
    """Make ``_hkm_step`` raise LinAlgError on any stack that holds one of
    the problems whose output blocks are in ``targets``, the way a failed
    factorization does: the error names no problem."""
    real_step = crolab.measures._hkm_step

    def failing(s, w):
        if any(_targeted(-row, targets) for row in s):
            raise np.linalg.LinAlgError("injected failure")
        return real_step(s, w)

    monkeypatch.setattr(crolab.measures, "_hkm_step", failing)


def _reject_closed_form(monkeypatch, rejected):
    """Make both candidate points, the singular-vector and the diagonal
    one, leave open the problems whose output blocks ``rejected`` holds
    true of, so that they reach the interior point: those problems get p =
    0 and W_k = I instead, whose repaired ends are the interior start's up
    to rounding."""
    for name in ("_singular_vector_point", "_diagonal_point"):

        def rejecting(blocks, real_point=getattr(crolab.measures, name)):
            p, w = real_point(blocks)
            mask = np.array([rejected(b) for b in blocks], dtype=bool)
            eye = np.eye(blocks.shape[1], dtype=w.dtype)
            p = np.where(mask[:, None, None], 0.0, p)
            return p, np.where(mask[:, None, None, None], eye, w)

        monkeypatch.setattr(crolab.measures, name, rejecting)


class TestFailureIsolation:
    """A problem that fails in a stack fails alone."""

    def test_failed_factorization_stops_only_its_problem(self, monkeypatch, interior_point_runs):
        """A failing depolarized qutrit unitary beside a random channel and
        a qc member, both solved by the interior point (the qc member's
        closed form is rejected), and the qutrit shift, settled by the
        closed form."""
        channels = [
            random_channel(3, seed=1),
            noisy_qutrit(0),
            qutrit_shift(),
            random_qccro(3, seed=0),
        ]
        qc_blocks = choi_output_blocks(channels[3].choi, 3)
        # Every qc member's off-diagonals are zero: compare whole blocks.
        _reject_closed_form(monkeypatch, lambda blocks: np.array_equal(blocks, qc_blocks))
        singles = [robustness(channel) for channel in channels]
        _fail_on(monkeypatch, [choi_output_blocks(channels[1].choi, 3)])
        results = robustness_stack(channels)
        assert reached(interior_point_runs, channels[1])
        assert reached(interior_point_runs, channels[3])
        assert not reached(interior_point_runs, channels[2])
        assert isinstance(results[1], RuntimeError)
        assert "certified interval" in str(results[1])
        for k in (0, 2, 3):
            assert results[k].value == singles[k].value
            assert results[k].residuals == singles[k].residuals
            assert np.array_equal(results[k].witness, singles[k].witness)
        with pytest.raises(RuntimeError, match="certified interval"):
            robustness(channels[1])

    @pytest.mark.parametrize("failing_dtype", ["float64", "complex128"])
    def test_failure_stays_with_its_problem_across_dtypes(
        self, monkeypatch, interior_point_runs, failing_dtype
    ):
        """A failing real problem among complex ones, and a failing complex
        problem among real ones, all qutrit channels the closed form leaves
        open and solved in one complex128 run: only it fails, and the others
        keep their batch-of-one results. ``failing_dtype`` is float64 when
        the failing channel's Choi entries are all real."""
        complex_channels = [random_channel(3, seed=seed) for seed in (1, 2, 3)]
        real_channels = [real_channel(3, seed=seed) for seed in (1, 2, 3)]
        if failing_dtype == "float64":
            channels = [complex_channels[0], real_channels[0], *complex_channels[1:]]
        else:
            channels = [real_channels[0], complex_channels[0], *real_channels[1:]]
        assert np.any(channels[1].choi.imag) == (failing_dtype == "complex128")
        singles = [robustness(channel) for channel in channels]
        _fail_on(monkeypatch, [choi_output_blocks(channels[1].choi, 3)])
        results = robustness_stack(channels)
        assert reached(interior_point_runs, channels[1])
        assert isinstance(results[1], RuntimeError)
        for k in (0, 2, 3):
            assert results[k].value == singles[k].value
            assert results[k].residuals == singles[k].residuals
            assert np.array_equal(results[k].witness, singles[k].witness)

    def test_step_cap_fails_each_wide_problem(self, monkeypatch, interior_point_runs):
        """After four steps the intervals of the identity, the qutrit shift
        (both settled by the closed form) and a qc member (by the interior
        point, its closed form rejected) have closed, and those of a
        depolarized unitary and a rank-2 random channel have not: only
        those two fail, and the others keep their batch-of-one intervals."""
        monkeypatch.setattr(crolab.measures, "_MAX_STEPS", 4)
        channels = [
            qutrit_shift(),
            noisy_qutrit(0),
            identity_channel(3),
            random_channel(3, rank=2, seed=7),
            random_qccro(3, seed=0),
        ]
        qc_blocks = choi_output_blocks(channels[4].choi, 3)
        # Every qc member's off-diagonals are zero: compare whole blocks.
        _reject_closed_form(monkeypatch, lambda blocks: np.array_equal(blocks, qc_blocks))
        results = robustness_stack(channels)
        assert all(reached(interior_point_runs, channels[k]) for k in (1, 3, 4))
        failed = [isinstance(r, RuntimeError) for r in results]
        assert failed == [False, True, False, True, False]
        for channel, result in zip(channels, results):
            if not isinstance(result, RuntimeError):
                assert _interval(result) == _interval(robustness(channel))

    def test_sweep_notes_only_the_failing_rows(self, monkeypatch, tmp_path, interior_point_runs):
        out = tmp_path / "plain.csv"
        assert cli.main(["sweep", "u-theta", "--points", "11", "--out", str(out)]) == 0
        plain = out.read_text().splitlines()
        assert interior_point_runs == []
        # U(theta) and U(pi/2 - theta) have the same off-diagonal blocks, so
        # the rejection and the failure injected at grid point 3 also hit
        # point 7.
        theta = np.linspace(0.0, np.pi / 2, 11)[3]
        targets = [choi_output_blocks(named_gate("U", theta).choi, 2)]
        _reject_closed_form(monkeypatch, lambda blocks: _targeted(blocks, targets))
        _fail_on(monkeypatch, targets)
        failing = (3, 7)
        assert cli.main(["sweep", "u-theta", "--points", "11", "--out", str(out)]) == 0
        assert [len(run) for run in interior_point_runs] == [len(failing)]
        lines = out.read_text().splitlines()
        assert len(lines) == len(plain) == 12
        for k, (line, reference) in enumerate(zip(lines[1:], plain[1:])):
            if k in failing:
                theta = reference.split(",")[0]
                assert line.startswith(
                    f"{theta},nan,nan,robustness solve stopped with a certified interval"
                )
            else:
                assert line == reference and line.endswith(",")


def _recorded(monkeypatch, name):
    """Record the first argument of every call of ``measures.<name>``."""
    calls = []
    real = getattr(crolab.measures, name)

    def recording(first, *rest):
        calls.append(first.copy())
        return real(first, *rest)

    monkeypatch.setattr(crolab.measures, name, recording)
    return calls


def _near_qc(d, eps, seed):
    """A qc member mixed with weight ``eps`` of a random channel."""
    qc, noise = random_qccro(d, seed=seed).choi, random_channel(d, rank=2, seed=seed + 10).choi
    return Channel((1.0 - eps) * qc + eps * noise)


class TestCertificationScreen:
    """``_solve_blocks`` certifies a step's iterate only where ``_screen``
    says its raw gap could close the interval, against the run that
    certifies every iterate (``oracles.interior_point_intervals`` with
    ``screen=False``)."""

    @staticmethod
    def _against_every_step(monkeypatch, channels):
        """The live results of ``channels`` with every closed form rejected,
        so that all reach the interior point, the every-step run's (lower,
        upper, witness), and each problem's step counts in the two runs."""
        _reject_closed_form(monkeypatch, lambda blocks: True)
        steps = _recorded(monkeypatch, "_hkm_steps")
        results = robustness_stack(channels)
        live = steps[:]
        steps.clear()
        reference = oracles.interior_point_intervals(
            np.stack([c.choi for c in channels]), screen=False
        )

        def taken(run, blocks):
            # S has the off-diagonals of -B.
            return sum(_targeted(-row, [blocks]) for s in run for row in s)

        counts = [
            (taken(live, blocks), taken(steps, blocks))
            for blocks in (choi_output_blocks(c.choi, c.dim) for c in channels)
        ]
        return results, reference, counts

    @pytest.mark.parametrize("d", range(2, 9))
    def test_screened_run_equals_every_step_run(self, monkeypatch, d):
        """Random channels of Kraus rank 1, 2 and d^2, their real parts and
        near-qc mixtures, forced to the interior point (at d = 2 the closed
        forms settle them all): each gets the upper end, width and witness
        of the every-step run, bit for bit, after as many steps."""
        channels = [
            *(random_channel(d, rank=rank, seed=d) for rank in (1, 2, d * d)),
            *(real_channel(d, rank=rank, seed=d) for rank in (2, d * d)),
            *(_near_qc(d, eps, seed) for eps in (1e-9, 1e-6) for seed in (0, 1)),
        ]
        results, (lower, upper, witness), counts = self._against_every_step(monkeypatch, channels)
        for b, (result, (live, every)) in enumerate(zip(results, counts)):
            assert result.value == upper[b]
            assert result.residuals["witness_pairing"] == max(upper[b] - lower[b], 0.0)
            assert np.array_equal(result.witness, witness[b])
            assert live == every > 0

    @pytest.mark.parametrize("d", range(2, 9))
    def test_forced_open_zero_problems_stay_within_target(self, monkeypatch, d):
        """A qc member, a phased permutation and a phase gate, R = 0, forced
        to the interior point: there S_k is nearly a multiple of I on the
        range of W_k, the certified width falls far below the raw gap, and
        the screen may stop a problem later than the every-step run.  Each
        interval is within the target, overlaps the every-step one, and
        takes at most one step more."""
        rng = np.random.default_rng(d)
        channels = [
            random_qccro(d, seed=d),
            unitary_channel(np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))),
            unitary_channel(np.diag(np.exp(2j * np.pi * rng.random(d)))),
        ]
        results, (lower, upper, _), counts = self._against_every_step(monkeypatch, channels)
        for b, (result, (live, every)) in enumerate(zip(results, counts)):
            low, high = _interval(result)
            assert high - low <= crolab.measures._TARGET_WIDTH * (1.0 + high)
            assert max(low, lower[b]) <= min(high, upper[b])
            assert live <= every + 1

    def test_each_problem_screens_its_own_upper(self, monkeypatch, interior_point_runs):
        """A stack whose first problem, the qutrit shift, settles at a fixed
        point and whose other three reach the interior point: every upper
        end that ``_screen`` receives for a problem is the one its
        batch-of-one solve screens at the same step, bit for bit."""
        channels = [qutrit_shift(), random_channel(3, seed=1), random_channel(3, rank=2, seed=7), real_channel(3, seed=2)]
        blocks = [choi_output_blocks(c.choi, 3) for c in channels]
        calls = []
        real_screen = crolab.measures._screen

        def recording(s, w, upper):
            calls.append((s.copy(), upper.copy()))
            return real_screen(s, w, upper)

        monkeypatch.setattr(crolab.measures, "_screen", recording)

        def by_problem():
            # A row of S belongs to the problem whose off-diagonals it has.
            seen = [[] for _ in channels]
            for s, upper in calls:
                for row, end in zip(s, upper):
                    (b,) = [b for b, target in enumerate(blocks) if _targeted(-row, [target])]
                    seen[b].append(end)
            calls.clear()
            return seen

        robustness_stack(channels)
        stacked = by_problem()
        assert not reached(interior_point_runs, channels[0]) and stacked[0] == []
        for b in range(1, len(channels)):
            robustness_stack([channels[b]])
            alone = by_problem()[b]
            assert len(alone) > 0
            assert np.array(stacked[b]).tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("rank", [2, 16])
    def test_few_steps_are_certified(self, monkeypatch, rank):
        """A d = 4 random channel takes nine steps, of which at most three
        are certified: ``_certify`` sees the three fixed points and at most
        three iterates."""
        channel = random_channel(4, rank=rank, seed=0)
        steps = _recorded(monkeypatch, "_hkm_steps")
        certified = _recorded(monkeypatch, "_certify")
        robustness(channel)
        assert len(steps) >= 8
        assert 3 < len(certified) <= 6

    @pytest.mark.parametrize("stop", ["cap", "failure"])
    def test_stopping_step_is_certified(self, monkeypatch, stop):
        """A run capped at one step, and one whose first step fails to
        factorize, stop after that step and certify the iterate they stop
        at: the wide interval they report is the every-step run's."""
        channel = random_channel(4, rank=2, seed=0)
        if stop == "cap":
            monkeypatch.setattr(crolab.measures, "_MAX_STEPS", 1)
        else:
            _fail_on(monkeypatch, [choi_output_blocks(channel.choi, 4)])
        steps = _recorded(monkeypatch, "_hkm_steps")
        certified = _recorded(monkeypatch, "_certify")
        upper, _, _, width, _, failures = crolab.measures._solve_chois(channel.choi[None])
        assert len(steps) == 1 and len(certified) == 4
        assert failures[0] is not None
        lower, reference, _ = oracles.interior_point_intervals(channel.choi[None], screen=False)
        assert upper[0] == reference[0]
        assert width[0] == max(reference[0] - lower[0], 0.0)


class TestAdmmOracle:
    """The interior-point interval against the replaced ADMM path."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_intervals_overlap(self, d):
        for rank in (1, 2, d * d):
            for seed in range(3):
                for channel in (random_channel(d, rank=rank, seed=seed), real_channel(d, rank, seed)):
                    lower, upper = _interval(robustness(channel))
                    admm_lower, admm_upper = oracles.admm_block_robustness(channel)
                    assert max(lower, admm_lower) <= min(upper, admm_upper) + 1e-12


@st.composite
def random_channels(draw):
    d = draw(st.sampled_from([2, 3]))
    rank = draw(st.integers(1, d * d))
    seed = draw(st.integers(0, 2**31 - 1))
    return random_channel(d, rank=rank, seed=seed)


class TestWitnessPathAgainstValuePath:
    """The certified output-block solve against the plain structured
    program of ``robustness_equivalents`` on random channels."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=8)
    @given(random_channels())
    def test_same_value_and_sound_witness(self, channel):
        result = robustness(channel)
        plain = robustness_equivalents(channel)[0]
        width = result.residuals["witness_pairing"]
        lower = result.value - width
        assert 0.0 <= lower <= result.value
        assert lower - 1e-5 <= plain <= result.value + 1e-5
        assert width <= 1e-6
        _assert_sound_witness(result, channel.dim)
        pairing = np.real(np.trace(result.witness @ channel.choi))
        assert pairing - 1.0 == pytest.approx(lower, abs=1e-12)


@st.composite
def unitaries(draw):
    """Haar unitaries at d = 2, 3, 4, 8, tensor products of two Haar
    unitaries, and phased permutations (robustness zero)."""
    kind = draw(st.sampled_from(["haar", "tensor", "permutation"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if kind == "haar":
        return oracles.haar_unitary(draw(st.sampled_from([2, 3, 4, 8])), rng)
    if kind == "tensor":
        a, b = draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4)]))
        u, v = oracles.haar_unitary(a, rng), oracles.haar_unitary(b, rng)
        return np.kron(u, v)
    d = draw(st.sampled_from([2, 3, 4, 8]))
    phases = np.exp(2j * np.pi * rng.random(d))
    return np.eye(d)[rng.permutation(d)] * phases


class TestUnitaryClosedForm:
    """The closed form sigma_max(|U|)^2 - 1 lies in the certified interval."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=12)
    @given(unitaries())
    def test_closed_form_inside_interval(self, u):
        result = robustness(unitary_channel(u))
        lower = result.value - result.residuals["witness_pairing"]
        closed = oracles.unitary_robustness(u)
        assert lower - 1e-9 <= closed <= result.value + 1e-9


def _reducible_unitaries():
    """Unitaries whose |U| is reducible, each with whether the
    singular-vector candidate settles it by itself: X, Z, S, T, CNOT, CCX
    and random permutations are; random diagonal phase gates need not be,
    and they are qc members."""
    rng = np.random.default_rng(11)
    gates = [gate_matrix(name) for name in ("X", "Z", "S", "T", "CNOT", "CCX")]
    permutations = [np.eye(d)[rng.permutation(d)] for d in (3, 4, 5, 8)]
    phases = [np.diag(np.exp(2j * np.pi * rng.random(d))) for d in (2, 4, 8)]
    return [(u, True) for u in gates + permutations] + [(u, False) for u in phases]


class TestClosedFormRoute:
    """The candidate points that settle problems before the interior point,
    against the interior point alone (``oracles.interior_point_intervals``),
    the route they replaced."""

    @staticmethod
    def _settle(chois, runs):
        """Which problems of a Choi stack settle before the interior point,
        read from ``runs`` (the ``interior_point_runs`` fixture, cleared
        first): those whose blocks never reach ``_interior_start``.  Also
        the stack's results.  Every settled interval is at most the target
        width and every interval overlaps the interior point's."""
        d = math.isqrt(chois.shape[-1])
        runs.clear()
        results = stacked_results(chois)
        accepted = np.array([not _reached_blocks(runs, b) for b in choi_output_blocks(chois, d)])
        for result, settled in zip(results, accepted):
            width = result.residuals["witness_pairing"]
            assert not settled or width <= crolab.measures._TARGET_WIDTH * (1.0 + result.value)
        for result, lower, upper in zip(results, *oracles.interior_point_intervals(chois)[:2]):
            low, high = _interval(result)
            assert max(low, lower) <= min(high, upper) + 1e-12
        return accepted, results

    @pytest.mark.parametrize("d", range(1, 9))
    def test_haar_unitaries(self, d, interior_point_runs):
        """Settled, within 1e-12 of sigma_max(|U|)^2 - 1."""
        rng = np.random.default_rng(d)
        us = [oracles.haar_unitary(d, rng) for _ in range(4)]
        accepted, results = self._settle(
            np.stack([unitary_channel(u).choi for u in us]), interior_point_runs
        )
        assert accepted.all()
        for u, result in zip(us, results):
            assert abs(result.value - oracles.unitary_robustness(u)) <= 1e-12

    @pytest.mark.parametrize("d", range(2, 9))
    def test_dephased_unitaries(self, d, interior_point_runs):
        """A unitary followed by output dephasing has the unitary's output
        blocks, so it is settled with the unitary's interval and witness,
        bit for bit."""
        rng = np.random.default_rng(100 + d)
        unitaries = [unitary_channel(oracles.haar_unitary(d, rng)) for _ in range(3)]
        dephased = np.stack([choi_dephase_output(u.choi, d) for u in unitaries])
        accepted, results = self._settle(dephased, interior_point_runs)
        assert accepted.all()
        for unitary, result in zip(unitaries, results):
            single = robustness(unitary)
            assert result.value == single.value
            assert result.residuals == single.residuals
            assert np.array_equal(result.witness, single.witness)

    @pytest.mark.parametrize("u, settled", _reducible_unitaries())
    def test_reducible_unitaries(self, u, settled, interior_point_runs):
        """Each is settled within 1e-12 of sigma_max(|U|)^2 - 1.  A random
        phase gate's Choi diagonal can miss 1/d by a rounding error, so the
        singular values of M differ and its top vector can be a basis
        vector; but its output blocks are exactly diagonal, so it is a qc
        member, and the diagonal point settles what the singular vector
        leaves open."""
        accepted, results = self._settle(unitary_channel(u).choi[None], interior_point_runs)
        assert accepted.all()
        assert abs(results[0].value - oracles.unitary_robustness(u)) <= 1e-12
        if not settled:
            blocks = choi_output_blocks(unitary_channel(u).choi, len(u))
            assert not np.any(np.where(np.eye(len(u), dtype=bool), 0.0, blocks))

    @pytest.mark.parametrize("d", [3, 4, 8])
    def test_qc_members_are_exactly_zero(self, d, interior_point_runs):
        """Twenty random qc members per dimension, whose output blocks are
        exactly diagonal: the diagonal point p = diag(B), W_k = I settles
        each at value 0.0 with interval [0, 0] and an identity witness, and
        none reaches the interior point."""
        channels = [random_qccro(d, seed=seed) for seed in range(20)]
        chois = np.stack([channel.choi for channel in channels])
        assert not np.any(np.where(np.eye(d, dtype=bool), 0.0, choi_output_blocks(chois, d)))
        accepted, _ = self._settle(chois, interior_point_runs)
        assert accepted.all()
        interior_point_runs.clear()
        results = robustness_stack(channels)
        assert interior_point_runs == []
        for result in results:
            assert result.value == 0.0
            assert _interval(result) == (0.0, 0.0)
            assert np.array_equal(result.witness, np.eye(d * d))

    @pytest.mark.parametrize("name", sorted(_FIXED_GATES))
    def test_fixed_gates_need_no_steps(self, name, interior_point_runs):
        """Every fixed gate of the CLI settles at a closed-form point,
        within 1e-12 of sigma_max(|U|)^2 - 1, without reaching the
        interior start."""
        u = gate_matrix(name)
        result = robustness(unitary_channel(u))
        assert interior_point_runs == []
        assert abs(result.value - oracles.unitary_robustness(u)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_random_channels(self, d, interior_point_runs):
        """Random channels of Kraus rank 1, 2 and d^2, settled or not: every
        interval overlaps the interior point's."""
        chois = np.stack(
            [random_channel(d, rank=r, seed=s).choi for r in (1, 2, d * d) for s in range(3)]
        )
        self._settle(chois, interior_point_runs)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_near_qc_members_settle(self, d, interior_point_runs):
        """Random qc members mixed with weight eps = 1e-14 to 1e-10 of a
        random channel: their off-diagonals are about eps, not zero, and
        each settles, at the diagonal point or before, without reaching the
        interior point."""
        chois = np.stack([
            Channel((1.0 - eps) * random_qccro(d, seed=seed).choi
                    + eps * random_channel(d, seed=seed).choi).choi
            for eps in (1e-14, 1e-13, 1e-12, 1e-11, 1e-10)
            for seed in range(3)
        ])
        off_diagonals = np.where(np.eye(d, dtype=bool), 0.0, choi_output_blocks(chois, d))
        assert np.all(np.any(off_diagonals.reshape(len(chois), -1), axis=1))
        accepted, _ = self._settle(chois, interior_point_runs)
        assert accepted.all()

    def test_mixed_stack_is_stack_independent(self, interior_point_runs):
        """A d = 4 stack in which the candidate points settle some problems
        and leave the others to the interior point: every entry is its
        batch-of-one result, bit for bit, in the stack and reversed."""
        rng = np.random.default_rng(4)
        channels = [
            unitary_channel(oracles.haar_unitary(4, rng)),
            random_channel(4, seed=1),
            named_gate("CNOT"),
            depolarized(oracles.haar_unitary(4, rng)),
            real_channel(4, seed=2),
            random_channel(4, rank=1, seed=3),
        ]
        accepted, _ = self._settle(
            np.stack([channel.choi for channel in channels]), interior_point_runs
        )
        assert accepted.any() and not accepted.all()
        interior_point_runs.clear()
        robustness_stack(channels)
        assert [reached(interior_point_runs, c) for c in channels] == list(~accepted)
        for order in (channels, channels[::-1]):
            for channel, result in zip(order, robustness_stack(order)):
                single = robustness(channel)
                assert result.value == single.value
                assert result.residuals == single.residuals
                assert np.array_equal(result.witness, single.witness)
                assert np.array_equal(result.optimal_psi, single.optimal_psi)


class TestEquivalentFormulations:
    """Three distinct programs compute the same number."""

    def test_hadamard_agreement(self):
        values = robustness_equivalents(named_gate("H"))
        assert len(values) == 3
        assert max(values) - min(values) < 1e-5
        assert values[0] == pytest.approx(
            PINNED_HADAMARD_ROBUSTNESS, abs=1e-5
        )

    def test_replaceable_channel_all_zero(self):
        values = robustness_equivalents(named_gate("Z"))
        assert max(values) <= 1e-6
        assert min(values) >= -1e-9

    def test_random_channels_pairwise_spread(self):
        for seed in range(5):
            values = robustness_equivalents(random_channel(2, seed=seed))
            assert max(values) - min(values) < 1e-5

    def test_one_dimensional_channel_is_zero(self):
        """At d = 1 every row of the three programs is zero and the optimum
        is X = 0: the values come out within 1e-9 of zero."""
        values = robustness_equivalents(identity_channel(1))
        assert max(abs(value) for value in values) <= 1e-9

    def test_agree_with_robustness_at_d4(self):
        channel = random_channel(4, seed=0)
        value = robustness(channel).value
        for equivalent in robustness_equivalents(channel):
            assert abs(equivalent - value) <= 1e-6

    def test_agree_with_robustness_at_d6(self):
        channel = random_channel(6, seed=0)
        value = robustness(channel).value
        for equivalent in robustness_equivalents(channel):
            assert abs(equivalent - value) <= 1e-6

    def test_dephasing_the_channel_preserves_value(self):
        for seed in (3, 11):
            channel = random_channel(2, seed=seed)
            plain = robustness(channel).value
            dephased = robustness(compose(dephasing(2), channel)).value
            assert plain == pytest.approx(dephased, abs=1e-5)

    def test_refused_above_the_block_side_limit(self, monkeypatch):
        """At d = 9 the plain program's block would have side 81, above
        ``sdp.MAX_BLOCK_SIDE`` = 64: refused before any program is built."""
        built = []
        real_program = crolab.measures._structured_program

        def counting(*args):
            built.append(args[1])
            return real_program(*args)

        monkeypatch.setattr(crolab.measures, "_structured_program", counting)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="block side 81 exceeds the sdp limit of 64"):
            robustness_equivalents(identity_channel(9))
        assert time.perf_counter() - start < 1.0
        assert built == []


class TestTensorMultiplicativity:
    """1 + R is multiplicative under the tensor product: the Kronecker
    products of the factors' certified points are certified points of the
    product (the output blocks of N1 (x) N2 are B1_k1 (x) B2_k2).  An
    exact relation, so it checks solves above d = 8, where no independent
    program runs."""

    @pytest.mark.parametrize("d1, d2", [(4, 4), (2, 8), (4, 8)])
    def test_product_interval_meets_the_factors(self, d1, d2):
        """The product of the factors' intervals [(1 + L1)(1 + L2), (1 +
        U1)(1 + U2)] meets [1 + L12, 1 + U12] of the d1 d2 solve.  These
        pairs overlap outright; the room of 1e-9 relative, the solver's
        target width, absorbs the rounding of the products."""
        first, second = random_channel(d1, seed=d1), random_channel(d2, seed=d2 + 1)
        ends = [_interval(robustness(c)) for c in (first, second, tensor(first, second))]
        (l1, u1), (l2, u2), (l12, u12) = ((1.0 + low, 1.0 + high) for low, high in ends)
        room = 1e-9 * u12
        assert max(l1 * l2, l12) <= min(u1 * u2, u12) + room


class TestRelativeEntropy:
    """Closed-form entropy gap measure."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stacked_gaps_equal_the_per_channel_path(self, d):
        ranks = (1 + (d > 1), d * d)
        channels = [random_channel(d, rank=r, seed=s) for r in ranks for s in range(4)]
        channels += [named_gate("U", t) for t in (0.0, 0.3, np.pi / 4)] if d == 2 else []
        stack = np.stack([channel.choi for channel in channels])
        gaps = crolab.measures._entropy_gaps(stack)
        expected = [oracles.entropy_gap_one(channel.choi, d) for channel in channels]
        assert np.array(gaps).tobytes() == np.array(expected).tobytes()
        for channel, gap in zip(channels, gaps):
            assert relative_entropy_irreplaceability(channel) == gap

    def test_hadamard_is_one_bit(self):
        assert relative_entropy_irreplaceability(named_gate("H")) == (
            pytest.approx(1.0, abs=1e-9)
        )

    def test_replaceable_gates_vanish(self):
        for name in ("Z", "X"):
            assert relative_entropy_irreplaceability(named_gate(name)) == (
                pytest.approx(0.0, abs=1e-12)
            )

    def test_completely_depolarizing_vanishes(self):
        assert relative_entropy_irreplaceability(
            pauli_channel_T(0, 1)
        ) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_family_binary_entropy(self):
        for theta in (np.pi / 12, np.pi / 5, np.pi / 4):
            value = relative_entropy_irreplaceability(named_gate("U", theta))
            expected = binary_entropy_bits(np.cos(theta) ** 2)
            assert value == pytest.approx(expected, abs=1e-9)

    def test_symmetry_of_rotation_family(self):
        for theta in (0.2, 0.5, 0.7):
            a = relative_entropy_irreplaceability(named_gate("U", theta))
            b = relative_entropy_irreplaceability(
                named_gate("U", np.pi / 2 - theta)
            )
            assert a == pytest.approx(b, abs=1e-9)

    def test_invariant_under_output_dephasing(self):
        for seed in range(4):
            channel = random_channel(2, seed=seed)
            plain = relative_entropy_irreplaceability(channel)
            dephased = relative_entropy_irreplaceability(
                compose(dephasing(2), channel)
            )
            assert plain == pytest.approx(dephased, abs=1e-9)

    def test_bounds_and_oracle_agreement(self):
        # The unitary's output blocks have rank one, so their spectra carry
        # rounding-level eigenvalues through the clip and 0 log 0.
        rng = np.random.default_rng(5)
        channels = [
            random_channel(d, seed=seed) for d in (2, 3, 4, 8) for seed in range(4)
        ]
        channels.append(unitary_channel(oracles.haar_unitary(4, rng)))
        for channel in channels:
            d = channel.dim
            value = relative_entropy_irreplaceability(channel)
            assert 0.0 <= value <= np.log2(d) + 1e-12
            reference = oracles.oracle_relative_entropy_bits(channel.choi, d)
            assert value == pytest.approx(reference, abs=1e-9)


class TestChoiMapsAgainstComposition:
    """The suite's free maps and the qc sampler, on Choi arrays, against
    the superoperator products of ``oracles``."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_free_families(self, d):
        rng = np.random.default_rng(d)
        for _ in range(3):
            channel = random_channel(d, seed=rng)
            inner = random_channel(d, seed=rng)
            t = _stochastic_from_choi(inner.choi, d, 1e-9)
            np.testing.assert_allclose(
                crolab.measures._postcompose(channel.choi, t),
                oracles.postcompose_choi(inner.kraus, channel.kraus),
                rtol=0,
                atol=1e-12,
            )
            for perm in (rng.permutation(d), np.roll(np.arange(d), 1)):
                np.testing.assert_allclose(
                    crolab.measures._permute(channel.choi, perm),
                    oracles.permutation_conjugate_choi(perm, channel.kraus),
                    rtol=0,
                    atol=1e-12,
                )

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("qq_weight", [0.0, 0.4])
    def test_qccro_sampler(self, d, qq_weight):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            front = random_channel(d, seed=rng)
            classical = random_channel(d, seed=rng)
            np.testing.assert_allclose(
                random_qccro(d, seed=seed, qq_weight=qq_weight).choi,
                oracles.qccro_sample_choi(
                    front.kraus, classical.kraus, qq_weight
                ),
                rtol=0,
                atol=1e-12,
            )


class TestPropertySuite:
    """Structural property report."""

    def test_hadamard_report_passes(self):
        report = measure_property_suite(named_gate("H"), seed=3)
        assert report["passed"]
        assert report["convexity_robustness"]["passed"]
        assert report["free_family_verified"]["membership_residual"] < 1e-9

    def test_random_channel_report_passes(self):
        report = measure_property_suite(random_channel(2, seed=9), seed=5)
        assert report["passed"]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stacked_report_equals_one_by_one(self, monkeypatch, d):
        """Seeds 0 to 4: the report from stacked solves equals, key for key
        and bit for bit, the report from solving each channel alone."""
        channel = random_channel(d, seed=d)
        stacked = [measure_property_suite(channel, seed=seed) for seed in range(5)]
        real_solve = crolab.measures._solve_chois

        def one_by_one(chois):
            runs = list(zip(*(real_solve(choi[None]) for choi in chois)))
            arrays = [np.concatenate(part) for part in runs[:4]]
            record = {key: np.concatenate([part[key] for part in runs[4]]) for key in runs[4][0]}
            return (*arrays, record, [entry for part in runs[5] for entry in part])

        monkeypatch.setattr(crolab.measures, "_solve_chois", one_by_one)
        alone = [measure_property_suite(channel, seed=seed) for seed in range(5)]
        for a, b in zip(stacked, alone):
            assert list(a) == list(b)
            assert a == b

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
    def test_report_equals_per_channel_oracle(self, d):
        """Seeds 0 to 3 (and the Hadamard gate at d = 2): the report on one
        validated Choi stack equals, key for key, in order and float for
        float, the report of ``oracles.property_suite_per_channel``, which
        builds every mixture, sample and image as a ``Channel``."""
        cases = [(random_channel(d, seed=seed), seed) for seed in range(4)]
        cases += [(named_gate("H"), 3)] if d == 2 else []
        for channel, seed in cases:
            report = measure_property_suite(channel, seed=seed)
            expected = oracles.property_suite_per_channel(channel, seed=seed)
            assert json.dumps(report) == json.dumps(expected)

    @pytest.mark.parametrize("d", [2, 4])
    def test_builds_only_the_extension_channels(self, monkeypatch, d):
        """Random channels, mixtures, free-family samples and images are
        Choi arrays: the suite's only ``Channel`` objects are the I_2 and
        the N (x) I_2 of its extension check."""
        channel = random_channel(d, seed=d)
        built = []
        real_init = Channel.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Channel, "__init__", counting)
        report = measure_property_suite(channel, seed=1)
        assert report["passed"] and len(built) == 2

    def test_permutation_family_is_exactly_invariant(self):
        report = measure_property_suite(named_gate("H"), seed=12)
        assert abs(report["monotonicity_permutation"]["margin"]) < 1e-5
