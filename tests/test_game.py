"""Tests for the discrimination-game layer."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from crolab import cli
from crolab.channels import (
    MAX_DIM,
    choi_dephase_output,
    choi_output_blocks,
    identity_channel,
    named_gate,
    pauli_channel_T,
    random_channel,
)
from crolab.cro import is_qccro, random_qccro
from crolab.game import (
    GameSpec,
    _witness_game,
    certified_game,
    extremal_payoff_over_qccro,
    game_from_witness,
    payoff,
    witness_operator,
)
from crolab.linalg import dephase, hermitianize, partial_trace
from crolab.measures import robustness
from crolab.sdp import solve
from oracles import SdpProblem, canonical


def sdp_extremal_payoff(game, direction):
    """The SDP formulation the closed form replaced, kept as a cross-check.

    Optimizes the payoff pairing over PSD Choi matrices whose output
    dephasing equals their full dephasing (D O = D O D) and whose input
    marginal is I/d.
    """
    d = game.dim
    n = d * d
    objective = hermitianize(choi_dephase_output(witness_operator(game), d))
    sign = -1.0 if direction == "max" else 1.0
    problem = SdpProblem()
    problem.add_var("psi", n)
    problem.minimize({"psi": sign * objective})
    problem.add_psd([("psi", None, n)])
    problem.add_eq(
        [("psi", lambda m: dephase(m, [d, d], (1,)) - dephase(m, [d, d], (0, 1)), n)],
        np.zeros((n, n)),
    )
    problem.add_eq([("psi", lambda m: partial_trace(m, [d, d], 0), d)], np.eye(d) / d)
    solution = solve(canonical(problem))
    assert solution.status == "optimal", solution.residuals
    return sign * solution.primal_value


@st.composite
def random_games(draw):
    """Games at d = 2, 3, 4 with 1 to d^2 random states and payoffs in [-5, 5]."""
    d = draw(st.sampled_from((2, 3, 4)))
    count = draw(st.integers(1, d * d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = []
    for _ in range(count):
        rank = draw(st.integers(1, d))
        g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    payoffs = draw(
        st.lists(
            st.floats(-5.0, 5.0, allow_nan=False), min_size=count * d, max_size=count * d
        )
    )
    return certified_game(d, states, np.reshape(payoffs, (count, d)))


def identity_game():
    states = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
    return certified_game(2, states, np.eye(2) / 2)


class TestPayoffEvaluation:
    """Direct payoff formula on hand-built games."""

    def test_perfect_discrimination_scores_one(self):
        game = identity_game()
        assert payoff(identity_channel(2), game) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_guessing_scores_inverse_dimension(self):
        game = identity_game()
        assert payoff(pauli_channel_T(0, 1), game) == pytest.approx(0.5, abs=1e-12)

    def test_payoff_equals_witness_pairing(self):
        game = identity_game()
        w = witness_operator(game)
        for seed in range(3):
            channel = random_channel(2, seed=seed)
            via_choi = np.real(
                np.trace(w @ choi_dephase_output(channel.choi, 2))
            )
            assert payoff(channel, game) == pytest.approx(via_choi, abs=1e-6)

    def test_witness_operator_of_identity_game(self):
        game = identity_game()
        w = witness_operator(game)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        expected[3, 3] = 1.0
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_dimension_mismatch_rejected(self):
        game = identity_game()
        with pytest.raises(ValueError, match="dimension"):
            payoff(identity_channel(3), game)
        with pytest.raises(TypeError, match="Channel"):
            payoff(np.eye(4), game)


class TestExtremalPayoffs:
    """Closed-form extremes over the replaceable channels."""

    def test_identity_game_certificate(self):
        game = identity_game()
        assert game.normalization["max"] == pytest.approx(1.0, abs=1e-6)
        assert game.normalization["min"] >= -1e-6

    def test_achieving_channel_is_member_and_scores_value(self):
        game = identity_game()
        value, channel = extremal_payoff_over_qccro(game, "max")
        assert is_qccro(channel, tol=1e-5).is_member
        assert payoff(channel, game) == pytest.approx(value, abs=1e-5)

    @settings(derandomize=True, deadline=None, database=None, max_examples=12)
    @given(random_games())
    def test_closed_form_matches_enumeration_and_sdp(self, game):
        brute = dict(zip(("min", "max"), oracles.classical_score_extremes(game.states, game.payoffs)))
        for direction in ("min", "max"):
            value, channel = extremal_payoff_over_qccro(game, direction)
            assert value == game.normalization[direction]
            assert abs(value - brute[direction]) <= 1e-12
            assert abs(value - sdp_extremal_payoff(game, direction)) <= 1e-6 * (1 + abs(value))
            verdict = is_qccro(channel)
            assert verdict.is_member
            assert np.all(np.isin(verdict.replacement, (0.0, 1.0)))
            assert abs(payoff(channel, game) - value) <= 1e-12
        assert game.normalization["min"] <= game.normalization["max"]

    def test_direction_validated(self):
        game = identity_game()
        with pytest.raises(ValueError, match="direction"):
            extremal_payoff_over_qccro(game, "sideways")


class TestCertifiedGameValidation:
    """Input checking on game construction."""

    def test_payoff_shape_must_match(self):
        states = [np.eye(2, dtype=complex) / 2]
        with pytest.raises(ValueError, match="shape"):
            certified_game(2, states, np.eye(2))

    def test_payoffs_must_be_finite(self):
        states = [np.eye(2, dtype=complex) / 2]
        with pytest.raises(ValueError, match="finite"):
            certified_game(2, states, np.array([[np.inf, 0.0]]))

    def test_states_must_be_density_matrices(self):
        with pytest.raises(ValueError):
            certified_game(2, [np.eye(2, dtype=complex)], np.array([[0.5, 0.5]]))
        # the batched check names the first failing state
        states = [np.eye(2) / 2, np.diag([1.5, -0.5])]
        with pytest.raises(ValueError, match="state 1 has negative eigenvalue"):
            certified_game(2, states, np.eye(2))

    def test_state_shape_must_match(self):
        states = [np.eye(3) / 3, np.eye(2) / 2]
        with pytest.raises(ValueError, match="state 0"):
            certified_game(2, states, np.eye(2))

    @pytest.mark.parametrize("form", ["array", "list"])
    def test_states_are_held_once(self, form):
        """d^2 random pure states at d = 16, as one array or as a list: the
        game's states are the rows of one copy, and validating them peaks at
        three times the stack's size (the copy, and twice it inside
        ``assert_density_matrix``), against four when the states were
        copied one by one and stacked again."""
        d = 16
        rng = np.random.default_rng(d)
        v = rng.normal(size=(d * d, d)) + 1j * rng.normal(size=(d * d, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        stack = v[:, :, None] * v[:, None, :].conj()
        states = stack if form == "array" else list(stack)
        tracemalloc.start()
        try:
            game = certified_game(d, states, np.full((d * d, d), 1.0 / d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.25 * stack.nbytes
        assert np.array(game.states).tobytes() == stack.tobytes()
        assert all(state.base is game.states[0].base is not None for state in game.states)
        assert not np.shares_memory(game.states[0], stack)


class TestWitnessGames:
    """Games constructed from the robustness dual witness."""

    def test_hadamard_advantage(self):
        game = game_from_witness(named_gate("H"))
        value = payoff(named_gate("H"), game)
        assert value == pytest.approx(2.0, abs=1e-4)
        assert game.normalization["max"] <= 1.0 + 1e-6
        assert game.normalization["min"] >= -1e-6

    def test_free_channel_has_no_advantage(self):
        game = game_from_witness(named_gate("Z"))
        assert payoff(named_gate("Z"), game) == pytest.approx(1.0, abs=1e-5)
        assert game.normalization["max"] == pytest.approx(1.0, abs=1e-6)

    def test_random_channels_realize_robustness_ratio(self):
        for d in (2, 3, 4, 8):
            for seed in range(5):
                channel = random_channel(d, seed=seed)
                game = game_from_witness(channel)
                expected = 1.0 + robustness(channel).value
                ratio = payoff(channel, game) / game.normalization["max"]
                assert ratio == pytest.approx(expected, abs=1e-8)

    def test_states_are_witness_eigenstates(self):
        channels = [named_gate("H"), named_gate("Z")] + [
            random_channel(d, seed=seed) for d in (2, 3, 4, 8) for seed in range(2)
        ]
        for channel in channels:
            d = channel.dim
            game = game_from_witness(channel)
            result = robustness(channel)
            spectra = np.linalg.eigvalsh(choi_output_blocks(result.witness, d))
            above = spectra > spectra[:, -1:] * d * np.finfo(float).eps
            assert len(game.states) == np.count_nonzero(above) <= d * d
            assert np.all(game.payoffs >= 0.0)
            assert np.all(np.count_nonzero(game.payoffs, axis=1) == 1)
            assert np.max(np.abs(witness_operator(game) - result.witness)) <= 1e-12
            assert abs(game.normalization["min"] - 1.0) <= 1e-12
            assert abs(game.normalization["max"] - 1.0) <= 1e-12

    @pytest.mark.parametrize("name, theta", [("H", None), ("CNOT", None), ("U", 0.3)])
    def test_unitary_game_has_one_state_per_block(self, tmp_path, capsys, name, theta):
        """A unitary's closed-form witness has rank-one blocks: ``crolab
        game`` reports a gap of at most 1e-12, and the game has d states,
        one paying on each outcome."""
        spec = {"kind": "gate", "name": name}
        if theta is not None:
            spec["params"] = {"theta": theta}
        path = tmp_path / "gate.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["game", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["gap"] <= 1e-12
        channel = named_gate(name, theta)
        game = game_from_witness(channel)
        assert len(game.states) == channel.dim
        assert np.array_equal(np.count_nonzero(game.payoffs, axis=0), np.ones(channel.dim))

    def test_dimension_guard(self):
        channel = identity_channel(5)
        game = game_from_witness(channel)
        ratio = payoff(channel, game) / game.normalization["max"]
        assert ratio == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="dimension"):
            game_from_witness(identity_channel(MAX_DIM + 1))
        with pytest.raises(TypeError, match="Channel"):
            game_from_witness(np.eye(4))


class TestDualBlockGame:
    """``_witness_game`` eigendecomposes the solver's dual blocks as they
    come, and ``game_from_witness`` builds its game from those eigenpairs;
    the path they replaced (``oracles.result_witness_game``) re-blocked
    the d^2 x d^2 witness of ``robustness``."""

    def test_game_and_value_equal_the_result_path(self):
        """Gates, qc members and random channels at d = 1 to 16: the same
        states, payoffs and value, bit for bit."""
        channels = [named_gate(name) for name in ("H", "Z", "T", "CNOT")]
        channels += [random_qccro(d, seed=d) for d in (2, 3)]
        channels += [
            random_channel(d, rank=rank, seed=seed)
            for d in (1, 2, 3, 4, 8)
            for rank in (1, 2, None)
            for seed in range(2)
        ]
        channels.append(random_channel(16, rank=2, seed=0))
        for channel in channels:
            game = game_from_witness(channel)
            value = _witness_game(channel)[0]
            states, payoffs, result = oracles.result_witness_game(channel)
            assert value == result.value
            assert np.array(game.states).tobytes() == states.tobytes()
            assert game.payoffs.tobytes() == payoffs.tobytes()


class TestFrameOracle:
    """The spectral witness game against the frame decomposition it replaced."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_spectral_and_frame_games_agree(self, d):
        for seed in range(3):
            channel = random_channel(d, seed=seed)
            spectral = game_from_witness(channel)
            result = robustness(channel)
            frame = certified_game(d, *oracles.frame_witness_game(result.witness, d))
            ratios = []
            for game in (spectral, frame):
                w = witness_operator(game)
                assert np.max(np.abs(w - result.witness)) <= 1e-9
                loop_w = oracles.loop_witness_operator(game.states, game.payoffs)
                assert np.max(np.abs(loop_w - w)) <= 1e-12
                score = payoff(channel, game)
                loop = oracles.loop_payoff(channel.choi, game.states, game.payoffs)
                assert abs(loop - score) <= 1e-12
                ratios.append(score / game.normalization["max"])
            assert abs(ratios[0] - ratios[1]) <= 1e-9
