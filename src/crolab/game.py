"""State-discrimination games that certify a channel's irreplaceability.

A game hands the channel one of a fixed list of input states, measures the
output in the computational basis, and scores the outcome with a real payoff
table.  Channels that are classically replaceable can never score above 1 on
a certified game, while an irreplaceable channel admits a game (built from
its robustness witness) whose score reaches 1 plus the robustness.
"""

from dataclasses import dataclass

import numpy as np

from .channels import Channel, apply, choi_dephase_output
from .cro import probe_states
from .linalg import assert_density_matrix, dephase, hermitianize, partial_trace
from .measures import robustness
from .sdp import SdpProblem, solve, svec

MAX_GAME_DIM = 4


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A discrimination game: input states, payoff table, and certificate.

    ``payoffs[i, j]`` is the reward for measuring outcome ``j`` after the
    channel acted on ``states[i]``.  ``normalization`` records the extreme
    scores achievable by classically replaceable channels, computed by the
    certification solves; games built through ``certified_game`` always
    carry it.
    """

    dim: int
    states: tuple
    payoffs: np.ndarray
    normalization: dict | None = None


def payoff(channel, game):
    """Expected score of the channel on the game."""
    if not isinstance(channel, Channel):
        raise TypeError("payoff expects a Channel")
    if channel.dim != game.dim:
        raise ValueError(
            f"channel dimension {channel.dim} does not match game dimension "
            f"{game.dim}"
        )
    total = 0.0
    for sigma, row in zip(game.states, game.payoffs):
        outcome_probabilities = np.real(np.diag(apply(channel, sigma)))
        total += float(row @ outcome_probabilities)
    return total


def witness_operator(game):
    """The block-diagonal operator whose pairing with the output-dephased
    Choi state reproduces the payoff."""
    d = game.dim
    w = np.zeros((d * d, d * d), dtype=complex)
    for sigma, row in zip(game.states, game.payoffs):
        for j in range(d):
            if row[j] == 0.0:
                continue
            marker = np.zeros((d, d), dtype=complex)
            marker[j, j] = 1.0
            w += row[j] * np.kron(sigma.T, marker)
    return d * w


def _dephase_gap(d):
    def fn(m):
        return dephase(m, [d, d], (1,)) - dephase(m, [d, d], (0, 1))

    return fn


def _input_marginal(d):
    def fn(m):
        return partial_trace(m, [d, d], 0)

    return fn


def _channel_from_psi(psi, d):
    """Clean a solver iterate into a valid Channel."""
    m = hermitianize(psi)
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    m = (v * w) @ v.conj().T
    m /= np.real(np.trace(m))
    return Channel(m, tol=1e-6)


def extremal_payoff_over_qccro(game, direction="max", options=None):
    """Best or worst score any classically replaceable channel can reach.

    Optimizes the payoff functional over the cone of replaceable channels
    intersected with the channel constraints; returns the value and a
    feasible channel achieving it.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    d = game.dim
    n = d * d
    objective = hermitianize(
        choi_dephase_output(witness_operator(game), d)
    )
    sign = -1.0 if direction == "max" else 1.0
    problem = SdpProblem()
    problem.add_var("psi", n)
    problem.minimize({"psi": sign * objective})
    problem.add_psd([("psi", None, n)])
    problem.add_eq([("psi", _dephase_gap(d), n)], np.zeros((n, n)))
    problem.add_eq([("psi", _input_marginal(d), d)], np.eye(d) / d)
    solution = solve(problem, options)
    if solution.status != "optimal":
        raise RuntimeError(
            f"extremal payoff solve ended with status {solution.status!r}; "
            f"residuals {solution.residuals}"
        )
    value = sign * solution.primal_value
    return value, _channel_from_psi(solution.variables["psi"], d)


def certified_game(dim, states, payoffs, options=None):
    """Validate the ingredients and attach the normalization certificate."""
    states = tuple(np.array(s, dtype=complex) for s in states)
    for s in states:
        assert_density_matrix(s)
    payoffs = np.array(payoffs, dtype=float)
    if payoffs.shape != (len(states), dim):
        raise ValueError(
            f"payoff table shape {payoffs.shape} does not match "
            f"{len(states)} states and {dim} outcomes"
        )
    if not np.all(np.isfinite(payoffs)):
        raise ValueError("payoffs must be finite")
    bare = GameSpec(dim=dim, states=states, payoffs=payoffs)
    low, _ = extremal_payoff_over_qccro(bare, "min", options)
    high, _ = extremal_payoff_over_qccro(bare, "max", options)
    return GameSpec(
        dim=dim,
        states=states,
        payoffs=payoffs,
        normalization={"min": float(low), "max": float(high)},
    )


def game_from_witness(channel, options=None):
    """Build the game on which the channel's advantage equals 1 + robustness.

    Runs the robustness computation, keeps the payoff-relevant part of the
    dual witness, and decomposes each outcome block over an informationally
    complete frame of pure states to recover a payoff table.  The returned
    game carries its normalization certificate.
    """
    return _witness_game(channel, options)[0]


def _witness_game(channel, options=None):
    """The witness game together with the robustness result it came from."""
    if not isinstance(channel, Channel):
        raise TypeError("game_from_witness expects a Channel")
    d = channel.dim
    if d > MAX_GAME_DIM:
        raise ValueError(
            f"witness games support dimension up to {MAX_GAME_DIM}, got {d}"
        )
    result = robustness(channel, want_witness=True, options=options)
    w = choi_dephase_output(result.witness, d)
    frame = probe_states(d)
    frame_matrix = np.column_stack(
        [svec(np.ascontiguousarray(s.T)) for s in frame]
    )
    blocks = w.reshape(d, d, d, d)
    targets = np.column_stack(
        [
            svec(hermitianize(np.ascontiguousarray(blocks[:, j, :, j]))) / d
            for j in range(d)
        ]
    )
    alpha = np.linalg.solve(frame_matrix, targets)
    residual = float(np.max(np.abs(frame_matrix @ alpha - targets)))
    if residual > 1e-9:
        raise RuntimeError(
            f"frame decomposition did not close; residual {residual:.3e}"
        )
    return certified_game(d, frame, alpha, options=options), result
