"""State-discrimination games that certify a channel's irreplaceability.

A game hands the channel one of a fixed list of input states, measures the
output in the computational basis, and scores the outcome with a real payoff
table.  A classically replaceable channel scores through its stochastic
matrix alone, so the best and worst replaceable scores have a closed form
reached by deterministic classical maps (Takagi and Regula, PRX 9, 031053,
2019); no optimization is needed.  Every certified game carries those two
scores.  An irreplaceable channel admits a game, built from its robustness
witness, on which its score divided by the best replaceable score is 1 plus
the robustness.  That game is read off the witness's block spectra: each
eigenpair of a witness block ``W_k`` is one pure input state paying on
outcome k alone (Takagi, Regula, Bu, Liu and Adesso, PRL 122, 140402, 2019;
Takagi and Regula, PRX 9, 031053, 2019).  Its numbers have a closed form in
those eigenpairs (``_witness_game``): the payoff pairs the truncated blocks
sum_kept lambda v v^dagger with the channel's output blocks, and the
classical scores are their diagonals over d.  ``crolab game`` reads its
report from them and builds no state; ``game_from_witness`` builds the
``GameSpec`` with its states from the same eigenpairs.
"""

from dataclasses import dataclass

import numpy as np

from .channels import Channel, choi_from_output_blocks, choi_output_blocks
from .linalg import assert_density_matrix
from .measures import _checked, _solve_chois


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A discrimination game: input states, payoff table, and certificate.

    ``payoffs[s, j]`` is the reward for measuring outcome ``j`` after the
    channel acted on ``states[s]``.  ``normalization`` records the worst
    (``"min"``) and best (``"max"``) scores of classically replaceable
    channels: ``sum_i min_j c[i, j]`` and ``sum_i max_j c[i, j]`` with
    ``c[i, j] = sum_s payoffs[s, j] states[s][i, i]``, each reached by a
    deterministic classical map (Takagi and Regula, PRX 9, 031053, 2019).
    Games built through ``certified_game`` always carry it.  In a witness
    game (``game_from_witness``) the states are the eigenstates of the
    witness blocks, one per eigenvalue above rounding, and every payoff is
    nonnegative.
    """

    dim: int
    states: tuple
    payoffs: np.ndarray
    normalization: dict | None = None


def _witness_blocks(game):
    """The game's witness blocks ``W_k = d sum_s payoffs[s, k] sigma_s^T``."""
    d = game.dim
    states = np.reshape(game.states, (-1, d, d))
    return d * np.einsum("sk,sji->kij", game.payoffs, states)


def payoff(channel, game):
    """Expected score of the channel on the game.

    The score is ``sum_k tr(W_k B_k)`` over the game's witness blocks and
    the output blocks ``B_k`` of the channel's Choi state.
    """
    if not isinstance(channel, Channel):
        raise TypeError("payoff expects a Channel")
    if channel.dim != game.dim:
        raise ValueError(
            f"channel dimension {channel.dim} does not match game dimension "
            f"{game.dim}"
        )
    blocks = choi_output_blocks(channel.choi, game.dim)
    return float(np.real(np.einsum("kij,kji->", _witness_blocks(game), blocks)))


def witness_operator(game):
    """The block-diagonal operator ``sum_k W_k (x) |k><k|`` whose pairing with
    the output-dephased Choi state reproduces the payoff."""
    return choi_from_output_blocks(_witness_blocks(game))


def _classical_scores(dim, states, payoffs):
    """``c[i, j] = sum_s payoffs[s, j] sigma_s[i, i]``, for |i><i| -> |j><j|."""
    diagonals = np.real(np.diagonal(np.reshape(states, (-1, dim, dim)), axis1=1, axis2=2))
    return diagonals.T @ payoffs


def extremal_payoff_over_qccro(game, direction="max"):
    """Best or worst score any classically replaceable channel can reach.

    A qc-replaceable channel acts on the game only through its stochastic
    matrix ``T``, so its score is ``sum_ij T[j, i] c[i, j]`` with
    ``c[i, j] = sum_s payoffs[s, j] sigma_s[i, i]``.  That is linear in
    ``T``, and its extremes sit at deterministic maps: ``sum_i max_j c[i, j]``
    and ``sum_i min_j c[i, j]``, the classical bound of Takagi and Regula,
    PRX 9, 031053 (2019), in closed form.  Returns the value and the
    deterministic channel reaching it, which sends ``|i><i|`` to
    ``|j_i><j_i|`` for the first extremal outcome ``j_i`` of each input.
    """
    if direction not in ("min", "max"):
        raise ValueError(f"direction must be 'min' or 'max', got {direction!r}")
    d = game.dim
    c = _classical_scores(d, game.states, game.payoffs)
    picks = np.argmax(c, axis=1) if direction == "max" else np.argmin(c, axis=1)
    inputs = np.arange(d)
    choi = np.zeros(d * d)
    choi[inputs * d + picks] = 1.0 / d
    return float(np.sum(c[inputs, picks])), Channel(np.diag(choi))


def certified_game(dim, states, payoffs):
    """Validate the ingredients and attach the normalization certificate.

    Every state must be a ``(dim, dim)`` density matrix.  The certificate
    holds the worst and best classically replaceable scores,
    ``sum_i min_j c[i, j]`` and ``sum_i max_j c[i, j]``, the values
    ``extremal_payoff_over_qccro`` returns.
    """
    try:
        stack = np.array(states, dtype=complex)
    except (TypeError, ValueError):  # ragged, or not a sequence: read below
        stack = None
    if stack is None or stack.ndim != 3 or stack.shape[1:] != (dim, dim):
        # State by state, so the message names the first bad one.
        converted = [np.array(s, dtype=complex) for s in states]
        for k, s in enumerate(converted):
            if s.shape != (dim, dim):
                raise ValueError(f"state {k} has shape {s.shape}, expected ({dim}, {dim})")
        stack = np.reshape(converted, (-1, dim, dim))
    assert_density_matrix(stack)
    payoffs = np.array(payoffs, dtype=float)
    if payoffs.shape != (len(stack), dim):
        raise ValueError(
            f"payoff table shape {payoffs.shape} does not match "
            f"{len(stack)} states and {dim} outcomes"
        )
    if not np.all(np.isfinite(payoffs)):
        raise ValueError("payoffs must be finite")
    c = _classical_scores(dim, stack, payoffs)
    return GameSpec(
        dim=dim,
        states=tuple(stack),
        payoffs=payoffs,
        normalization={"min": float(c.min(axis=1).sum()), "max": float(c.max(axis=1).sum())},
    )


def game_from_witness(channel):
    """Build the game on which the channel's advantage equals 1 + robustness.

    Runs the robustness computation and reads the game off the spectra of
    its witness blocks ``W_k``: every eigenpair ``(lambda, v)`` of ``W_k``
    with ``lambda`` above d eps times the block's largest eigenvalue, which
    is zero up to rounding, gives the pure state ``conj(v) conj(v)^dagger``,
    which pays ``lambda / d`` on outcome k and 0 elsewhere (Takagi, Regula,
    Bu, Liu and Adesso, PRL 122, 140402, 2019; Takagi and Regula, PRX 9,
    031053, 2019).  The witness blocks share one diagonal, so every
    classically replaceable channel scores 1 on the game.  A unitary's
    witness blocks have rank one, so its game has d states.  The returned
    game carries its normalization certificate.
    """
    _, lam, vecs = _witness_game(channel)
    d = channel.dim
    outcome, index = np.nonzero(lam > 0.0)
    v = vecs[outcome, :, index].conj()
    payoffs = np.zeros((len(outcome), d))
    payoffs[np.arange(len(outcome)), outcome] = lam[outcome, index] / d
    return certified_game(d, v[:, :, None] * v[:, None, :].conj(), payoffs)


def _witness_game(channel):
    """The robustness value and the eigenpairs of the witness game, from
    one ``measures._solve_chois`` run on the channel, whose dual blocks
    W_k it eigendecomposes as they come: (value, lam, vecs), with
    ``vecs[k][:, j]`` the eigenvector of ``lam[k, j]``, which is zero for
    a pair the cut drops and positive for a kept one.  The game's witness
    blocks are then the truncated W_k = sum_j lam[k, j] v v^dagger, and
    the kept pairs are its states and payoffs (``game_from_witness``).  A
    failed solve raises ``robustness``' RuntimeError."""
    if not isinstance(channel, Channel):
        raise TypeError("game_from_witness expects a Channel")
    d = channel.dim
    upper, _, dual, *_ = _checked(_solve_chois(channel.choi[None]))
    lam, vecs = np.linalg.eigh(dual[0])
    # Eigenvalues within eigh's rounding of zero (the cut of
    # numpy.linalg.matrix_rank) give no state, so a rank-one block gives one.
    lam = np.where(lam > lam[:, -1:] * d * np.finfo(float).eps, lam, 0.0)
    return float(upper[0]), lam, vecs
