"""Pauli strings, their index arithmetic, and a seeded Clifford sampler.

A Pauli string on ``n`` qubits is addressed by an integer in ``[0, 4**n)``
read as base-4 digits over ``(I, X, Y, Z)``, big-endian: qubit 0 is the
leftmost letter and the slowest Kronecker factor.  Index 0 is the identity
string.
"""

from __future__ import annotations

import functools

import numpy as np

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

PAULI_LETTERS = "IXYZ"
_SINGLE = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
PHASE_S = np.array([[1, 0], [0, 1j]], dtype=complex)
CNOT_01 = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
CNOT_10 = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)


def pauli_digits(index: int, n: int) -> tuple[int, ...]:
    """Base-4 digits of a Pauli index, qubit 0 first."""
    index = int(index)
    n = int(n)
    if not 0 <= index < 4**n:
        raise ValueError(f"pauli index {index} out of range for n={n}")
    digits = []
    for q in range(n):
        digits.append((index >> (2 * (n - 1 - q))) & 3)
    return tuple(digits)


def pauli_matrix(index: int, n: int) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the Pauli string with the given index."""
    out = np.array([[1.0 + 0j]])
    for digit in pauli_digits(index, n):
        out = np.kron(out, _SINGLE[digit])
    return out


@functools.lru_cache(maxsize=None)
def pauli_stack(n: int) -> np.ndarray:
    """All 4^n Pauli strings as a (4^n, 2^n, 2^n) stack, in index order,
    read-only and built once per n.

    Each of the n steps takes the Kronecker product of every string so far
    with every single-qubit Pauli, the new factor the fastest.
    """
    singles = np.stack(_SINGLE)
    stack = np.ones((1, 1, 1), dtype=complex)
    for _ in range(int(n)):
        m, side = stack.shape[:2]
        stack = stack[:, None, :, None, :, None] * singles[None, :, None, :, None, :]
        stack = stack.reshape(4 * m, 2 * side, 2 * side)
    stack.flags.writeable = False
    return stack


def pauli_index(label: str) -> int:
    """Index of a Pauli string written as letters, e.g. ``"ZIZ"``."""
    label = label.strip().upper()
    if not label or any(ch not in PAULI_LETTERS for ch in label):
        raise ValueError(f"not a Pauli string: {label!r}")
    index = 0
    for ch in label:
        index = 4 * index + PAULI_LETTERS.index(ch)
    return index


def pauli_label(index: int, n: int) -> str:
    return "".join(PAULI_LETTERS[d] for d in pauli_digits(index, n))


def random_clifford(n: int, seed=None, length: int = 24) -> np.ndarray:
    """Unitary of a random Clifford circuit on ``n`` qubits (n <= 2).

    Sampled as a product of ``length`` generators drawn uniformly from
    {H, S} on each qubit plus both CNOT orientations when n == 2.  Not a
    uniform sample over the Clifford group, but it mixes well enough to
    reach generic group elements, and it is deterministic for a fixed seed.
    """
    if n not in (1, 2):
        raise ValueError(f"clifford sampler supports n in (1, 2), got {n}")
    rng = np.random.default_rng(seed)
    if n == 1:
        gens = [HADAMARD, PHASE_S]
    else:
        eye = PAULI_I
        gens = [
            np.kron(HADAMARD, eye),
            np.kron(eye, HADAMARD),
            np.kron(PHASE_S, eye),
            np.kron(eye, PHASE_S),
            CNOT_01,
            CNOT_10,
        ]
    u = np.eye(2**n, dtype=complex)
    for _ in range(int(length)):
        u = gens[int(rng.integers(len(gens)))] @ u
    return u
