"""Quantum channels on a single d-dimensional system, in the Choi picture.

Conventions used throughout:

* States and operators are row-major complex numpy arrays.
* The Choi state of a channel N is ``(id (x) N)`` applied to the maximally
  entangled state, normalized to unit trace.  Subsystem 0 (the slow Kronecker
  index) is the input/reference side, subsystem 1 (fast) is the output:
  ``choi[(i*d+k), (j*d+l)] = <k| N(|i><j|) |l> / d``.
* ``compose(a, b)`` is ``a`` after ``b``; ``tensor(a, b)`` puts ``a`` on the
  slow factor.

The Choi array is the only representation of a channel: ``choi_apply`` maps
operators through it and ``choi_measure`` composes it with a PVM's
measure-and-reprepare map.  Only square channels (equal input and output
dimension) are supported.

Construction records two facts that later checks read instead of
recomputing them.  ``Channel._gram`` is True when the Choi array J is the
Gram sum of the channel's own Kraus list ``Channel._kraus``, which only
``channel_from_kraus`` sets: ``cro.eb_ppt_test`` then reads the partial
transpose's minimum off that list's one operator.  A ``kraus`` that a
caller passes to ``Channel`` is checked for completeness only, not against
J, and sets no record.

Every channel also records, as ``Channel._min_eig``, a lower bound l on the
smallest eigenvalue of J, an n x n array (n = d^2).  Validation runs
``eigvalsh`` only where that bound does not clear the positivity floor
-max(tol, 1e-7).  An array that a caller passes to ``Channel`` or
``validate_choi_stack`` has no bound, with or without ``kraus``, and is
always eigendecomposed; its l is then LAPACK's smallest eigenvalue less
twice the room below.  So are the arrays of ``mix``, ``te_channel`` and the
other constructors here.  Three constructions get l from how they built
the array:

* ``channel_from_kraus`` (and the sweep's Kraus stacks): J = sum_k w_k
  w_k^dag / d over r Kraus vectors is a Gram sum, positive semidefinite
  (Choi, Linear Algebra Appl. 10, 285, 1975).  Rounded, each entry is off
  by at most (r + 4) u times the entry of G = sum_k |w_k| |w_k|^T / d
  (u = eps / 2), so the error's spectral norm is at most (r + 4) u tr G,
  and tr G = tr J <= 1 + tol for an array that passes the trace check.
* ``tensor``: the spectrum of a Kronecker product is the set of products
  of the factors' eigenvalues, each within [l, tr J - (n - 1) l]; the
  smallest product sits at a corner of that box.
* ``compose``: J_ab = (id (x) a)(J_b).  Writing J = J+ - delta I, with
  delta = max(-l, 0) and J+ >= 0, gives J_ab >= -d (delta_a tr J_b+ +
  delta_b tr J_a+) I, so the bound stays at zero only when both inputs
  are nonnegative.

Each bound also subtracts ``_rounding(n, s)`` = 4 n^2 eps s, where s bounds
the nuclear norms involved (tr J - 2 n min(l, 0) for each input).  That is
room for the operation's own rounding (at most (n + 3) u d s for the
product in ``compose``, about 4 u s in ``tensor``) and for the error of
any later ``eigvalsh`` of the result, which LAPACK bounds by p(n) eps ||J||.
So a bound is never above the smallest eigenvalue that ``eigvalsh``
reports.  At d = 32 the room is about 1e-9, against a floor of at least
1e-7: gates, Kraus leaves and their tensors clear it, and only a
chain of compositions, whose bound grows by about a factor d per step,
falls back to ``eigvalsh``.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import DEFAULT_TOL, dephase, hermitianize, is_hermitian, kron, partial_trace
from .paulis import CNOT_01, HADAMARD, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, PHASE_S, pauli_matrix

KRAUS_DROP = 1e-12
_EPS = np.finfo(float).eps
MAX_DIM = 32  # the largest channel dimension that the CLI loads and every measure accepts


def check_dim(dim: int, where: str) -> None:
    if dim > MAX_DIM:
        raise ValueError(f"{where}: dimension {dim} exceeds the limit of {MAX_DIM}")


class _Immutable:
    """Slots set once, in ``__init__``, through ``object.__setattr__``.

    ``copy``, ``deepcopy`` and ``pickle`` restore the slots as they were
    saved, without validating again: the tolerance an object was validated
    at is not recorded, so a second validation could refuse it.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)


class Channel(_Immutable):
    """A CPTP map, stored as its trace-1 Choi state.

    The constructor validates the Choi invariants: Hermitian and PSD within
    ``tol``, unit trace, and reference marginal equal to the maximally mixed
    state (trace preservation); Kraus operators passed in must be complete.
    ``kraus`` is computed from the Choi state on first access unless it was
    passed in, and then holds a copy: writing into the caller's array later
    changes no channel.  ``_min_eig`` is a lower bound on the smallest
    eigenvalue of ``choi``, and ``_gram`` whether ``choi`` is the Gram sum
    of ``_kraus``.
    The PSD check eigendecomposes every array passed in, with or without
    ``kraus``, and a ``kraus`` passed in sets no ``_gram``.  Only the
    channels that ``channel_from_kraus``, ``tensor`` and ``compose`` build
    skip it, when the bound that their construction proves clears the
    floor, and only ``channel_from_kraus`` records ``_gram`` (see the
    module docstring).
    """

    __slots__ = ("dim", "choi", "_kraus", "_min_eig", "_gram")

    def __init__(self, choi: np.ndarray, tol: float = DEFAULT_TOL, kraus=None):
        bound, gram = None, False
        if isinstance(choi, _Built):
            choi, bound, gram = choi
        choi = np.asarray(choi, dtype=complex)
        if choi.ndim != 2:
            raise ValueError(_shape_message(choi.shape))
        if kraus is not None:
            # A copy, so that no caller's array aliases the channel's list;
            # channel_from_kraus (the only source of ``gram``) made it.
            kraus = (np.asarray if gram else np.array)(kraus, dtype=complex)
        stack, min_eig = _validated(choi[None], tol, None if kraus is None else kraus[None], bound)
        object.__setattr__(self, "dim", math.isqrt(choi.shape[0]))
        object.__setattr__(self, "choi", stack[0])
        object.__setattr__(self, "_kraus", None if kraus is None else tuple(kraus))
        object.__setattr__(self, "_min_eig", min_eig)
        object.__setattr__(self, "_gram", gram)

    @property
    def kraus(self) -> tuple:
        if self._kraus is None:
            # positivity was checked at construction, within that tolerance
            object.__setattr__(self, "_kraus", kraus_from_choi(self.choi, tol=np.inf))
        return self._kraus

    def __repr__(self):
        return f"Channel(dim={self.dim}, kraus_rank={len(self.kraus)})"


class _Built(NamedTuple):
    """A Choi array that this module built, with the lower bound on its
    smallest eigenvalue that the construction proves and whether it is the
    Gram sum of the Kraus list passed with it; ``Channel`` reads both only
    from this wrapper."""

    choi: np.ndarray
    min_eig: float
    gram: bool = False


def _rounding(n: int, scale: float) -> float:
    """Room for one operation's rounding on n x n Choi arrays whose nuclear
    norms multiply to ``scale``, and for the error of a later ``eigvalsh``."""
    return 4.0 * n * n * _EPS * scale


def _bound_and_trace(channel: Channel) -> tuple[float, float]:
    """The channel's eigenvalue bound l and |tr J|, which the bounds of
    ``compose`` and ``tensor`` use only as an upper bound on tr J."""
    return channel._min_eig, abs(float(channel.choi.trace().real))


def _shape_message(shape) -> str:
    return f"choi shape {shape} is not a square (d^2, d^2) matrix"


def validate_choi_stack(chois: np.ndarray, tol: float = DEFAULT_TOL, kraus=None) -> np.ndarray:
    """The Hermitian part of a (..., d^2, d^2) stack of Choi arrays, once
    every entry passes ``Channel``'s checks.

    The checks, in order: Kraus completeness, when ``kraus`` (a (..., r, d,
    d) stack, one list per entry) is given; Hermitian within ``tol`` (which
    NaN fails); unit trace; reference marginal I/d (trace preservation);
    and, on the Hermitian part of the entries that pass those, smallest
    eigenvalue at least -max(tol, 1e-7).  The first failing entry raises
    the ValueError that ``Channel`` raises for it alone.
    """
    return _validated(chois, tol, kraus)[0]


def _validated(chois, tol, kraus=None, bound=None):
    """``validate_choi_stack``'s result, and a lower bound on the smallest
    eigenvalue of every entry.

    ``bound``, when given, is such a bound from the entries' construction;
    if it clears the floor, no entry is eigendecomposed.
    """
    chois = np.asarray(chois, dtype=complex)
    n = chois.shape[-1] if chois.ndim >= 2 else 0
    dim = math.isqrt(n)
    if dim == 0 or chois.shape[-2:] != (dim * dim, dim * dim):
        raise ValueError(_shape_message(chois.shape[-2:]))
    stack = chois.reshape(-1, n, n)
    # (failing entries, the value each message reports, message template)
    checks = []
    if kraus is not None:
        dev = _completeness_deviation(np.asarray(kraus, dtype=complex).reshape(len(stack), -1, dim, dim))
        checks.append((dev > tol, dev, "kraus completeness violated by {:.3e} (tol={tol:g})"))
    asym = np.max(np.abs(stack - stack.conj().swapaxes(-1, -2)), axis=(1, 2))
    checks.append((~(asym <= tol), asym, "choi matrix is not Hermitian within tol={tol:g}"))
    tr = np.real(np.trace(stack, axis1=1, axis2=2))
    checks.append((np.abs(tr - 1.0) > tol, tr, "choi trace {:.12g} is not 1 within tol={tol:g}"))
    marginal = np.trace(stack.reshape(-1, dim, dim, dim, dim), axis1=2, axis2=4)
    dev = np.max(np.abs(marginal - np.eye(dim) / dim), axis=(1, 2))
    checks.append((
        dev > tol,
        dev,
        "reference marginal deviates from I/d by {:.3e} (tol={tol:g}); "
        "the map is not trace preserving",
    ))
    failing = functools.reduce(operator.or_, (mask for mask, _, _ in checks))
    hermitian = hermitianize(stack)
    floor = -max(tol, 1e-7)
    proven = bound is not None and bound >= floor
    if proven:
        min_eig = np.full(len(stack), bound)
    elif failing.any():
        # NaN and other failed entries never reach LAPACK.
        min_eig = np.full(len(stack), np.inf)
        min_eig[~failing] = np.linalg.eigvalsh(hermitian[~failing])[:, 0]
    else:
        min_eig = np.linalg.eigvalsh(hermitian)[:, 0]
    negative = min_eig < floor
    checks.append((negative, min_eig, "choi matrix has negative eigenvalue {:.3e}"))
    failing = failing | negative
    if failing.any():
        b = int(np.argmax(failing))
        _, values, template = next(check for check in checks if check[0][b])
        raise ValueError(template.format(values[b], tol=tol))
    if not proven:
        # LAPACK's eigenvalues lie within its error of the true ones; room
        # for that error twice puts the bound below another run's too.  An
        # entry that passed has nuclear norm at most 1 + tol - 2 n floor.
        bound = float(np.min(min_eig, initial=np.inf)) - 2 * _rounding(n, 1 + tol - 2 * n * floor)
    return hermitian.reshape(chois.shape), bound


def _completeness_deviation(ops: np.ndarray) -> np.ndarray:
    """The largest entry of |sum_k K^dag K - I|, the sum taken over k in
    order, for each Kraus list of a (..., r, d, d) stack."""
    products = ops.conj().swapaxes(-1, -2) @ ops
    completeness = products[..., 0, :, :]
    for k in range(1, products.shape[-3]):
        completeness = completeness + products[..., k, :, :]
    return np.abs(completeness - np.eye(ops.shape[-1])).max(axis=(-2, -1))


def choi_stack_from_kraus(ops: np.ndarray) -> np.ndarray:
    """Trace-1 Choi arrays of a (..., r, d, d) stack of Kraus lists.

    Each is the sum, over its r operators K in order and starting from
    zero, of the outer product of vec(K^T) with itself, divided by d.
    """
    ops = np.asarray(ops, dtype=complex)
    d = ops.shape[-1]
    vecs = ops.swapaxes(-1, -2).reshape(*ops.shape[:-2], d * d)
    choi = np.zeros((*ops.shape[:-3], d * d, d * d), dtype=complex)
    for k in range(ops.shape[-3]):
        w = vecs[..., k, :]
        choi += w[..., :, None] * w[..., None, :].conj()
    return choi / d


def kraus_from_choi(choi: np.ndarray, tol: float = DEFAULT_TOL, drop: float = KRAUS_DROP):
    """Kraus operators of a trace-1 Choi state, dropping eigenvalues <= drop."""
    choi = np.asarray(choi, dtype=complex)
    dim = int(round(np.sqrt(choi.shape[0])))
    w, v = np.linalg.eigh(hermitianize(choi))
    if w[0] < -max(tol, 1e-7):
        raise ValueError(f"choi matrix has negative eigenvalue {w[0]:.3e}")
    ops = []
    for lam, vec in zip(w, v.T):
        if lam <= drop:
            continue
        ops.append(np.sqrt(dim * lam) * vec.reshape(dim, dim).T)
    return tuple(ops)


def channel_from_kraus(ops: Sequence[np.ndarray] | np.ndarray, tol: float = DEFAULT_TOL) -> Channel:
    """Build a channel from Kraus operators (must be complete within tol):
    a list of (d, d) matrices or one (r, d, d) array, copied once.  The
    channel records that its Choi array is their Gram sum."""
    try:
        stack = np.array(ops, dtype=complex)
    except ValueError:  # ragged; the shapes below name the operator
        stack = None
    if stack is None or stack.ndim != 3 or not len(stack) or stack.shape[1] != stack.shape[2]:
        shapes = [np.asarray(k, dtype=complex).shape for k in ops]
        if not shapes:
            raise ValueError("need at least one Kraus operator")
        dim = shapes[0][0] if shapes[0] else 0
        shape = next(shape for shape in shapes if shape != (dim, dim))
        raise ValueError(f"kraus operator shape {shape} is not ({dim}, {dim})")
    choi = _Built(choi_stack_from_kraus(stack), _gram_bound(stack.shape, tol), gram=True)
    return Channel(choi, tol=tol, kraus=stack)


def _gram_bound(shape, tol: float) -> float:
    """Lower bound on the smallest eigenvalue of a Gram sum that
    ``choi_stack_from_kraus`` builds from Kraus lists of ``shape`` (...,
    r, d, d) and that passes the trace check: zero, less the rounding of
    its r terms and the ``_rounding`` room, on the scale tr J <= 1 + tol."""
    r, d = shape[-3], shape[-1]
    return -(r * _EPS * (1 + tol) + _rounding(d * d, 1 + tol))


def _validated_kraus_stack(ops: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``validate_choi_stack`` of the Choi arrays of a (..., r, d, d) stack
    of Kraus lists, which eigendecomposes none of them when their Gram
    bound clears the floor."""
    return _validated(choi_stack_from_kraus(ops), tol, ops, _gram_bound(ops.shape, tol))[0]


def unitary_channel(u: np.ndarray, tol: float = DEFAULT_TOL) -> Channel:
    """Conjugation by a unitary, validated through Kraus completeness."""
    return channel_from_kraus([u], tol=tol)


def _realign(m: np.ndarray, dim: int) -> np.ndarray:
    """Swap the middle two indices: ``out[(i,j),(k,l)] = m[(i,k),(j,l)]``."""
    return np.asarray(m).reshape(dim, dim, dim, dim).transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)


def choi_apply(m: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Images of one operator, or of a stack of them, under the map with
    Choi array ``m``: ``N(rho)[k,l] = d sum_ij rho[i,j] m[(i,k),(j,l)]``."""
    rhos = np.asarray(rhos)
    d = rhos.shape[-1]
    return (d * (rhos.reshape(-1, d * d) @ _realign(m, d))).reshape(rhos.shape)


def choi_measure(m: np.ndarray, projectors: ProjectorSet, sides: Sequence[int]) -> np.ndarray:
    """Apply a PVM's measure-and-reprepare map T_E to the listed sides of the
    Choi array ``m``, as ``dephase`` does for the basis.  Side 1 (T_E N) is
    ``sum_n tr_1[(I (x) E_n) m] (x) E_n / r_n``; side 0 (N T_E) is
    ``sum_n E_n^T / r_n (x) tr_0[(E_n^T (x) I) m]``."""
    d = projectors.dim
    e = np.stack(projectors.projectors).reshape(-1, d * d)
    e_t = e.reshape(-1, d, d).swapaxes(1, 2).reshape(-1, d * d)
    scaled = e / np.asarray(projectors.ranks, dtype=float)[:, None]
    # In the realigned frame r[(i,j),(k,l)], T_E acts on side 0 from the
    # left and on side 1 from the right.
    r = _realign(m, d)
    for side in sorted(set(sides)):
        if side == 0:
            r = e_t.T @ (scaled @ r)
        elif side == 1:
            r = (r @ e_t.T) @ scaled
        else:
            raise ValueError(f"side {side!r} is not 0 or 1")
    return _realign(r, d)


def apply(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """Apply a channel to an operator (any operator, not only states)."""
    rho = np.asarray(rho, dtype=complex)
    d = channel.dim
    if rho.shape != (d, d):
        raise ValueError(f"operator shape {rho.shape} does not match channel dim {d}")
    return choi_apply(channel.choi, rho)


def compose(a: Channel, b: Channel, tol: float = DEFAULT_TOL) -> Channel:
    """The channel ``a`` after ``b`` (``b`` acts first): ``a`` applied to
    b's realigned Choi array, the stack of images ``b(|i><j|) / d``."""
    if a.dim != b.dim:
        raise ValueError(f"cannot compose channels of dims {a.dim} and {b.dim}")
    d, n = a.dim, len(a.choi)
    images = choi_apply(a.choi, _realign(b.choi, d).reshape(-1, d, d))
    # J_ab >= -d (delta_a tr J_b+ + delta_b tr J_a+) I, where J+ = J + delta I
    # and tr J + 2 n delta bounds the nuclear norm; see the module docstring.
    (low_a, trace_a), (low_b, trace_b) = _bound_and_trace(a), _bound_and_trace(b)
    delta_a, delta_b = max(-low_a, 0.0), max(-low_b, 0.0)
    bound = -d * (delta_a * (trace_b + n * delta_b) + delta_b * (trace_a + n * delta_a))
    bound -= _rounding(n, d * (trace_a + 2 * n * delta_a) * (trace_b + 2 * n * delta_b))
    return Channel(_Built(_realign(images, d), bound), tol=tol)


def tensor(a: Channel, b: Channel, tol: float = DEFAULT_TOL) -> Channel:
    """Tensor product, ``a`` on the slow subsystem."""
    da, db = a.dim, b.dim
    x = np.kron(a.choi, b.choi)
    # Index order is (ref_a, out_a, ref_b, out_b) on both sides; regroup to
    # (ref_a, ref_b, out_a, out_b) so the result is again (reference, output).
    t = x.reshape(da, da, db, db, da, da, db, db)
    t = t.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    d = da * db
    # The product spectrum {l_a l_b}, with each factor's eigenvalues within
    # [l, tr J - (n - 1) l], is smallest at a corner of that box; the
    # nuclear norm is at most tr J - 2 n min(l, 0).
    ends, nuclear = [], 1.0
    for c in (a, b):
        (low, trace), n = _bound_and_trace(c), len(c.choi)
        ends.append((low, trace - (n - 1) * low))
        nuclear *= trace - 2 * n * min(low, 0.0)
    bound = min(x * y for x in ends[0] for y in ends[1]) - _rounding(d * d, nuclear)
    return Channel(_Built(t.reshape(d * d, d * d), bound), tol=tol)


def channel_partial_trace(o: Channel, dims: Sequence[int], keep: int, tol: float = DEFAULT_TOL) -> Channel:
    """Reduced channel on one tensor factor of a bipartite channel.

    For ``keep == 0`` this is ``rho -> tr_1( O(rho (x) I/d1) )``; the Choi
    state of the reduced channel is exactly the partial trace of the Choi
    state of ``O`` over the discarded reference and output factors.
    """
    da, db = (int(d) for d in dims)
    if da * db != o.dim:
        raise ValueError(f"dims {dims} do not factor channel dim {o.dim}")
    if keep not in (0, 1):
        raise ValueError(f"keep must be 0 or 1, got {keep!r}")
    full_dims = [da, db, da, db]  # (ref_a, ref_b, out_a, out_b)
    positions = (0, 2) if keep == 0 else (1, 3)
    reduced = partial_trace(o.choi, full_dims, positions)
    return Channel(reduced, tol=tol)


def identity_channel(dim: int) -> Channel:
    return channel_from_kraus([np.eye(dim, dtype=complex)])


def dephasing(dim: int) -> Channel:
    """The completely dephasing channel in the computational basis."""
    eye = np.eye(dim, dtype=complex)
    return channel_from_kraus([np.outer(eye[i], eye[i]) for i in range(dim)])


def mix(channels: Sequence[Channel], weights: Sequence[float], tol: float = DEFAULT_TOL) -> Channel:
    """Convex combination of channels (mixture of their Choi states)."""
    weights = np.asarray(weights, dtype=float)
    if len(channels) != len(weights) or len(channels) == 0:
        raise ValueError("need matching, nonempty channels and weights")
    if np.any(weights < -DEFAULT_TOL) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights {weights} are not a probability vector")
    dim = channels[0].dim
    if any(c.dim != dim for c in channels):
        raise ValueError("all mixed channels must share a dimension")
    choi = sum(w * c.choi for w, c in zip(weights, channels))
    return Channel(choi, tol=tol)


class ProjectorSet(_Immutable):
    """A complete set of mutually orthogonal projectors (a PVM).

    Validates, within ``tol``: each element Hermitian and idempotent, pairwise
    products zero, and the set summing to the identity.
    """

    __slots__ = ("projectors", "dim", "ranks")

    def __init__(self, projectors: Sequence[np.ndarray], tol: float = DEFAULT_TOL):
        ops = tuple(np.asarray(p, dtype=complex) for p in projectors)
        if not ops:
            raise ValueError("a projector set needs at least one element")
        dim = ops[0].shape[0] if ops[0].ndim else 0
        for idx, p in enumerate(ops):
            if p.shape != (dim, dim):
                raise ValueError(f"projector {idx} has shape {p.shape}, expected ({dim}, {dim})")
            if not is_hermitian(p, tol):
                raise ValueError(f"projector {idx} is not Hermitian within tol={tol:g}")
            if float(np.max(np.abs(p @ p - p))) > tol * 10:
                raise ValueError(f"projector {idx} is not idempotent within tol")
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if float(np.max(np.abs(ops[i] @ ops[j]))) > tol * 10:
                    raise ValueError(f"projectors {i} and {j} are not orthogonal within tol")
        if float(np.max(np.abs(sum(ops) - np.eye(dim)))) > tol * 10:
            raise ValueError("projectors do not sum to the identity within tol")
        object.__setattr__(self, "projectors", ops)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ranks", tuple(int(round(float(np.real(np.trace(p))))) for p in ops))

    def __len__(self):
        return len(self.projectors)

    def __iter__(self):
        return iter(self.projectors)

    def __repr__(self):
        return f"ProjectorSet(dim={self.dim}, ranks={self.ranks})"


def basis_pvm(dim: int) -> ProjectorSet:
    eye = np.eye(dim, dtype=complex)
    return ProjectorSet([np.outer(eye[i], eye[i]) for i in range(dim)])


def te_channel(projectors: ProjectorSet | Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> Channel:
    """Measure-and-reprepare channel of a PVM.

    ``T_E(rho) = sum_n tr(rho E_n) E_n / tr(E_n)``: measure the PVM, then
    output the normalized projector of the observed outcome.  Its Choi
    state is ``sum_n E_n^T (x) E_n / (tr(E_n) d)``.
    """
    if not isinstance(projectors, ProjectorSet):
        projectors = ProjectorSet(projectors, tol=tol)
    d = projectors.dim
    return Channel(sum(np.kron(p.T, p) / (r * d) for p, r in zip(projectors.projectors, projectors.ranks)), tol=tol)


def block_dephasing(projectors: ProjectorSet | Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> Channel:
    """Pinching map of a PVM: ``rho -> sum_n E_n rho E_n``."""
    if not isinstance(projectors, ProjectorSet):
        projectors = ProjectorSet(projectors, tol=tol)
    return channel_from_kraus(list(projectors.projectors), tol=tol)


def pauli_channel_T(index: int, n: int, tol: float = DEFAULT_TOL) -> Channel:
    """Measure-and-reprepare channel of a single Pauli-string observable.

    For a non-identity string P, measuring the eigenspace projectors
    (I +- P)/2 and repreparing the normalized outcome projector is
    ``rho -> (tr(rho) I + tr(P rho) P) / 2^n``, with Choi state
    ``(I (x) I + P^T (x) P) / 4^n``.  Index 0 (the identity string) has a
    single trivial outcome, which makes it the completely depolarizing map
    ``rho -> tr(rho) I / 2^n`` with Choi state ``I (x) I / 4^n``.
    """
    d, p = 2**n, pauli_matrix(index, n)
    choi = np.eye(d * d, dtype=complex)  # I (x) I
    if index != 0:
        choi = choi + np.kron(p.T, p)
    return Channel(choi / d**2, tol=tol)


def interpolation_unitary(theta) -> np.ndarray:
    """The Hermitian unitary ``cos(theta) Z + sin(theta) X``; for an array
    of theta, the stack of them, shape (n, 2, 2)."""
    theta = np.asarray(theta)[..., None, None]
    return np.cos(theta) * PAULI_Z + np.sin(theta) * PAULI_X


_CCX = np.eye(8, dtype=complex)
_CCX[[6, 7]] = _CCX[[7, 6]]

_FIXED_GATES = {
    "I": PAULI_I,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "H": HADAMARD,
    "S": PHASE_S,
    "T": np.diag([1.0, np.exp(1j * np.pi / 4)]),
    "CNOT": CNOT_01,
    "CCX": _CCX,
}


def gate_matrix(name: str, theta: float | None = None) -> np.ndarray:
    """Unitary matrix of a named gate.

    Fixed gates: I, X, Y, Z, H, S, T, CNOT, CCX.  Parametric gates need
    ``theta``: RZ (diag(e^{-i t/2}, e^{+i t/2})), RX (exp(-i t X / 2)), and
    U, the interpolation family cos(t) Z + sin(t) X.
    """
    key = name.strip().upper()
    if key in _FIXED_GATES:
        if theta is not None:
            raise ValueError(f"gate {key} takes no parameter")
        return _FIXED_GATES[key].copy()
    if key in ("RZ", "RX", "U"):
        if theta is None:
            raise ValueError(f"gate {key} needs a theta parameter")
        theta = float(theta)
        if key == "RZ":
            return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        if key == "RX":
            return np.cos(theta / 2) * PAULI_I - 1j * np.sin(theta / 2) * PAULI_X
        return interpolation_unitary(theta)
    raise ValueError(f"unknown gate {name!r}")


def named_gate(name: str, theta: float | None = None, tol: float = DEFAULT_TOL) -> Channel:
    """Unitary channel of a named gate; see ``gate_matrix`` for the table."""
    return unitary_channel(gate_matrix(name, theta), tol=tol)


def random_channel(dim: int, rank: int | None = None, seed=None, tol: float = DEFAULT_TOL) -> Channel:
    """Sample a random channel from the trace-normalized Wishart ensemble.

    Draws a complex Gaussian ``G`` of shape (d^2, rank), forms ``X = G G†``
    and conjugates by ``R^{-1/2} (x) I`` with ``R = d * tr_out(X)``, which
    enforces the uniform reference marginal exactly.  Deterministic per seed.
    """
    return Channel(_random_choi(dim, rank, seed), tol=tol)


def _random_choi(dim: int, rank: int | None, seed) -> np.ndarray:
    """``random_channel``'s Choi array, not validated."""
    dim = int(dim)
    rank = dim * dim if rank is None else int(rank)
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim * dim, rank)) + 1j * rng.normal(size=(dim * dim, rank))
    x = g @ g.conj().T
    r = dim * partial_trace(x, [dim, dim], 0)
    w, v = np.linalg.eigh(hermitianize(r))
    if w[0] <= 1e-12:
        raise ValueError("degenerate sample: reference marginal not invertible")
    r_isqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    a = kron(r_isqrt, np.eye(dim))
    return hermitianize(a @ x @ a)


def choi_max_diff(a: Channel, b: Channel) -> float:
    """Largest entrywise deviation between two channels' Choi states."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.max(np.abs(a.choi - b.choi)))


def choi_dephase_output(choi: np.ndarray, dim: int) -> np.ndarray:
    """Apply the output-side dephasing to a Choi state (zero k != l blocks)."""
    return dephase(choi, [dim, dim], (1,))


def choi_output_blocks(m: np.ndarray, dim: int) -> np.ndarray:
    """The stack of output blocks ``B_k[i, j] = m[i*d + k, j*d + k]``, of a
    Choi array or of each of a stack of them (shape (..., d, d, d))."""
    m = np.asarray(m)
    return np.einsum("...ikjk->...kij", m.reshape(*m.shape[:-2], dim, dim, dim, dim))


def choi_from_output_blocks(stack: np.ndarray) -> np.ndarray:
    """The inverse of ``choi_output_blocks`` on output-dephased arrays:
    sum_k stack[..., k, :, :] (x) |k><k| for a (..., d, d, d) stack."""
    d = stack.shape[-3]
    blocks = np.einsum("...kij,kl->...ikjl", stack, np.eye(d))
    return blocks.reshape(*stack.shape[:-3], d * d, d * d)
