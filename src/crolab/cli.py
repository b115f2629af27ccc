"""Command-line surface: classify channels, compute measures, run sweeps.

Channel specifications are JSON files.  Complex numbers are written as
``[re, im]`` pairs and matrices as row-major nested arrays.  Supported kinds:

- ``{"kind": "kraus", "dim": d, "operators": [matrix, ...]}``
- ``{"kind": "choi", "dim": d, "matrix": matrix}`` (trace-one convention)
- ``{"kind": "gate", "name": "H"}`` or ``{"kind": "gate", "name": "U",
  "params": {"theta": 0.785}}`` (``theta`` a finite number)
- ``{"kind": "composition", "children": [spec, ...]}`` (first child acts
  first)
- ``{"kind": "tensor", "children": [spec, ...]}``

A subtree whose leaves are all ``kraus`` or ``gate`` specs loads as one
stack of Kraus operators while it holds at most d of them: compositions
multiply the operators (the later child's on the left) and tensors take
their Kronecker products (the first child's factor slow).  Each such leaf
below a composition or tensor is checked for completeness at ``--tol``,
and the product for every ``Channel`` invariant once, when it becomes a
channel.  A subtree with a ``choi`` leaf, or a node whose product would
hold more operators, builds a ``Channel`` per child and joins them with
``compose`` or ``tensor``.

A matrix (or a whole ``operators`` list) is read as one numpy array of
int64, uint64 or float64 numbers, ``[re, im]`` on its last axis, each pair
becoming ``complex(re, im)`` bit for bit.  ``--tol`` must be finite and
nonnegative.  Exit codes: 0 success, 2 unparseable specification or
arguments (a malformed matrix, a bad ``theta`` or ``--points``, nesting too
deep, a ``dim`` or ``theta`` that is a JSON boolean), 3 channel invariant
violation (also a spec above ``channels.MAX_DIM`` = 32, or one whose
loading would cost more than ``MAX_SPEC_WORK``, both refused before any
matrix is decoded), 4 solver failure.  Every command accepts every spec
that loads (``vqa-check`` up to five qubits).  On failure a single JSON
diagnostic object is written to stderr.
"""

import argparse
import json
import math
import operator
import sys
from functools import cache, reduce
from itertools import accumulate

import numpy as np

from . import __version__
from .channels import (
    MAX_DIM,
    Channel,
    _completeness_deviation,
    _validated_kraus_stack,
    channel_from_kraus,
    check_dim,
    compose,
    gate_matrix,
    interpolation_unitary,
    tensor,
)
from .cro import _masked_verdicts, eb_ppt_test, vqa_replaceable_set_R
from .game import _witness_game, payoff
from .linalg import DEFAULT_TOL
from .measures import (
    _entropy_gaps,
    _solve_chois,
    relative_entropy_irreplaceability,
    robustness,
)
from .paulis import pauli_index, pauli_label

SWEEP_FAMILY = "u-theta"
# Building or composing a channel of dimension d takes about d^6 operations:
# a product of d^2 x d^2 matrices, or the eigendecomposition that checks a
# Choi leaf, or a tensor or composition whose positivity bound misses the
# floor (channels.py).  A spec may cost as much as eight channels of the
# largest dimension (about 2 s on one core).
MAX_SPEC_WORK = 8 * MAX_DIM**6
MAX_SWEEP_POINTS = 10_000


class SpecError(Exception):
    """A channel specification file that cannot be interpreted."""


def _as_complex_array(node, where, ndim):
    """Nested ``[re, im]`` number pairs as a complex array of ``ndim`` axes."""
    try:
        pairs = np.array(node)
    except ValueError as exc:
        raise SpecError(f"{where}: ragged nested array") from exc
    if pairs.dtype.kind not in "iuf" or pairs.ndim != ndim + 1 or pairs.shape[-1] != 2:
        raise SpecError(f"{where}: expected a {ndim}-axis array of [re, im] number pairs")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def _gate_unitary(node, where):
    name = node.get("name")
    if not isinstance(name, str):
        raise SpecError(f"{where}: gate 'name' must be a string")
    params = node.get("params", {})
    if not isinstance(params, dict):
        raise SpecError(f"{where}: 'params' must be an object")
    theta = params.get("theta")
    # False for booleans, NaN, infinities and ints beyond the float range.
    finite = (
        isinstance(theta, (int, float))
        and not isinstance(theta, bool)
        and abs(theta) <= sys.float_info.max
    )
    if theta is not None and not finite:
        raise SpecError(f"{where}: 'theta' must be a finite number")
    try:
        return gate_matrix(name, theta)
    except ValueError as exc:
        raise SpecError(f"{where}: {exc}") from exc


def _spec_work(node, where):
    """(dimension, work) of a spec node, read from its kinds, dims, gate
    names and children alone, with every check that needs no matrix.

    The work sums d^6 over the channels that loading builds: each leaf,
    each composition step and each partial tensor product.  d^6 bounds such
    a node on either path: as channels, or as a Kraus product of at most d
    operators, whose steps and whose Choi array cost at most d^5 each.
    """
    if not isinstance(node, dict):
        raise SpecError(f"{where}: expected an object")
    kind = node.get("kind")
    if kind in ("kraus", "choi"):
        dim = node.get("dim")
        # bool is an int subclass, but JSON true is not a dimension
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise SpecError(f"{where}: 'dim' must be a positive integer")
        check_dim(dim, where)
        return dim, dim**6
    if kind == "gate":
        dim = len(_gate_unitary(node, where))
        return dim, dim**6
    if kind in ("composition", "tensor"):
        minimum = 1 if kind == "composition" else 2
        children = node.get("children")
        if not isinstance(children, list) or len(children) < minimum:
            raise SpecError(
                f"{where}: 'children' must be an array of at least {minimum} specs"
            )
        dims, works = zip(
            *(_spec_work(child, f"{where}.children[{k}]") for k, child in enumerate(children))
        )
        if kind == "composition":
            return dims[0], sum(works) + (len(dims) - 1) * max(dims) ** 6
        products = list(accumulate(dims, operator.mul))[1:]
        check_dim(products[-1], where)
        return products[-1], sum(works) + sum(d**6 for d in products)
    raise SpecError(
        f"{where}: unknown kind {kind!r} (expected kraus, choi, gate, "
        f"composition, or tensor)"
    )


def _parse_spec_node(node, where, tol):
    """The channel of a spec node that ``_spec_work`` has checked."""
    loaded = _load_node(node, where, tol)
    return loaded if isinstance(loaded, Channel) else channel_from_kraus(loaded, tol=tol)


def _load_node(node, where, tol):
    """A spec node as a ``Channel``, or as an unchecked (r, d, d) Kraus
    stack: for a ``kraus`` or ``gate`` leaf, and for a composition or
    tensor of such stacks whose product holds at most d operators.

    A stack is checked above it: a composition or tensor checks each leaf
    child's completeness as soon as it is loaded, and a stack gets every
    ``Channel`` check where a parent or the root makes it a channel.
    """
    kind = node["kind"]
    if kind == "kraus":
        dim = node["dim"]
        ops = _as_complex_array(node.get("operators"), f"{where}.operators", 3)
        if ops.shape[1:] != (dim, dim):
            raise SpecError(f"{where}.operators: shape {ops.shape[1:]} does not match dim {dim}")
        return ops
    if kind == "gate":
        return np.asarray(_gate_unitary(node, where), dtype=complex)[None]
    if kind == "choi":
        dim = node["dim"]
        matrix = _as_complex_array(node.get("matrix"), f"{where}.matrix", 2)
        if matrix.shape != (dim * dim, dim * dim):
            raise SpecError(
                f"{where}.matrix: shape {matrix.shape} does not match "
                f"dim {dim} (need {dim * dim}x{dim * dim})"
            )
        return Channel(matrix, tol=tol)
    parts = []
    for k, child in enumerate(node["children"]):
        part = _load_node(child, f"{where}.children[{k}]", tol)
        # A Kraus leaf is checked for completeness alone; one that fails gets
        # its channel built, whose checks raise the leaf's own message.
        if child["kind"] in ("kraus", "gate") and not _completeness_deviation(part) <= tol:
            channel_from_kraus(part, tol=tol)
        parts.append(part)
    if all(isinstance(part, np.ndarray) for part in parts):
        dims = [part.shape[-1] for part in parts]
        dim = math.prod(dims) if kind == "tensor" else dims[0]
        count = math.prod(len(part) for part in parts)
        # A product's Choi array costs count * d^4 steps, against about d^4
        # for a tensor of channels: at most d operators keep it within a few
        # times that (at d^2, five 4-operator qubit channels took 90 times as
        # long).  Children of different dimensions reach compose, which
        # refuses them.
        if (kind == "tensor" or len(set(dims)) == 1) and count <= dim:
            return _kraus_product(kind, parts)
    children = [
        part if isinstance(part, Channel) else channel_from_kraus(part, tol=tol) for part in parts
    ]
    if kind == "composition":
        return reduce(lambda acc, nxt: compose(nxt, acc, tol=tol), children)
    return reduce(lambda acc, nxt: tensor(acc, nxt, tol=tol), children)


def _kraus_product(kind, stacks):
    """The Kraus stack of a composition of (r, d, d) stacks, the later
    child's operator on the left, or of their tensor product, the first
    child's factor slow; each later child's index runs fastest."""
    def step(acc, nxt):
        if kind == "composition":
            return (nxt[None] @ acc[:, None]).reshape(-1, *acc.shape[1:])
        d = acc.shape[-1] * nxt.shape[-1]
        return np.einsum("aij,bkl->abikjl", acc, nxt).reshape(len(acc) * len(nxt), d, d)

    return reduce(step, stacks)


def load_channel(path, tol):
    try:
        try:
            with open(path, encoding="utf-8") as handle:
                node = json.load(handle)
        except OSError as exc:
            raise SpecError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path} is not valid JSON: {exc}") from exc
        _, work = _spec_work(node, path)
        if work > MAX_SPEC_WORK:
            unit = MAX_DIM**6
            raise ValueError(
                f"{path}: loading builds the work of {work / unit:.4g} channels of "
                f"dimension {MAX_DIM}, above the limit of {MAX_SPEC_WORK // unit}"
            )
        # Validation refuses non-finite entries with its own message; the
        # arithmetic before it would print numpy warnings to stderr first.
        with np.errstate(all="ignore"):
            return _parse_spec_node(node, path, tol)
    except RecursionError as exc:  # from the JSON decoder or the spec walk
        raise SpecError(f"{path}: specification nested too deeply") from exc


def _verdict_entry(verdict):
    return {"member": bool(verdict.is_member), "residual": float(verdict.residual)}


def _classify(channel, args):
    # is_cqcro, is_qqcro, is_qccro and is_dio in one pass over the masks,
    # without the witnesses that the report leaves out
    kinds = {"cqcro": "cq", "qqcro": "qq", "qccro": "qc", "dio": "dio"}
    found = _masked_verdicts(channel.choi, channel.dim, tuple(kinds.values()), args.tol)
    verdicts = {key: found[kind] for key, kind in kinds.items()}
    replacement = None
    for verdict in verdicts.values():
        if verdict.is_member and verdict.replacement is not None:
            replacement = [[float(x) for x in row] for row in verdict.replacement]
            break
    eb = eb_ppt_test(channel, args.tol)
    report = {k: _verdict_entry(v) for k, v in verdicts.items()}
    report["eb_ppt"] = {"status": eb.status, "min_eigenvalue": float(eb.min_eigenvalue)}
    report["replacement"] = replacement
    return report


def _measures(channel, args):
    result = robustness(channel)
    return {
        "robustness": result.value,
        "relative_entropy_bits": relative_entropy_irreplaceability(channel),
        "witness_trace_check": result.residuals["witness_pairing"],
    }


def _sweep_grid(points, tol):
    """The u-theta grid and, per point, its robustness, entropy measure in
    bits and note, as lists.

    The grid's unitaries, Choi arrays, validation (at ``tol``), solve and
    entropies are one stack each.  A point whose solve fails has NaN values
    and the failure's message as its note; the others have an empty note.
    """
    thetas = np.linspace(0.0, np.pi / 2, points)
    kraus = interpolation_unitary(thetas)[:, None]
    chois = _validated_kraus_stack(kraus, tol)
    upper, _, _, _, failures = _solve_chois(chois)
    nan = float("nan")
    values, entropies, notes = [], [], []
    for value, entropy, failure in zip(upper.tolist(), _entropy_gaps(chois), failures):
        values.append(nan if failure else value)
        entropies.append(nan if failure else entropy)
        notes.append(failure or "")
    return thetas.tolist(), values, entropies, notes


def _sweep(args):
    if args.family != SWEEP_FAMILY:
        raise SpecError(
            f"unknown sweep family {args.family!r} (only {SWEEP_FAMILY!r})"
        )
    if not 2 <= args.points <= MAX_SWEEP_POINTS:
        raise SpecError(f"--points must be between 2 and {MAX_SWEEP_POINTS}, got {args.points}")
    lines = ["theta,robustness,relative_entropy_bits,note"]
    for row in zip(*_sweep_grid(args.points, args.tol)):
        lines.append("{:.12g},{:.12g},{:.12g},{}".format(*row))
    return "\n".join(lines) + "\n"


def _game(channel, args):
    game, result = _witness_game(channel)
    score = payoff(channel, game)
    qccro_max = game.normalization["max"]
    ratio = score / qccro_max
    one_plus_r = 1.0 + result.value
    return {
        "payoff": score,
        "qccro_max": qccro_max,
        "qccro_min": game.normalization["min"],
        "advantage_ratio": ratio,
        "one_plus_R": one_plus_r,
        "gap": abs(ratio - one_plus_r),
    }


def _vqa_check(channel, args):
    n = max(channel.dim.bit_length() - 1, 1)
    indices = []
    for label in args.observables:
        try:
            indices.append(pauli_index(label))
        except ValueError as exc:
            raise SpecError(f"observable {label!r}: {exc}") from exc
        if len(label.strip()) != n:
            raise SpecError(f"observable {label!r}: expected {n} letters")
    member, j = vqa_replaceable_set_R(channel, indices, tol=args.tol)
    return {
        "member": member,
        "replacing_pauli_j": pauli_label(j, n) if member else None,
    }


def _run(args):
    """Report text: a sweep's CSV, or the JSON header and the command's fields."""
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise SpecError(f"--tol must be finite and nonnegative, got {args.tol}")
    if args.command == "sweep":
        return args.handler(args)
    report = {"tool": "crolab", "version": __version__, "tolerance": args.tol}
    report.update(args.handler(load_channel(args.spec, args.tol), args))
    return json.dumps(report, indent=2) + "\n"


@cache
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="membership and validation tolerance (default %(default)g)",
    )
    common.add_argument(
        "--out",
        default=None,
        help="write the report to this path instead of stdout",
    )

    parser = argparse.ArgumentParser(
        prog="crolab",
        description="Classify quantum operations by classical replaceability "
        "and quantify irreplaceability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "classify": (_classify, "membership in the four replaceability classes"),
        "measures": (_measures, "robustness and relative-entropy measures"),
        "sweep": (_sweep, "CSV sweep of both measures over a gate family"),
        "game": (_game, "witness game construction and advantage check"),
        "vqa-check": (
            _vqa_check,
            "replaceability before a fixed Pauli-observable measurement",
        ),
    }
    parsers = {}
    for name, (handler, summary) in commands.items():
        parsers[name] = p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(handler=handler)
        if name != "sweep":
            p.add_argument("spec", help="channel specification JSON file")
    parsers["sweep"].add_argument("family", help=f"family name (only {SWEEP_FAMILY!r})")
    parsers["sweep"].add_argument(
        "--points",
        type=int,
        default=50,
        help="number of grid points (default %(default)s)",
    )
    parsers["vqa-check"].add_argument(
        "observables",
        nargs="+",
        metavar="PAULI",
        help="Pauli string labels such as Z, XX, ZZZ",
    )
    return parser


def _diagnostic(kind, message):
    sys.stderr.write(json.dumps({"kind": kind, "error": message}) + "\n")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        text = _run(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        return 0
    except SpecError as exc:
        _diagnostic("parse", str(exc))
        return 2
    except ValueError as exc:
        _diagnostic("invalid-channel", str(exc))
        return 3
    except RuntimeError as exc:
        _diagnostic("solver", str(exc))
        return 4
    except OSError as exc:
        _diagnostic("io", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
