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

A matrix (or a whole ``operators`` list) is read as one numpy array of
int64, uint64 or float64 numbers, ``[re, im]`` on its last axis, each pair
becoming ``complex(re, im)`` bit for bit.  ``--tol`` must be finite and
nonnegative.  Exit codes: 0 success, 2 unparseable specification or
arguments (a malformed matrix, a bad ``theta`` or ``--points``, nesting too
deep), 3 channel invariant violation (also a spec above ``MAX_SPEC_DIM``),
4 solver failure.  On failure a single JSON diagnostic object is written to
stderr.
"""

import argparse
import json
import math
import sys
from functools import cache, reduce

import numpy as np

from . import __version__
from .channels import (
    Channel,
    channel_from_kraus,
    compose,
    gate_matrix,
    named_gate,
    tensor,
    unitary_channel,
)
from .cro import (
    eb_ppt_test,
    is_cqcro,
    is_dio,
    is_qccro,
    is_qqcro,
    vqa_replaceable_set_R,
)
from .game import _witness_game, payoff
from .linalg import DEFAULT_TOL
from .measures import (
    _robustness_stack,
    relative_entropy_irreplaceability,
    robustness,
)
from .paulis import pauli_index, pauli_label

SWEEP_FAMILY = "u-theta"
MAX_SPEC_DIM = 32  # largest channel dimension a spec may describe
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


def _check_spec_dim(dim, where):
    if dim > MAX_SPEC_DIM:
        raise ValueError(f"{where}: dimension {dim} exceeds the limit of {MAX_SPEC_DIM}")


def _expect_dim(node, where):
    dim = node.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise SpecError(f"{where}: 'dim' must be a positive integer")
    _check_spec_dim(dim, where)
    return dim


def _parse_children(node, where, tol, minimum):
    children = node.get("children")
    if not isinstance(children, list) or len(children) < minimum:
        raise SpecError(
            f"{where}: 'children' must be an array of at least {minimum} specs"
        )
    return [
        _parse_spec_node(child, f"{where}.children[{k}]", tol)
        for k, child in enumerate(children)
    ]


def _parse_spec_node(node, where, tol):
    if not isinstance(node, dict):
        raise SpecError(f"{where}: expected an object")
    kind = node.get("kind")
    if kind == "kraus":
        dim = _expect_dim(node, where)
        ops = _as_complex_array(node.get("operators"), f"{where}.operators", 3)
        if ops.shape[1:] != (dim, dim):
            raise SpecError(f"{where}.operators: shape {ops.shape[1:]} does not match dim {dim}")
        return channel_from_kraus(ops, tol=tol)
    if kind == "choi":
        dim = _expect_dim(node, where)
        matrix = _as_complex_array(node.get("matrix"), f"{where}.matrix", 2)
        if matrix.shape != (dim * dim, dim * dim):
            raise SpecError(
                f"{where}.matrix: shape {matrix.shape} does not match "
                f"dim {dim} (need {dim * dim}x{dim * dim})"
            )
        return Channel(matrix, tol=tol)
    if kind == "gate":
        name = node.get("name")
        if not isinstance(name, str):
            raise SpecError(f"{where}: gate 'name' must be a string")
        params = node.get("params", {})
        if not isinstance(params, dict):
            raise SpecError(f"{where}: 'params' must be an object")
        theta = params.get("theta")
        # False for NaN, infinities and ints beyond the float range alike.
        finite = isinstance(theta, (int, float)) and abs(theta) <= sys.float_info.max
        if theta is not None and not finite:
            raise SpecError(f"{where}: 'theta' must be a finite number")
        try:
            u = gate_matrix(name, theta)
        except ValueError as exc:
            raise SpecError(f"{where}: {exc}") from exc
        return unitary_channel(u, tol=tol)
    if kind == "composition":
        children = _parse_children(node, where, tol, minimum=1)
        return reduce(lambda acc, nxt: compose(nxt, acc, tol=tol), children)
    if kind == "tensor":
        children = _parse_children(node, where, tol, minimum=2)
        _check_spec_dim(math.prod(c.dim for c in children), where)
        return reduce(lambda acc, nxt: tensor(acc, nxt, tol=tol), children)
    raise SpecError(
        f"{where}: unknown kind {kind!r} (expected kraus, choi, gate, "
        f"composition, or tensor)"
    )


def load_channel(path, tol):
    try:
        try:
            with open(path, encoding="utf-8") as handle:
                node = json.load(handle)
        except OSError as exc:
            raise SpecError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path} is not valid JSON: {exc}") from exc
        return _parse_spec_node(node, path, tol)
    except RecursionError as exc:  # from the JSON decoder or the spec walk
        raise SpecError(f"{path}: specification nested too deeply") from exc


def _verdict_entry(verdict):
    return {"member": bool(verdict.is_member), "residual": float(verdict.residual)}


def _classify(channel, args):
    verdicts = {
        "cqcro": is_cqcro(channel, args.tol),
        "qqcro": is_qqcro(channel, args.tol),
        "qccro": is_qccro(channel, args.tol),
        "dio": is_dio(channel, args.tol),
    }
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


def _sweep(args):
    if args.family != SWEEP_FAMILY:
        raise SpecError(
            f"unknown sweep family {args.family!r} (only {SWEEP_FAMILY!r})"
        )
    if not 2 <= args.points <= MAX_SWEEP_POINTS:
        raise SpecError(f"--points must be between 2 and {MAX_SWEEP_POINTS}, got {args.points}")
    thetas = np.linspace(0.0, np.pi / 2, args.points)
    channels = [named_gate("U", theta) for theta in thetas]
    lines = ["theta,robustness,relative_entropy_bits,note"]
    for theta, channel, result in zip(thetas, channels, _robustness_stack(channels)):
        if isinstance(result, RuntimeError):
            value = entropy = float("nan")
            note = str(result)
        else:
            value = result.value
            entropy = relative_entropy_irreplaceability(channel)
            note = ""
        lines.append(f"{theta:.12g},{value:.12g},{entropy:.12g},{note}")
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
