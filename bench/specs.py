"""The benchmark's inputs: channel specs, built with numpy, and the rounds.

A workload is a fixed list of CLI commands (one *round*) on spec files that
this module writes.  ``--seed`` draws an incoherent relabelling (a random
permutation times random phases, on the input and on the output side) of
fixed base channels.  Relabelling commutes with the dephasing, so every
quantity the checks compare (memberships, robustness, entropy measure,
advantage identity) keeps its value, and the solver takes the same path up
to rounding: the seed changes the matrices crolab reads, not the cost or the
expected answers.  Gate specs have no matrix to relabel and stay as they are.

Each spec node carries its Kraus operators, from which ``oracle`` derives
the expected answers, and, where the check needs one, an independent
robustness reference: a closed form for qubit unitaries (and their extension
by identities) or the certified interval stored in ``reference_d4.json``.
"""

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import oracle

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_d4.json"

SWEEP_POINTS = 50  # the sweep-u-theta grid
PROBE_POINTS = 9  # the sweep that the other workloads run
# A probe command of a few milliseconds sees the machine's fast and slow
# moments one at a time, so probes repeat within a round until a run holds
# some tens of samples of each.

_CCX = np.eye(8, dtype=complex)
_CCX[[6, 7]] = _CCX[[7, 6]]
GATES = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    "CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
    "CCX": _CCX,
}


def u_theta(theta):
    return np.cos(theta) * oracle.PAULIS[3] + np.sin(theta) * oracle.PAULIS[1]


@dataclass(frozen=True)
class Node:
    """A spec as crolab reads it, with the Kraus operators it stands for.

    ``r_ref`` is ``(lower, upper)`` on the robustness, or None when no
    command on this spec reports it.
    """

    spec: dict
    kraus: tuple
    r_ref: tuple | None = None

    @property
    def dim(self):
        return self.kraus[0].shape[0]

    @property
    def choi(self):
        return oracle.choi_from_kraus(self.kraus)


@dataclass(frozen=True)
class Command:
    """One CLI command of a round: ``crolab <kind> <spec> <args...>``."""

    kind: str
    spec: str | None = None
    args: tuple = field(default_factory=tuple)

    def argv(self, spec_dir, out_path):
        head = [self.kind]
        if self.spec is not None:
            head.append(str(spec_dir / self.spec))
        return head + list(self.args) + ["--out", str(out_path)]


# ------------------------------------------------------------ spec nodes


def encode(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def decode(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def gate(name, theta=None):
    if theta is None:
        return Node({"kind": "gate", "name": name}, (GATES[name],))
    return Node(
        {"kind": "gate", "name": name, "params": {"theta": theta}},
        (u_theta(theta),),
    )


def kraus(ops):
    ops = tuple(np.asarray(k, dtype=complex) for k in ops)
    spec = {"kind": "kraus", "dim": ops[0].shape[0], "operators": [encode(k) for k in ops]}
    return Node(spec, ops)


def choi(matrix):
    d = int(round(np.sqrt(matrix.shape[0])))
    return Node(
        {"kind": "choi", "dim": d, "matrix": encode(matrix)},
        tuple(oracle.kraus_from_choi(matrix)),
    )


def composition(*children):
    """First child acts first."""
    ops = (np.eye(children[0].dim, dtype=complex),)
    for child in children:
        ops = tuple(k @ o for k in child.kraus for o in ops)
    return Node({"kind": "composition", "children": [c.spec for c in children]}, ops)


def tensor(*children):
    ops = (np.ones((1, 1), dtype=complex),)
    for child in children:
        ops = tuple(np.kron(o, k) for o in ops for k in child.kraus)
    return Node({"kind": "tensor", "children": [c.spec for c in children]}, ops)


def with_ref(node, lower, upper=None):
    return replace(node, r_ref=(lower, lower if upper is None else upper))


def qubit_unitary_ref(node, u):
    """Closed-form reference for a qubit unitary, extended by identities."""
    return with_ref(node, oracle.qubit_unitary_robustness(u))


# -------------------------------------------------------- random inputs


def random_kraus(d, rank, rng):
    g = rng.normal(size=(rank * d, d)) + 1j * rng.normal(size=(rank * d, d))
    w, v = np.linalg.eigh(g.conj().T @ g)
    q = g @ (v / np.sqrt(w)) @ v.conj().T
    return tuple(q.reshape(rank, d, d))


def random_unitary(d, rng):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def incoherent_unitary(d, rng):
    return np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))


def relabel(node, rng):
    """The node conjugated by seeded incoherent unitaries; same answers."""
    kind = node.spec["kind"]
    if kind == "gate":
        return node
    d = node.dim
    if kind == "tensor":
        children = [relabel(_child(c), rng) for c in node.spec["children"]]
        return replace(tensor(*children), r_ref=node.r_ref)
    v_in, v_out = incoherent_unitary(d, rng), incoherent_unitary(d, rng)
    if kind == "composition":
        children = [_child(c) for c in node.spec["children"]]
        new = composition(kraus([v_in]), *children, kraus([v_out]))
    elif kind == "kraus":
        new = kraus([v_out @ k @ v_in for k in node.kraus])
    else:
        w = np.kron(v_in.T, v_out)
        new = choi(w @ decode(node.spec["matrix"]) @ w.conj().T)
    return replace(new, r_ref=node.r_ref)


def _child(spec):
    """Rebuild a child node from its spec (children of stored nodes)."""
    kind = spec["kind"]
    if kind == "gate":
        theta = spec.get("params", {}).get("theta")
        return gate(spec["name"], theta)
    if kind == "kraus":
        return kraus([decode(k) for k in spec["operators"]])
    if kind == "choi":
        return choi(decode(spec["matrix"]))
    children = [_child(c) for c in spec["children"]]
    return composition(*children) if kind == "composition" else tensor(*children)


# ------------------------------------------------------------ d=4 inputs


def witness_bases():
    """The d=4 base channels of ``witness-game``, one per spec kind.

    Drawn from fixed seeds by ``reference.py``, which stores them in
    ``reference_d4.json`` with their robustness intervals.  Runs read the
    stored specs, so the inputs do not hang on the last bits of LAPACK.
    """
    rng = np.random.default_rng
    return {
        "gate": gate("CNOT"),
        "kraus": kraus(random_kraus(4, 2, rng(401))),
        "choi": choi(oracle.choi_from_kraus(random_kraus(4, 16, rng(402)))),
        "composition": composition(kraus([random_unitary(4, rng(403))]), gate("CNOT")),
        "tensor": tensor(gate("H"), kraus(random_kraus(2, 2, rng(404)))),
    }


def load_reference():
    """The stored d=4 inputs, each with its certified robustness interval."""
    stored = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {
        name: with_ref(_child(entry["spec"]), entry["lower"], entry["upper"])
        for name, entry in stored["inputs"].items()
    }


# --------------------------------------------------------------- rounds


def qubit_probe(theta, rng):
    """U(theta) written as a relabelled kraus spec, closed-form reference."""
    base = kraus([u_theta(theta)])
    return relabel(qubit_unitary_ref(base, u_theta(theta)), rng)


def build(workload, seed):
    """Spec files (name -> Node) and the round (list of Command)."""
    rng = np.random.default_rng(seed)
    sweep_probe = Command("sweep", None, ("u-theta", "--points", str(PROBE_POINTS)))
    if workload == "sweep-u-theta":
        files = {"qubit.json": qubit_probe(0.3, rng)}
        cmds = [
            Command("sweep", None, ("u-theta", "--points", str(SWEEP_POINTS))),
            *[Command("measures", "qubit.json"), Command("game", "qubit.json")] * 3,
            *[Command("classify", "qubit.json"), Command("vqa-check", "qubit.json", ("Z",))] * 10,
        ]
        return files, cmds

    if workload == "witness-game":
        files = {
            f"d4-{name}.json": relabel(node, rng)
            for name, node in load_reference().items()
        }
        cmds = []
        for fname in files:
            cmds += [Command("measures", fname), Command("game", fname)]
        for fname in files:
            cmds += [Command("classify", fname), Command("vqa-check", fname, ("ZZ", "IZ"))] * 3
        return files, cmds + [sweep_probe] * 2

    if workload == "ceiling-d8":
        u = u_theta(np.pi / 8)
        ceiling = qubit_unitary_ref(tensor(gate("U", np.pi / 8), gate("I"), gate("I")), u)
        half = tensor(kraus([u]), gate("I"))
        files = {
            "d8-ceiling.json": ceiling,
            "d4-half.json": relabel(qubit_unitary_ref(half, u), rng),
        }
        cmds = [
            Command("measures", "d8-ceiling.json"),
            Command("classify", "d8-ceiling.json"),
            Command("vqa-check", "d8-ceiling.json", ("ZII",)),
            Command("game", "d4-half.json"),
            sweep_probe,
        ]
        return files, cmds

    if workload == "classify-vqa":
        base_rng = np.random.default_rng(501)
        qubit = kraus(random_kraus(2, 2, base_rng))
        qutrit = choi(oracle.choi_from_kraus(random_kraus(3, 3, base_rng)))
        files = {
            "d2-gate.json": gate("H"),
            "d2-kraus.json": relabel(qubit, rng),
            "d3-choi.json": relabel(qutrit, rng),
            "d4-composition.json": relabel(
                composition(tensor(gate("H"), gate("I")), gate("CNOT")), rng
            ),
            "d6-tensor.json": relabel(tensor(qubit, qutrit), rng),
            "d8-gate.json": gate("CCX"),
            "d8-tensor.json": relabel(tensor(qubit, gate("CNOT")), rng),
            "d2-probe.json": qubit_probe(0.7, rng),
        }
        cmds = [Command("classify", f) for f in files if f != "d2-probe.json"]
        cmds += [
            Command("vqa-check", "d2-gate.json", ("Z",)),
            Command("vqa-check", "d2-kraus.json", ("X", "Z")),
            Command("vqa-check", "d4-composition.json", ("ZZ", "XX")),
            Command("vqa-check", "d8-gate.json", ("ZZZ",)),
            Command("vqa-check", "d8-gate.json", ("ZII", "IZI")),
            Command("vqa-check", "d8-tensor.json", ("ZZZ",)),
            *[Command("measures", "d2-probe.json"), Command("game", "d2-probe.json")] * 3,
            sweep_probe,
            sweep_probe,
        ]
        return files, cmds

    raise ValueError(f"unknown workload {workload!r}")


# ceiling-d8 is for manual runs; BENCHMARK.json leaves it out (README.md)
WORKLOADS = ("sweep-u-theta", "witness-game", "classify-vqa", "ceiling-d8")


def write_specs(files, directory):
    directory.mkdir(parents=True, exist_ok=True)
    for name, node in files.items():
        (directory / name).write_text(json.dumps(node.spec), encoding="utf-8")
