import copy
import json
import math
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from crolab import channels, cli
from crolab.channels import (
    Channel,
    ProjectorSet,
    apply,
    basis_pvm,
    block_dephasing,
    channel_from_kraus,
    channel_partial_trace,
    choi_dephase_output,
    choi_from_output_blocks,
    choi_max_diff,
    choi_output_blocks,
    choi_stack_from_kraus,
    compose,
    dephasing,
    gate_matrix,
    identity_channel,
    interpolation_unitary,
    kraus_from_choi,
    mix,
    named_gate,
    pauli_channel_T,
    random_channel,
    te_channel,
    tensor,
    unitary_channel,
    validate_choi_stack,
)
from crolab.linalg import kron, partial_trace

import oracles
from crolab.paulis import PAULI_X, PAULI_Z, pauli_index, pauli_matrix, pauli_stack


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestChannelConstruction:
    def test_identity_choi_is_maximally_entangled(self):
        c = identity_channel(2)
        phi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                phi[i * 2 + i, j * 2 + j] = 0.5
        np.testing.assert_allclose(c.choi, phi, atol=1e-12)

    def test_rejects_non_psd_choi(self):
        bad = np.diag([0.75, 0.5, 0.0, -0.25])
        with pytest.raises(ValueError):
            Channel(bad)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            Channel(np.eye(4) / 2)

    def test_rejects_non_trace_preserving(self):
        # uniform marginal fails for this diagonal choi
        bad = np.diag([0.5, 0.25, 0.25, 0.0])
        with pytest.raises(ValueError, match="marginal"):
            Channel(bad)

    def test_rejects_zero_dim_array(self):
        with pytest.raises(ValueError, match=r"choi shape \(\) is not a square"):
            Channel(np.array(1.0))

    def test_immutable(self):
        c = identity_channel(2)
        with pytest.raises(AttributeError):
            c.dim = 3

    def test_kraus_completeness_enforced(self):
        with pytest.raises(ValueError, match="completeness"):
            channel_from_kraus([np.diag([1.0, 0.5])])

    def test_kraus_rejects_zero_dim_array(self):
        with pytest.raises(ValueError, match=r"kraus operator shape \(\) is not"):
            channel_from_kraus([np.array(1.0)])

    def test_kraus_roundtrip(self):
        rng_seed = 17
        c = random_channel(3, seed=rng_seed)
        rebuilt = channel_from_kraus(c.kraus)
        assert choi_max_diff(c, rebuilt) < 1e-12

    def test_kraus_from_choi_drops_null_directions(self):
        ops = kraus_from_choi(dephasing(3).choi)
        assert len(ops) == 3


_ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}

_IMMUTABLES = {
    "gate": lambda: named_gate("H"),
    "kraus": lambda: channel_from_kraus(random_channel(3, rank=2, seed=0).kraus),
    "composition": lambda: compose(named_gate("H"), named_gate("T")),
    "pvm": lambda: basis_pvm(2),
}


class TestCopyAndPickle:
    """``copy``, ``deepcopy`` and ``pickle`` restore every slot bit for bit,
    without validating again, and the copy stays immutable."""

    @pytest.mark.parametrize("trip", _ROUND_TRIPS)
    @pytest.mark.parametrize("kind", _IMMUTABLES)
    def test_round_trip(self, kind, trip):
        original = _IMMUTABLES[kind]()
        assert kind != "kraus" or original._kraus is not None
        restored = _ROUND_TRIPS[trip](original)
        assert type(restored) is type(original)
        for name in type(original).__slots__:
            before, after = getattr(original, name), getattr(restored, name)
            assert (before is None) == (after is None)
            if before is not None:
                before, after = np.asarray(before), np.asarray(after)
                assert (before.dtype, before.shape) == (after.dtype, after.shape)
                assert before.tobytes() == after.tobytes()
        with pytest.raises(AttributeError, match=f"{type(original).__name__} is immutable"):
            restored.dim = 3

    @pytest.mark.parametrize("trip", _ROUND_TRIPS)
    def test_loose_channel_is_not_validated_again(self, trip):
        """A channel accepted at tol = 1e-3 that the default tol refuses."""
        loose = Channel(named_gate("H").choi * (1.0 + 1e-5), tol=1e-3)
        with pytest.raises(ValueError):
            Channel(loose.choi)
        assert np.array_equal(_ROUND_TRIPS[trip](loose).choi, loose.choi)


def _corrupt(kind, choi, ops):
    """A Choi array and Kraus list that fail exactly one check, ``kind``."""
    n = len(choi)
    if kind == "completeness":
        return choi, ops * 1.01
    if kind == "hermitian":
        return choi + 1e-6 * np.triu(np.ones((n, n)), 1), ops
    if kind == "nan":
        return np.where(np.eye(n) > 0, np.nan, choi), ops
    if kind == "trace":
        return choi * 1.001, ops
    if kind == "marginal":
        return choi + 1e-3 * np.diag(np.r_[1.0, np.zeros(n - 2), -1.0]), ops
    if kind == "negative":
        # trace and marginal kept, the rank-one Choi array shifted below zero
        return 1.001 * choi - 1e-3 * np.eye(n) / n, ops
    # every check fails but the last; the order decides the message
    return 1.001 * choi + 1e-6 * np.triu(np.ones((n, n)), 1), ops * 1.01


INVALID_KINDS = ("completeness", "hermitian", "nan", "trace", "marginal", "negative", "several")


class TestStackedValidation:
    """``validate_choi_stack`` against the replaced one-at-a-time checks."""

    @staticmethod
    def _unitary_stack(d, size, seed):
        rng = np.random.default_rng(seed)
        ops = np.stack([oracles.haar_unitary(d, rng) for _ in range(size)])[:, None]
        return choi_stack_from_kraus(ops), ops

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("kind", INVALID_KINDS)
    def test_invalid_entry_gives_the_channel_message(self, d, position, kind):
        chois, ops = self._unitary_stack(d, 5, seed=10 * d + position)
        bad_choi, bad_ops = _corrupt(kind, chois[position], ops[position])
        chois[position], ops[position] = bad_choi, bad_ops
        with pytest.raises(ValueError) as expected:
            oracles.validate_choi_one(bad_choi, 1e-9, bad_ops)
        with pytest.raises(ValueError) as alone:
            Channel(bad_choi, kraus=bad_ops)
        with pytest.raises(ValueError) as stacked:
            validate_choi_stack(chois, kraus=ops)
        assert str(stacked.value) == str(alone.value) == str(expected.value)
        if kind != "completeness":
            with pytest.raises(ValueError) as expected:
                oracles.validate_choi_one(bad_choi, 1e-9)
            with pytest.raises(ValueError) as plain:
                validate_choi_stack(chois)
            assert str(plain.value) == str(expected.value)

    def test_first_failing_entry_wins(self):
        chois, _ = self._unitary_stack(2, 4, seed=3)
        chois[1] = _corrupt("trace", chois[1], None)[0]
        chois[3] = _corrupt("hermitian", chois[3], None)[0]
        with pytest.raises(ValueError, match="choi trace 1.001 is not 1"):
            validate_choi_stack(chois)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_valid_stack_equals_one_at_a_time(self, d):
        ranks = (1 + (d > 1), d * d)
        chois = np.stack([random_channel(d, rank=r, seed=s).choi for r in ranks for s in range(3)])
        chois = chois + 1e-12j * np.triu(np.ones(chois.shape[1:]), 1)  # within tol
        got = validate_choi_stack(chois.reshape(2, 3, *chois.shape[1:]))
        assert got.shape == (2, 3, d * d, d * d)
        for choi, entry in zip(chois, got.reshape(chois.shape)):
            assert entry.tobytes() == oracles.validate_choi_one(choi, 1e-9).tobytes()
            assert entry.tobytes() == Channel(choi).choi.tobytes()

    @pytest.mark.parametrize("d, rank", [(1, 1), (2, 1), (2, 3), (3, 2), (4, 5)])
    def test_kraus_stack_equals_the_replaced_accumulation(self, d, rank):
        rng = np.random.default_rng(d * rank)
        g = rng.normal(size=(6, rank, d, d)) + 1j * rng.normal(size=(6, rank, d, d))
        g[0, 0, 0, 0] = -0.0  # signed zeros survive the accumulation
        chois = choi_stack_from_kraus(g)
        for ops, choi in zip(g, chois):
            assert choi.tobytes() == oracles.choi_of_kraus(list(ops)).tobytes()

    @pytest.mark.parametrize("points", [2, 50, 257])
    def test_interpolation_stack_equals_scalar_calls(self, points):
        thetas = np.r_[np.linspace(0.0, np.pi / 2, points), [-3.0, 7.5, 1e-300]]
        stack = interpolation_unitary(thetas)
        assert stack.shape == (len(thetas), 2, 2)
        for theta, u in zip(thetas, stack):
            assert u.tobytes() == interpolation_unitary(float(theta)).tobytes()
            assert u.tobytes() == gate_matrix("U", theta).tobytes()
        assert interpolation_unitary(0.3).shape == (2, 2)


def _pairs(m):
    """A complex array as nested [re, im] pairs, the spec encoding."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _kraus_leaf(d, rng):
    r = int(rng.integers(1, 4))
    g = rng.normal(size=(r * d, d)) + 1j * rng.normal(size=(r * d, d))
    ops = np.linalg.qr(g)[0].reshape(r, d, d)  # an isometry: complete
    return {"kind": "kraus", "dim": d, "operators": _pairs(ops)}


def _choi_leaf(d, rng, shift=0.0):
    """A unitary channel's Choi array, whose computed spectrum dips a few
    1e-17 below zero, or that of a Kraus pair; ``shift`` moves the whole
    spectrum down by that much and keeps the trace and the marginal."""
    if rng.random() < 0.5:
        ops = [oracles.haar_unitary(d, rng)]
    else:
        ops = np.linalg.qr(rng.normal(size=(2 * d, d)) + 1j * rng.normal(size=(2 * d, d)))[0]
        ops = list(ops.reshape(2, d, d))
    choi = oracles.choi_of_kraus(ops)
    n = d * d
    if shift:
        choi = (1 + shift * n) * choi - shift * np.eye(n)
    return {"kind": "choi", "dim": d, "matrix": _pairs(choi)}


GATES_BY_DIM = {2: ["H", "T", "S", "X"], 4: ["CNOT"], 8: ["CCX"]}


def _random_spec(d, rng, depth, leaves):
    """A random spec of dimension d: leaves of the listed kinds, under
    compositions and tensors up to ``depth`` levels."""
    kinds = [k for k in leaves if k != "gate" or d in GATES_BY_DIM]
    if depth > 0:
        kinds += ["composition", "tensor"] * 2
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "kraus":
        return _kraus_leaf(d, rng)
    if kind == "choi":
        return _choi_leaf(d, rng)
    if kind == "gate":
        names = GATES_BY_DIM[d]
        return {"kind": "gate", "name": names[int(rng.integers(len(names)))]}
    if kind == "composition":
        count = int(rng.integers(2, 5))
        return {"kind": kind, "children": [_random_spec(d, rng, depth - 1, leaves) for _ in range(count)]}
    factors = [f for f in range(1, d + 1) if d % f == 0]
    first = factors[int(rng.integers(len(factors)))]
    children = [_random_spec(f, rng, depth - 1, leaves) for f in (first, d // first)]
    return {"kind": kind, "children": children}


def _chain(d, rng, length, leaves):
    return {"kind": "composition", "children": [_random_spec(d, rng, 0, leaves) for _ in range(length)]}


def _bound_specs(tol):
    """(name, spec) pairs: random all-Kraus and mixed specs at d = 1..8,
    chains of 20 and more compositions, and one d = 16 tensor; at a tol
    above 1e-4, also leaves 2.4e-4 below zero, whose compositions and
    tensors pass (the floor is -tol)."""
    rng = np.random.default_rng(2024)
    specs = []
    if tol > 1e-4:
        low = [_choi_leaf(2, rng, shift=2.4e-4) for _ in range(4)]
        specs.append(("shifted-composition", {"kind": "composition", "children": low[:2]}))
        specs.append(("shifted-tensor", {"kind": "tensor", "children": low[2:]}))
    for d in range(1, 9):
        for leaves in (("kraus",), ("kraus", "choi", "gate")):
            for k in range(3):
                specs.append((f"d{d}-{'-'.join(leaves)}-{k}", _random_spec(d, rng, 3, leaves)))
    for d, length in ((2, 20), (2, 40), (3, 24), (4, 20), (8, 20)):
        for leaves in (("kraus",), ("kraus", "choi", "gate")):
            specs.append((f"chain-d{d}-{length}-{len(leaves)}", _chain(d, rng, length, leaves)))
    specs.append(("dip", {"kind": "composition", "children": [
        {"kind": "tensor", "children": [_choi_leaf(2, rng, shift=1e-17), _kraus_leaf(3, rng)]},
        _choi_leaf(6, rng, shift=1e-17),
    ]}))
    specs.append(("d16", {"kind": "tensor", "children": [
        {"kind": "gate", "name": "CNOT"}, _kraus_leaf(2, rng), _choi_leaf(2, rng),
    ]}))
    return specs


def _invalid_specs():
    """(name, spec, tol) of specs that fail: a negative Choi leaf (below
    the floor by far, or only just) or an incomplete Kraus leaf, nested in
    compositions and tensors; and two leaves 9e-4 below zero that pass at
    tol = 1e-3 but whose composition does not."""
    rng = np.random.default_rng(7)
    incomplete = _kraus_leaf(2, rng)
    incomplete["operators"] = _pairs(1.01 * np.array(incomplete["operators"])[..., 0])
    bad_leaves = {
        "negative": _choi_leaf(2, rng, shift=1e-3 / 4),
        "just-below-floor": _choi_leaf(2, rng, shift=2e-7),
        "incomplete": incomplete,
    }
    specs = []
    for name, leaf in bad_leaves.items():
        specs.append((f"tensor-{name}", {"kind": "tensor", "children": [_kraus_leaf(3, rng), leaf]}))
        chain = _chain(2, rng, 20, ("kraus", "gate"))
        chain["children"].insert(12, leaf)
        specs.append((f"chain-{name}", chain))
        specs.append((f"deep-{name}", {"kind": "composition", "children": [
            {"kind": "tensor", "children": [{"kind": "gate", "name": "H"}, leaf]},
            {"kind": "gate", "name": "CNOT"},
        ]}))
    specs = [(name, spec, 1e-9) for name, spec in specs]
    low = [_choi_leaf(2, rng, shift=9e-4) for _ in range(2)]
    specs.append(("composed-negative", {"kind": "composition", "children": low}, 1e-3))
    return specs


def _count_eigvalsh(monkeypatch):
    """The shapes of the stacks passed to ``np.linalg.eigvalsh`` from now on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
    return calls


class TestConstructionBound:
    """Channels that construction proves positive skip ``eigvalsh``; every
    validation a spec load runs must still agree with the one-at-a-time
    oracle, and every recorded bound must sit below the oracle's smallest
    eigenvalue."""

    @staticmethod
    def _load_recorded(tmp_path, monkeypatch, spec, tol):
        """The spec's loaded channel (or its ValueError) and, per
        validation the load ran, (choi, kraus, tol, result or error): each
        ``Channel`` validation, and each Kraus leaf below a composition or
        tensor that passed its completeness check, with the oracle's Choi
        array of the leaf and None as its result (a leaf that fails the
        check is validated as a ``Channel``)."""
        records = []
        validated, deviation = channels._validated, cli._completeness_deviation

        def record(chois, tol, kraus=None, bound=None):
            try:
                result = validated(chois, tol, kraus, bound)
            except ValueError as exc:
                records.append((chois, kraus, tol, exc))
                raise
            records.append((chois, kraus, tol, result))
            return result

        def record_leaf(ops):
            dev = deviation(ops)
            if dev <= tol:
                records.append((oracles.choi_of_kraus(list(ops))[None], ops[None], tol, None))
            return dev

        monkeypatch.setattr(channels, "_validated", record)
        monkeypatch.setattr(cli, "_completeness_deviation", record_leaf)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        try:
            loaded = cli.load_channel(str(path), tol)
        except ValueError as exc:
            loaded = exc
        return loaded, records

    @staticmethod
    def _oracle(chois, kraus, tol):
        try:
            return oracles.validate_choi_one(chois[0], tol, None if kraus is None else list(kraus[0]))
        except ValueError as exc:
            return exc

    @classmethod
    def _agrees(cls, name, chois, kraus, tol, result):
        """A validation that passed agrees with the oracle: the same array
        bit for bit, and a bound below its smallest eigenvalue; a leaf
        check, that the oracle accepts the leaf."""
        expected = cls._oracle(chois, kraus, tol)
        assert not isinstance(expected, ValueError), (name, expected)
        if result is None:
            return None
        stack, bound = result
        assert stack[0].tobytes() == expected.tobytes(), name
        smallest = np.linalg.eigvalsh(expected)[0]
        assert bound <= smallest, (name, bound, smallest)
        return smallest

    @pytest.mark.parametrize("tol", [1e-9, 1e-7, 1e-3])
    def test_valid_specs_agree_with_the_oracle(self, tmp_path, monkeypatch, tol):
        dips = 0
        for name, spec in _bound_specs(tol):
            loaded, records = self._load_recorded(tmp_path, monkeypatch, spec, tol)
            assert isinstance(loaded, channels.Channel), (name, loaded)
            assert loaded.choi.tobytes() == records[-1][3][0][0].tobytes()
            for chois, kraus, tol_, result in records:
                smallest = self._agrees(name, chois, kraus, tol_, result)
                dips += kraus is None and -1e-15 < smallest < 0.0
        assert dips > 20

    def test_invalid_specs_give_the_oracle_message(self, tmp_path, monkeypatch):
        """The refusing validation gives the oracle's message for its array,
        and the replaced node-by-node loader refuses the spec with the same
        message."""
        for name, spec, tol in _invalid_specs():
            loaded, records = self._load_recorded(tmp_path, monkeypatch, spec, tol)
            assert isinstance(loaded, ValueError), name
            *passed, (chois, kraus, tol_, error) = records
            assert error is loaded
            expected = self._oracle(chois, kraus, tol_)
            assert isinstance(expected, ValueError) and str(expected) == str(error), name
            for record in passed:
                self._agrees(name, *record)
            with pytest.raises(ValueError) as replaced:
                oracles.load_spec_node_by_node(spec, "spec", tol)
            assert str(replaced.value) == str(error), name

    def test_long_chains_fall_back_to_eigvalsh(self, monkeypatch):
        """The bound of a chain of compositions grows with each step until
        it no longer clears the floor; then one eigendecomposition resets it."""
        calls = _count_eigvalsh(monkeypatch)
        h, s = named_gate("H"), named_gate("S")
        acc, bounds = h, []
        for k in range(30):
            acc = compose(s if k % 2 else h, acc)
            bounds.append(acc._min_eig)
        assert calls == [(1, 4, 4)]
        step = next(k for k in range(1, 30) if bounds[k] > bounds[k - 1])
        assert all(b < 0 for b in bounds) and bounds[step - 1] < -1e-8 and bounds[step] > -1e-12

    def test_caller_arrays_are_always_eigendecomposed(self, monkeypatch):
        calls = _count_eigvalsh(monkeypatch)
        h = named_gate("H")
        assert calls == []
        Channel(h.choi)
        Channel(h.choi, kraus=[gate_matrix("H")])
        validate_choi_stack(h.choi[None], kraus=[[gate_matrix("H")]])
        assert calls == [(1, 4, 4)] * 3


def _spoiled(spec, rng):
    """A copy of a composite spec with one random ``kraus`` or ``choi`` leaf
    replaced by one of its dimension that fails validation: a Kraus list
    whose operators' first column is scaled by 1.02, so that an earlier
    channel changes the product's deviation from completeness, or a Choi
    array shifted 1e-4 below zero; None when the spec has no such leaf
    below its root."""
    spec = copy.deepcopy(spec)
    slots = []

    def walk(node):
        for k, child in enumerate(node.get("children", [])):
            if "dim" in child:
                slots.append((node["children"], k))
            walk(child)

    walk(spec)
    if not slots:
        return None
    children, k = slots[int(rng.integers(len(slots)))]
    d = children[k]["dim"]
    if rng.random() < 0.5:
        leaf = _kraus_leaf(d, rng)
        ops = np.array(leaf["operators"])
        ops[:, :, 0] *= 1.02
        leaf["operators"] = ops.tolist()
    else:
        leaf = _choi_leaf(d, rng, shift=1e-4)
    children[k] = leaf
    return spec


def _load_both(spec, tol):
    """The live loader's and the replaced node-by-node loader's channel of
    a spec, or the ValueError each raises."""
    cli._spec_work(spec, "spec")
    outcomes = []
    for load in (cli._parse_spec_node, oracles.load_spec_node_by_node):
        try:
            outcomes.append(load(spec, "spec", tol))
        except ValueError as exc:
            outcomes.append(exc)
    return outcomes


def _leaf_of_rank(d, rank, rng):
    g = rng.normal(size=(rank * d, d)) + 1j * rng.normal(size=(rank * d, d))
    return {"kind": "kraus", "dim": d, "operators": _pairs(np.linalg.qr(g)[0].reshape(rank, d, d))}


class TestKrausProductLoader:
    """The loader multiplies the Kraus leaves of a subtree into one list of
    at most d operators; the node-by-node loader it replaced is kept as
    ``oracles.load_spec_node_by_node``."""

    TOL = 1e-9
    # A product's Gram sum and the Choi products of ``compose`` round
    # differently; on these trees they differ by at most one eps.
    CHOI_ATOL = 64 * np.finfo(float).eps

    def test_random_trees_match_the_node_by_node_loader(self, monkeypatch):
        """Random trees of all three leaf kinds at d = 1..8, as drawn and
        with one leaf spoiled: the same decision and message, Choi arrays
        within ``CHOI_ATOL``, and the same memberships and PPT statuses.
        Product nodes hold at most d operators, and some all-Kraus nodes
        hold more and are composed or tensored as channels."""
        products, over_cap = [], [0]
        real_product, real_compose, real_tensor = cli._kraus_product, cli.compose, cli.tensor

        def counting_product(kind, stacks):
            result = real_product(kind, stacks)
            products.append((len(result), result.shape[-1]))
            return result

        def counting(real):
            def wrapped(a, b, tol):
                over_cap[0] += a._kraus is not None and b._kraus is not None
                return real(a, b, tol)
            return wrapped

        monkeypatch.setattr(cli, "_kraus_product", counting_product)
        monkeypatch.setattr(cli, "compose", counting(real_compose))
        monkeypatch.setattr(cli, "tensor", counting(real_tensor))
        rng = np.random.default_rng(29)
        args = SimpleNamespace(tol=self.TOL)
        loaded = refused = 0
        for d in range(1, 9):
            for leaves in (("kraus",), ("kraus", "gate"), ("kraus", "choi", "gate")):
                for _ in range(4):
                    spec = _random_spec(d, rng, 3, leaves)
                    for case in (spec, _spoiled(spec, rng)):
                        if case is None:
                            continue
                        new, old = _load_both(case, self.TOL)
                        if isinstance(old, ValueError):
                            assert type(new) is ValueError and str(new) == str(old)
                            refused += 1
                            continue
                        assert isinstance(new, Channel), new
                        assert new.dim == old.dim
                        np.testing.assert_allclose(new.choi, old.choi, rtol=0, atol=self.CHOI_ATOL)
                        got, expected = cli._classify(new, args), cli._classify(old, args)
                        for key in ("cqcro", "qqcro", "qccro", "dio"):
                            assert got[key]["member"] == expected[key]["member"], key
                        assert got["eb_ppt"]["status"] == expected["eb_ppt"]["status"]
                        loaded += 1
        assert loaded > 60 and refused > 30
        assert all(count <= cap for count, cap in products) and len(products) > 50
        assert any(count == cap > 1 for count, cap in products)
        assert over_cap[0] > 10

    def test_lone_leaves_load_bit_for_bit(self):
        rng = np.random.default_rng(30)
        leaves = [{"kind": "gate", "name": name} for name in ("H", "T", "CNOT", "CCX")]
        leaves.append({"kind": "gate", "name": "U", "params": {"theta": 0.3}})
        for d in range(1, 9):
            leaves += [_kraus_leaf(d, rng), _choi_leaf(d, rng)]
        for leaf in leaves:
            new, old = _load_both(leaf, self.TOL)
            assert new.choi.tobytes() == old.choi.tobytes()
            assert new._min_eig == old._min_eig
            if old._kraus is None:
                assert new._kraus is None
            else:
                assert np.asarray(new._kraus).tobytes() == np.asarray(old._kraus).tobytes()

    @pytest.mark.parametrize("names", [("T", "H"), ("RX", "H", "U"), ("U", "RX")])
    @pytest.mark.parametrize("kind", ["composition", "tensor"])
    def test_gate_leaves_keep_their_completeness_check(self, kind, names):
        """At tol = 1e-18 no gate is complete: the first gate's own
        deviation is the message, as in the replaced loader, not the
        product's."""
        children = [
            {"kind": "gate", "name": name, **({"params": {"theta": 0.3}} if name in ("RX", "U") else {})}
            for name in names
        ]
        new, old = _load_both({"kind": kind, "children": children}, 1e-18)
        assert isinstance(old, ValueError) and str(new) == str(old)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("entry", [float("nan"), float("inf")])
    def test_a_non_finite_kraus_leaf_gives_its_channel_message(self, entry):
        """A Kraus leaf with a NaN or infinite entry, inside a product and
        before a negative Choi leaf, is refused first, with the message its
        own channel gives."""
        rng = np.random.default_rng(32)
        leaf = _leaf_of_rank(2, 1, rng)
        leaf["operators"][0][0][0][0] = entry
        product = {"kind": "composition", "children": [leaf, {"kind": "gate", "name": "H"}]}
        spec = {"kind": "composition", "children": [product, _choi_leaf(2, rng, shift=1e-4)]}
        new, old = _load_both(spec, self.TOL)
        assert isinstance(old, ValueError) and "negative" not in str(old)
        assert str(new) == str(old)

    @pytest.mark.parametrize("first", ["gate", "choi"])
    def test_composition_of_two_dimensions_exits_3(self, tmp_path, capsys, first):
        """A composition whose children differ in dimension is refused with
        ``compose``'s message, whether its leaves are all Kraus lists or
        not."""
        leaf = {"kind": "gate", "name": "H"} if first == "gate" else _choi_leaf(2, np.random.default_rng(3))
        spec = {"kind": "composition", "children": [leaf, {"kind": "gate", "name": "CNOT"}]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert cli.main(["classify", str(path)]) == 3
        captured = capsys.readouterr()
        message = "cannot compose channels of dims 4 and 2"
        assert captured.out == ""
        assert json.loads(captured.err) == {"kind": "invalid-channel", "error": message}
        with pytest.raises(ValueError, match=message):
            oracles.load_spec_node_by_node(spec, "spec", self.TOL)

    @pytest.mark.parametrize("d, ranks, product", [
        (2, (3, 3), False), (2, (2, 2), False), (2, (2, 1), True), (4, (2, 2), True), (4, (2, 3), False),
    ])
    def test_products_past_d_operators_take_the_choi_path(self, monkeypatch, d, ranks, product):
        """A composition whose Kraus product would hold more than d
        operators composes its children's channels, as the replaced loader
        did, bit for bit; one of at most d operators is one Kraus list."""
        products, composed = [], []
        real_product, real_compose = cli._kraus_product, cli.compose
        monkeypatch.setattr(cli, "_kraus_product", lambda *args: products.append(args) or real_product(*args))
        monkeypatch.setattr(
            cli, "compose", lambda a, b, tol: composed.append((a.dim, b.dim)) or real_compose(a, b, tol)
        )
        rng = np.random.default_rng(31)
        spec = {"kind": "composition", "children": [_leaf_of_rank(d, r, rng) for r in ranks]}
        new, old = _load_both(spec, self.TOL)
        if product:
            assert len(products) == 1 and composed == [] and len(new._kraus) == math.prod(ranks)
            np.testing.assert_allclose(new.choi, old.choi, rtol=0, atol=self.CHOI_ATOL)
        else:
            assert products == [] and composed == [(d, d)]
            assert new.choi.tobytes() == old.choi.tobytes() and new._min_eig == old._min_eig

    def test_a_composite_is_checked_by_its_product_completeness(self):
        """The one place where the two loaders decide differently.  With K =
        sqrt(I + a X), a = 0.9 tol, every leaf K or K^-1 is complete within
        tol.  K K is not (deviation 2a), yet the replaced loader accepted it,
        since its node checked the reference marginal, the deviation / d.
        K^3 K^-3 is the identity to rounding, yet the replaced loader
        refused it, at the K^3 node, whose marginal deviates by 1.5 a."""
        tol, a = 1e-6, 0.9e-6
        c0 = (np.sqrt(1 + a) + np.sqrt(1 - a)) / 2
        c1 = (np.sqrt(1 + a) - np.sqrt(1 - a)) / 2
        k = c0 * np.eye(2) + c1 * PAULI_X
        up, down = ({"kind": "kraus", "dim": 2, "operators": _pairs(m[None])} for m in (k, np.linalg.inv(k)))
        square = {"kind": "composition", "children": [up, up]}
        new, old = _load_both(square, tol)
        assert str(new) == f"kraus completeness violated by {2 * a:.3e} (tol={tol:g})"
        assert isinstance(old, Channel)
        there_and_back = {"kind": "composition", "children": [up] * 3 + [down] * 3}
        new, old = _load_both(there_and_back, tol)
        assert isinstance(new, Channel)
        assert str(old).startswith(f"reference marginal deviates from I/d by {1.5 * a:.3e}")


class TestApplyComposeTensor:
    def test_apply_matches_kraus_sum(self):
        rng = np.random.default_rng(5)
        c = random_channel(3, seed=21)
        for _ in range(5):
            rho = random_density(rng, 3)
            direct = sum(k @ rho @ k.conj().T for k in c.kraus)
            np.testing.assert_allclose(apply(c, rho), direct, atol=1e-11)

    def test_apply_shape_guard(self):
        with pytest.raises(ValueError, match="does not match"):
            apply(identity_channel(2), np.eye(3))

    def test_apply_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(6)
        c = random_channel(4, seed=3)
        rho = random_density(rng, 4)
        out = apply(c, rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert np.min(np.linalg.eigvalsh((out + out.conj().T) / 2)) > -1e-10

    def test_compose_is_sequential_application(self):
        rng = np.random.default_rng(7)
        a = random_channel(2, seed=8)
        b = random_channel(2, seed=9)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(
            apply(compose(a, b), rho), apply(a, apply(b, rho)), atol=1e-11
        )

    def test_compose_unitaries_multiplies(self):
        zh = compose(named_gate("Z"), named_gate("H"))
        direct = unitary_channel(PAULI_Z @ gate_matrix("H"))
        assert choi_max_diff(zh, direct) < 1e-12

    def test_compose_dim_mismatch(self):
        with pytest.raises(ValueError, match="compose"):
            compose(identity_channel(2), identity_channel(3))

    def test_tensor_factorizes_on_products(self):
        rng = np.random.default_rng(8)
        a = random_channel(2, seed=10)
        b = random_channel(3, seed=11)
        ra, rb = random_density(rng, 2), random_density(rng, 3)
        lhs = apply(tensor(a, b), np.kron(ra, rb))
        rhs = np.kron(apply(a, ra), apply(b, rb))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_tensor_with_identity_keeps_marginal(self):
        a = random_channel(2, seed=12)
        ext = tensor(a, identity_channel(2))
        assert choi_max_diff(channel_partial_trace(ext, [2, 2], 0), a) < 1e-12


class TestChannelPartialTrace:
    def test_reduces_tensor_factors(self):
        a = random_channel(2, seed=1)
        b = random_channel(2, seed=2)
        ab = tensor(a, b)
        assert choi_max_diff(channel_partial_trace(ab, [2, 2], 0), a) < 1e-12
        assert choi_max_diff(channel_partial_trace(ab, [2, 2], 1), b) < 1e-12

    def test_matches_direct_definition(self):
        """Reduced channel is rho -> tr_1(O(rho (x) I/d1))."""
        rng = np.random.default_rng(9)
        o = random_channel(4, seed=13)
        reduced = channel_partial_trace(o, [2, 2], 0)
        for _ in range(4):
            rho = random_density(rng, 2)
            direct = partial_trace(apply(o, np.kron(rho, np.eye(2) / 2)), [2, 2], 0)
            np.testing.assert_allclose(apply(reduced, rho), direct, atol=1e-11)

    def test_keep_validation(self):
        with pytest.raises(ValueError, match="keep"):
            channel_partial_trace(random_channel(4, seed=1), [2, 2], 2)

    def test_dims_validation(self):
        with pytest.raises(ValueError, match="factor"):
            channel_partial_trace(random_channel(4, seed=1), [3, 2], 0)


class TestDephasingAndPvm:
    def test_dephasing_kills_offdiagonals(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 3)
        out = apply(dephasing(3), rho)
        np.testing.assert_allclose(out, np.diag(np.diag(rho)), atol=1e-12)

    def test_dephasing_idempotent(self):
        d = dephasing(4)
        assert choi_max_diff(compose(d, d), d) < 1e-12

    def test_projector_set_validation(self):
        with pytest.raises(ValueError, match="idempotent"):
            ProjectorSet([np.diag([0.5, 0.5]), np.diag([0.5, 0.5])])
        with pytest.raises(ValueError, match="orthogonal"):
            p = np.diag([1.0, 0.0])
            ProjectorSet([p, p])
        with pytest.raises(ValueError, match="sum to the identity"):
            ProjectorSet([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])])

    def test_projector_set_rejects_zero_dim_array(self):
        with pytest.raises(ValueError, match=r"projector 0 has shape \(\)"):
            ProjectorSet([np.array(1.0)])

    def test_te_channel_formula(self):
        rng = np.random.default_rng(11)
        zz = pauli_matrix(pauli_index("ZZ"), 2)
        pvm = ProjectorSet([(np.eye(4) + zz) / 2, (np.eye(4) - zz) / 2])
        t = te_channel(pvm)
        rho = random_density(rng, 4)
        expected = sum(
            np.trace(rho @ p).real * p / r for p, r in zip(pvm.projectors, pvm.ranks)
        )
        np.testing.assert_allclose(apply(t, rho), expected, atol=1e-11)

    def test_te_channel_of_basis_is_dephasing(self):
        assert choi_max_diff(te_channel(basis_pvm(3)), dephasing(3)) < 1e-12

    def test_te_channel_idempotent_and_preserves_statistics(self):
        rng = np.random.default_rng(12)
        zz = pauli_matrix(pauli_index("ZZ"), 2)
        pvm = ProjectorSet([(np.eye(4) + zz) / 2, (np.eye(4) - zz) / 2])
        t = te_channel(pvm)
        assert choi_max_diff(compose(t, t), t) < 1e-10
        rho = random_density(rng, 4)
        out = apply(t, rho)
        for p in pvm:
            assert np.trace(p @ out).real == pytest.approx(np.trace(p @ rho).real, abs=1e-10)

    def test_block_dephasing_rank_one_is_dephasing(self):
        assert choi_max_diff(block_dephasing(basis_pvm(3)), dephasing(3)) < 1e-12

    def test_block_dephasing_of_identity_projector(self):
        bd = block_dephasing(ProjectorSet([np.eye(4)]))
        assert choi_max_diff(bd, identity_channel(4)) < 1e-12

    def test_block_dephasing_differs_from_te_for_degenerate_pvm(self):
        rng = np.random.default_rng(13)
        zz = pauli_matrix(pauli_index("ZZ"), 2)
        pvm = ProjectorSet([(np.eye(4) + zz) / 2, (np.eye(4) - zz) / 2])
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = np.outer(v, v.conj())
        rho /= np.trace(rho)
        gap = np.linalg.norm(apply(block_dephasing(pvm), rho) - apply(te_channel(pvm), rho))
        assert gap > 0.01


class TestOutputBlocks:
    """``choi_from_output_blocks`` inverts ``choi_output_blocks`` on
    output-dephased Choi arrays, alone and stacked."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_round_trip(self, d):
        chois = np.stack([random_channel(d, seed=seed).choi for seed in range(3)])
        blocks = choi_output_blocks(chois, d)
        rebuilt = choi_from_output_blocks(blocks)
        assert np.array_equal(rebuilt[1], choi_from_output_blocks(blocks[1]))
        for choi, back in zip(chois, rebuilt):
            assert np.array_equal(back, choi_dephase_output(choi, d))
        assert np.array_equal(choi_output_blocks(rebuilt, d), blocks)


class TestPauliChannelT:
    def test_rank_one_case_is_dephasing(self):
        assert choi_max_diff(pauli_channel_T(pauli_index("Z"), 1), dephasing(2)) < 1e-12

    def test_zz_idempotent_and_preserves_expectation(self):
        rng = np.random.default_rng(14)
        t = pauli_channel_T(pauli_index("ZZ"), 2)
        assert choi_max_diff(compose(t, t), t) < 1e-10
        zz = pauli_matrix(pauli_index("ZZ"), 2)
        rho = random_density(rng, 4)
        assert np.trace(zz @ apply(t, rho)).real == pytest.approx(
            np.trace(zz @ rho).real, abs=1e-10
        )

    def test_identity_string_is_depolarizing(self):
        rng = np.random.default_rng(15)
        t0 = pauli_channel_T(0, 2)
        rho = random_density(rng, 4)
        np.testing.assert_allclose(apply(t0, rho), np.eye(4) / 4, atol=1e-11)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            pauli_channel_T(16, 2)

    def test_closed_form_pieces_match_the_pvm_construction(self):
        """Every string of the stack is the Kronecker product, and every
        closed-form T is the te_channel of (I +- P)/2 (of [I] at index 0),
        both bit for bit."""
        for n in (1, 2, 3):
            eye = np.eye(2**n, dtype=complex)
            stack = pauli_stack(n)
            assert stack.shape == (4**n, 2**n, 2**n)
            for i in range(4**n):
                p = pauli_matrix(i, n)
                np.testing.assert_array_equal(stack[i], p)
                pvm = [eye] if i == 0 else [(eye + p) / 2, (eye - p) / 2]
                np.testing.assert_array_equal(pauli_channel_T(i, n).choi, te_channel(pvm).choi)


class TestNamedGates:
    def test_all_fixed_gates_are_unitary_channels(self):
        for name in ("I", "X", "Y", "Z", "H", "S", "T", "CNOT", "CCX"):
            c = named_gate(name)
            u = gate_matrix(name)
            assert np.max(np.abs(u.conj().T @ u - np.eye(c.dim))) < 1e-12

    def test_interpolation_family_endpoints(self):
        assert choi_max_diff(named_gate("U", 0.0), named_gate("Z")) < 1e-12
        assert choi_max_diff(named_gate("U", np.pi / 2), named_gate("X")) < 1e-12

    def test_interpolation_at_pi_over_4_is_hadamard(self):
        assert choi_max_diff(named_gate("U", np.pi / 4), named_gate("H")) < 1e-12

    def test_interpolation_unitary_is_hermitian_unitary(self):
        u = interpolation_unitary(0.3)
        np.testing.assert_allclose(u, u.conj().T)
        np.testing.assert_allclose(u @ u, np.eye(2), atol=1e-12)

    def test_rotation_gates(self):
        rz = gate_matrix("RZ", 0.7)
        np.testing.assert_allclose(rz, np.diag([np.exp(-0.35j), np.exp(0.35j)]))
        rx = gate_matrix("RX", np.pi)
        np.testing.assert_allclose(rx, -1j * PAULI_X, atol=1e-12)

    def test_unknown_gate(self):
        with pytest.raises(ValueError, match="unknown gate"):
            named_gate("Q")

    def test_parameter_arity(self):
        with pytest.raises(ValueError, match="needs a theta"):
            named_gate("RZ")
        with pytest.raises(ValueError, match="no parameter"):
            named_gate("H", 0.5)

    def test_ccx_permutes_basis(self):
        u = gate_matrix("CCX")
        src = np.zeros(8)
        src[6] = 1.0
        np.testing.assert_allclose(u @ src, np.eye(8)[7])


class TestRandomChannel:
    def test_invariants(self):
        for d in (2, 3, 4):
            c = random_channel(d, seed=d)
            assert np.trace(c.choi).real == pytest.approx(1.0, abs=1e-10)
            marg = partial_trace(c.choi, [d, d], 0)
            np.testing.assert_allclose(marg, np.eye(d) / d, atol=1e-10)

    def test_seed_determinism(self):
        a = random_channel(3, seed=42)
        b = random_channel(3, seed=42)
        assert choi_max_diff(a, b) == 0.0

    def test_distinct_seeds_differ(self):
        assert choi_max_diff(random_channel(2, seed=1), random_channel(2, seed=2)) > 1e-3

    def test_rank_parameter(self):
        c = random_channel(3, rank=2, seed=5)
        assert len(c.kraus) <= 2

    def test_bad_rank(self):
        with pytest.raises(ValueError, match="rank"):
            random_channel(2, rank=0)


class TestMix:
    def test_convex_combination(self):
        a = named_gate("Z")
        b = named_gate("X")
        m = mix([a, b], [0.25, 0.75])
        np.testing.assert_allclose(m.choi, 0.25 * a.choi + 0.75 * b.choi, atol=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="probability"):
            mix([named_gate("Z"), named_gate("X")], [0.5, 0.6])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            mix([identity_channel(2), identity_channel(3)], [0.5, 0.5])
