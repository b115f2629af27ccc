"""Tests for the command-line interface, run through subprocesses, and in
this process where a test pins the shared command pipeline."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crolab
import oracles
from crolab import cli, cro
from crolab.channels import MAX_DIM, apply, interpolation_unitary, named_gate, random_channel

# The subprocess imports the same crolab sources as this test session.
SRC = str(Path(crolab.__file__).resolve().parents[1])


def run_cli(*argv, env=None):
    """Run ``crolab argv`` in a subprocess, with ``env`` added to the
    inherited environment."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "crolab", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


# Runs each argv of the JSON list in argv[1] through cli.main and prints the
# list of [exit code, stdout text] as JSON.
_RUN_ALL = """
import contextlib, io, json, sys
from crolab import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def run_cli_all(runs, env=None):
    """Exit code and stdout of ``crolab argv`` for each argv of ``runs``,
    all in one subprocess, with ``env`` added to the inherited
    environment."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _RUN_ALL, json.dumps([list(argv) for argv in runs])],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    return [tuple(result) for result in json.loads(done.stdout)]


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def gate_spec(tmp_path, name, theta=None):
    payload = {"kind": "gate", "name": name}
    if theta is not None:
        payload["params"] = {"theta": theta}
    return write_spec(tmp_path, f"{name.lower()}.json", payload)


def random_kraus_spec(tmp_path, d, seed):
    """A spec file of two random Kraus operators of dimension d: the two
    d x d halves of a Haar isometry."""
    ops = oracles.haar_unitary(2 * d, np.random.default_rng(seed))[:, :d].reshape(2, d, d)
    operators = np.stack([ops.real, ops.imag], axis=-1).tolist()
    return write_spec(tmp_path, f"kraus{d}.json", _kraus_spec(operators, dim=d))


class TestClassifyCommand:
    """Classification reports and the replacement round trip."""

    def test_z_gate_classification(self, tmp_path):
        proc = run_cli("classify", gate_spec(tmp_path, "Z"))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["tool"] == "crolab"
        assert report["version"]
        assert report["tolerance"] == pytest.approx(1e-9)
        assert report["cqcro"]["member"]
        assert report["qccro"]["member"]
        assert report["dio"]["member"]
        assert not report["qqcro"]["member"]
        assert report["replacement"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_cnot_gate_classification(self, tmp_path):
        proc = run_cli("classify", gate_spec(tmp_path, "CNOT"))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["dio"]["member"]
        assert not report["qqcro"]["member"]

    def test_hadamard_is_nowhere_member(self, tmp_path):
        proc = run_cli("classify", gate_spec(tmp_path, "H"))
        report = json.loads(proc.stdout)
        for key in ("cqcro", "qqcro", "qccro", "dio"):
            assert not report[key]["member"]
        assert report["replacement"] is None

    def test_replacement_reproduces_channel_diagonals(self, tmp_path):
        proc = run_cli("classify", gate_spec(tmp_path, "X"))
        report = json.loads(proc.stdout)
        t = np.array(report["replacement"])
        channel = named_gate("X")
        for i in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[i, i] = 1.0
            diag = np.real(np.diag(apply(channel, basis)))
            assert np.max(np.abs(t[:, i] - diag)) < 1e-9

    def test_report_builds_no_witness(self, tmp_path, capsys, monkeypatch):
        """classify builds no witness: each report on
        non-member specs at d = 2..8 equals the one assembled from the
        public is_* verdicts and the replaced PPT screen
        (``oracles.eb_ppt_verdict``); only one-Kraus specs, which read the
        PPT minimum in closed form, may differ from it, in the last bits."""
        rng = np.random.default_rng(28)

        def pairs(m):
            return np.stack([m.real, m.imag], axis=-1).tolist()

        def isometry(d, rank):
            g = rng.normal(size=(rank * d, d)) + 1j * rng.normal(size=(rank * d, d))
            return np.linalg.qr(g)[0].reshape(rank, d, d)

        specs = [({"kind": "gate", "name": "H"}, True)]
        for d in range(2, 9):
            unitary = _kraus_spec(pairs(isometry(d, 1)), dim=d)
            rank_two = _kraus_spec(pairs(isometry(d, 2)), dim=d)
            specs += [
                (unitary, True),
                (rank_two, False),
                ({"kind": "choi", "dim": d, "matrix": pairs(random_channel(d, seed=d).choi)}, False),
                ({"kind": "composition", "children": [unitary, rank_two]}, False),
            ]
        tests = {"cqcro": cro.is_cqcro, "qqcro": cro.is_qqcro, "qccro": cro.is_qccro, "dio": cro.is_dio}

        def refuse(*args):
            raise AssertionError("classify built a witness")

        for k, (spec, one_kraus) in enumerate(specs):
            path = write_spec(tmp_path, f"spec{k}.json", spec)
            monkeypatch.setattr(cro, "choi_apply", refuse)
            monkeypatch.setattr(cro, "_witness", refuse)
            code, out, _ = _main(capsys, "classify", path)
            monkeypatch.undo()
            assert code == 0
            report = json.loads(out)

            channel = cli.load_channel(path, 1e-9)
            verdicts = {key: test(channel) for key, test in tests.items()}
            assert not any(v.is_member for v in verdicts.values())
            status, minimum = oracles.eb_ppt_verdict(channel.choi, channel.dim, 1e-9)
            expected = {"tool": "crolab", "version": crolab.__version__, "tolerance": 1e-9}
            expected.update({key: {"member": False, "residual": v.residual} for key, v in verdicts.items()})
            expected["eb_ppt"] = {"status": status, "min_eigenvalue": minimum}
            expected["replacement"] = None
            if one_kraus:
                assert report["eb_ppt"]["min_eigenvalue"] == pytest.approx(minimum, rel=0, abs=1e-14)
                expected["eb_ppt"]["min_eigenvalue"] = report["eb_ppt"]["min_eigenvalue"]
            assert report == expected

    @pytest.mark.parametrize("d", [2, 3])
    def test_every_spec_that_loads_is_classified(self, tmp_path, capsys, d):
        """The identity's Choi array with 0.8 tol moved from J[(1,0),(1,0)]
        to J[(0,0),(0,0)] loads at --tol 1e-6: its marginal is off by 0.8
        tol and one eigenvalue is -0.8 tol.  Its replacement's first column
        then sums to 1 + 0.8 d tol, with an entry of -0.8 d tol, within what
        the load guarantees (d tol, and d times the positivity floor)."""
        tol = 1e-6
        omega = np.eye(d).reshape(-1)
        choi = np.outer(omega, omega) / d
        choi[0, 0] += 0.8 * tol
        choi[d, d] -= 0.8 * tol
        spec = {"kind": "choi", "dim": d, "matrix": np.stack([choi, 0 * choi], -1).tolist()}
        path = write_spec(tmp_path, "shifted.json", spec)
        for command in ("measures", "classify"):
            code, out, err = _main(capsys, command, path, "--tol", str(tol))
            assert (code, err) == (0, ""), command
        report = json.loads(out)
        assert [report[key]["member"] for key in ("cqcro", "qqcro", "qccro", "dio")] == [True, False, True, True]
        t = np.array(report["replacement"])
        assert t[0, 0] == pytest.approx(1 + 0.8 * d * tol, rel=0, abs=1e-15)
        assert t[1, 0] == 0.0 and t.min() == 0.0
        np.testing.assert_allclose(t.sum(axis=0), 1.0, rtol=0, atol=d * tol)

    def test_out_flag_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("classify", gate_spec(tmp_path, "Z"), "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(out.read_text())["qccro"]["member"]


class TestMeasuresCommand:
    """Measure reports."""

    def test_replaceable_gate_measures_vanish(self, tmp_path):
        proc = run_cli("measures", gate_spec(tmp_path, "Z"))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["robustness"] <= 1e-6
        assert report["relative_entropy_bits"] <= 1e-9

    def test_hadamard_measures(self, tmp_path):
        proc = run_cli("measures", gate_spec(tmp_path, "H"))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["robustness"] == pytest.approx(1.0, abs=1e-4)
        assert report["relative_entropy_bits"] == pytest.approx(1.0, abs=1e-6)
        assert report["witness_trace_check"] <= 1e-5

    @pytest.mark.parametrize("d", [16, MAX_DIM])
    def test_random_kraus_spec_at_four_and_five_qubits(self, tmp_path, d):
        """measures and game accept every spec that loads: on a random
        two-operator Kraus spec at d = 16 and 32 both exit 0, the certified
        interval is at most 1e-6 wide, and the game's ratio is 1 + R."""
        spec = random_kraus_spec(tmp_path, d, seed=d)
        measured, played = (run_cli(command, spec) for command in ("measures", "game"))
        assert (measured.returncode, played.returncode) == (0, 0), measured.stderr + played.stderr
        report, game = json.loads(measured.stdout), json.loads(played.stdout)
        assert report["witness_trace_check"] <= 1e-6
        assert game["one_plus_R"] == pytest.approx(1.0 + report["robustness"], abs=1e-9)
        assert game["gap"] <= 1e-6


class TestSweepCommand:
    """CSV sweep output."""

    def test_csv_shape_and_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "u-theta", "--points", "11", "--out", str(out))
        assert proc.returncode == 0
        text = out.read_text()
        assert "\r" not in text
        lines = text.strip().split("\n")
        assert lines[0] == "theta,robustness,relative_entropy_bits,note"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 11
        thetas = np.array([float(r[0]) for r in rows])
        values = np.array([float(r[1]) for r in rows])
        entropies = np.array([float(r[2]) for r in rows])
        assert all(r[3] == "" for r in rows)
        assert thetas[0] == 0.0
        assert thetas[-1] == pytest.approx(np.pi / 2, abs=1e-10)
        assert values[0] <= 1e-6 and values[-1] <= 1e-6
        assert entropies[0] <= 1e-9 and entropies[-1] <= 1e-9
        middle = len(rows) // 2
        assert values.argmax() == middle
        assert entropies.argmax() == middle
        assert np.max(np.abs(values - values[::-1])) < 1e-5

    @pytest.mark.parametrize("points", [50, 11])
    def test_csv_matches_stored_reference(self, tmp_path, points):
        """Byte for byte the CSV that solving the grid one channel at a
        time wrote (``tests/data``)."""
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "u-theta", "--points", str(points), "--out", str(out)]) == 0
        reference = Path(__file__).parent / "data" / f"sweep_u_theta_{points}.csv"
        assert out.read_bytes() == reference.read_bytes()

    def test_sweep_validates_at_tol(self, tmp_path, capsys):
        """The grid's Kraus stack is checked at ``--tol``, as a gate spec
        is: at --tol 0 both the U(pi/4) spec and the 50-point sweep exit 3
        on the rounding of U^dag U, the sweep naming its first grid point
        whose deviation is not zero."""
        spec = gate_spec(tmp_path, "U", np.pi / 4)
        thetas = np.linspace(0.0, np.pi / 2, 50)
        deviations = [
            float(np.max(np.abs(u.conj().T @ u - np.eye(2)))) for u in interpolation_unitary(thetas)
        ]
        first = next(dev for dev in deviations if dev > 0.0)
        for argv, deviation in ((["measures", spec], None), (["sweep", "u-theta"], first)):
            assert cli.main([*argv, "--tol", "0"]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            error = json.loads(captured.err)
            assert error["kind"] == "invalid-channel"
            assert error["error"].startswith("kraus completeness violated by ")
            assert error["error"].endswith(" (tol=0)")
            if deviation is not None:
                assert error["error"] == f"kraus completeness violated by {deviation:.3e} (tol=0)"
        assert cli.main(["sweep", "u-theta", "--points", "2", "--tol", "0"]) == 0

    @pytest.mark.parametrize("points", [2, 9, 50, 257])
    def test_stacked_grid_equals_per_point_path(self, points):
        """Every theta, robustness and entropy of the stacked grid is the
        per-point path's float bit for bit, and every note is equal."""
        got = cli._sweep_grid(points, 1e-9)
        expected = oracles.sweep_per_point(points)
        for column, reference in zip(got[:3], expected[:3]):
            assert np.array(column).tobytes() == np.array(reference).tobytes()
        assert got[3] == expected[3] == [""] * points

    def test_grid_builds_no_channel_or_result(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep built a per-point object")

        monkeypatch.setattr(crolab.channels.Channel, "__init__", refuse)
        monkeypatch.setattr(crolab.measures, "RobustnessResult", refuse)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "u-theta", "--points", "11", "--out", str(out)]) == 0
        reference = Path(__file__).parent / "data" / "sweep_u_theta_11.csv"
        assert out.read_bytes() == reference.read_bytes()

    def test_bad_family_and_points(self, tmp_path):
        proc = run_cli("sweep", "nonsense")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["kind"] == "parse"
        proc = run_cli("sweep", "u-theta", "--points", "1")
        assert proc.returncode == 2


class TestGameCommand:
    """Witness-game verification reports."""

    def test_free_channel_has_unit_ratio(self, tmp_path):
        proc = run_cli("game", gate_spec(tmp_path, "Z"))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["advantage_ratio"] == pytest.approx(1.0, abs=1e-3)
        assert report["gap"] <= 1e-3

    def test_hadamard_game_identity(self, tmp_path):
        proc = run_cli("game", gate_spec(tmp_path, "H"))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["one_plus_R"] == pytest.approx(2.0, abs=1e-4)
        assert report["advantage_ratio"] == pytest.approx(
            report["one_plus_R"], abs=1e-3
        )
        assert report["qccro_max"] <= 1.0 + 1e-6

    def test_three_qubit_hadamard_game(self, tmp_path):
        spec = {"kind": "tensor", "children": [{"kind": "gate", "name": "H"}] * 3}
        proc = run_cli("game", write_spec(tmp_path, "hhh.json", spec))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["gap"] <= 1e-6
        # sigma_max(|H (x) H (x) H|)^2 = 8
        assert report["one_plus_R"] == pytest.approx(8.0, abs=1e-6)

    def test_report_equals_the_state_stack_oracle(self, monkeypatch):
        """Gates, qc members and random channels at d = 1 to 16 of Kraus
        rank 1, 2 and d^2: the report read off the witness eigenpairs
        keeps one eigenpair per state of the replaced state-stack report
        (``oracles.state_stack_game_report``), has the same 1 + R bit for
        bit, and each other number x within 64 d eps (1 + |x|) of it; for
        the gap, a difference of two numbers near 1 + R, x is 1 + R."""
        channels = [named_gate(name) for name in ("H", "Z", "T", "CNOT", "CCX")]
        channels += [cro.random_qccro(d, seed=d) for d in (2, 3, 4)]
        channels += [
            random_channel(d, rank=rank, seed=d) for d in range(1, 17) for rank in (1, 2, d * d)
        ]
        kept = []
        real_witness_game = cli._witness_game

        def recording(channel):
            solved = real_witness_game(channel)
            kept.append(np.count_nonzero(solved[1]))
            return solved

        monkeypatch.setattr(cli, "_witness_game", recording)
        eps = np.finfo(float).eps
        for channel in channels:
            d = channel.dim
            got = cli._game(channel, None)
            want, game = oracles.state_stack_game_report(channel)
            assert kept.pop() == len(game.states)
            assert list(got) == list(want)
            assert got["one_plus_R"] == want["one_plus_R"]
            for key, value in want.items():
                scale = want["one_plus_R"] if key == "gap" else value
                assert abs(got[key] - value) <= 64 * d * eps * (1.0 + abs(scale)), (d, key)


class TestVqaCheckCommand:
    """Pauli-observable replaceability checks."""

    def test_z_gate_with_z_observable(self, tmp_path):
        proc = run_cli("vqa-check", gate_spec(tmp_path, "Z"), "Z")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["member"]
        assert report["replacing_pauli_j"] == "Z"

    def test_s_gate_with_x_observable(self, tmp_path):
        proc = run_cli("vqa-check", gate_spec(tmp_path, "S"), "X")
        report = json.loads(proc.stdout)
        assert report["member"]
        assert report["replacing_pauli_j"] == "Y"

    def test_t_gate_with_x_observable(self, tmp_path):
        proc = run_cli("vqa-check", gate_spec(tmp_path, "T"), "X")
        report = json.loads(proc.stdout)
        assert not report["member"]
        assert report["replacing_pauli_j"] is None

    def test_bad_observable_label(self, tmp_path):
        proc = run_cli("vqa-check", gate_spec(tmp_path, "Z"), "Q")
        assert proc.returncode == 2
        # A label of the wrong length is a parse error, not another string.
        pair = write_spec(
            tmp_path,
            "ih.json",
            {
                "kind": "tensor",
                "children": [
                    {"kind": "gate", "name": "I"},
                    {"kind": "gate", "name": "H"},
                ],
            },
        )
        for label in ("Z", "ZZZ"):
            proc = run_cli("vqa-check", pair, label)
            assert proc.returncode == 2
            assert json.loads(proc.stderr)["kind"] == "parse"
        assert run_cli("vqa-check", pair, "IZ").returncode == 0

    def test_three_qubit_gates_with_zzz(self, tmp_path):
        """CCZ = (I I H) CCX (I I H) commutes with ZZZ; CCX maps it to a sum
        of four strings, so no single ZZZ-type measurement replaces it."""
        ih = [{"kind": "gate", "name": "I"}] * 2 + [{"kind": "gate", "name": "H"}]
        sandwich = {"kind": "tensor", "children": ih}
        ccx = {"kind": "gate", "name": "CCX"}
        ccz = {"kind": "composition", "children": [sandwich, ccx, sandwich]}
        proc = run_cli("vqa-check", write_spec(tmp_path, "ccz.json", ccz), "ZZZ")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["member"]
        assert report["replacing_pauli_j"] == "ZZZ"

        proc = run_cli("vqa-check", gate_spec(tmp_path, "CCX"), "ZZZ")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert not report["member"]
        assert report["replacing_pauli_j"] is None

    def test_five_qubit_hadamards(self, tmp_path):
        """vqa-check takes up to five qubits: H^5 maps ZZZZZ to XXXXX."""
        spec = {"kind": "tensor", "children": [{"kind": "gate", "name": "H"}] * 5}
        proc = run_cli("vqa-check", write_spec(tmp_path, "h5.json", spec), "ZZZZZ")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert (report["member"], report["replacing_pauli_j"]) == (True, "XXXXX")


class TestSpecParsing:
    """Specification file handling and error codes."""

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        proc = run_cli("classify", str(path))
        assert proc.returncode == 2
        diagnostic = json.loads(proc.stderr)
        assert diagnostic["kind"] == "parse"

    def test_unknown_kind_exits_2(self, tmp_path):
        path = write_spec(tmp_path, "weird.json", {"kind": "teleport"})
        proc = run_cli("classify", path)
        assert proc.returncode == 2

    def test_unknown_gate_exits_2(self, tmp_path):
        path = write_spec(
            tmp_path, "gate.json", {"kind": "gate", "name": "WARP"}
        )
        proc = run_cli("classify", path)
        assert proc.returncode == 2

    def test_invalid_choi_exits_3(self, tmp_path):
        matrix = [
            [[1.0, 0.0] if (r == 0 and c == 0) else [0.0, 0.0] for c in range(4)]
            for r in range(4)
        ]
        path = write_spec(
            tmp_path, "choi.json", {"kind": "choi", "dim": 2, "matrix": matrix}
        )
        proc = run_cli("classify", path)
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["kind"] == "invalid-channel"

    def test_gate_failing_validation_exits_3(self, tmp_path):
        """A known gate whose channel fails validation is an invalid
        channel, as the same unitary given as a Kraus spec would be."""
        proc = run_cli("classify", gate_spec(tmp_path, "H"), "--tol", "1e-18")
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["kind"] == "invalid-channel"

    _INFINITE_KRAUS = {
        "kind": "kraus",
        "dim": 2,
        "operators": [[[[float("inf"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
    }
    _INFINITE_CHOI = {"kind": "choi", "dim": 1, "matrix": [[[float("inf"), 0.0]]]}
    _NOT_HERMITIAN = "choi matrix is not Hermitian within tol=1e-09"

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"kind": "kraus", "dim": 1, "operators": [[[[float("inf"), 0.0]]]]},
                "kraus completeness violated by inf (tol=1e-09)",
            ),
            ({"kind": "tensor", "children": [{"kind": "gate", "name": "H"}, _INFINITE_KRAUS]}, _NOT_HERMITIAN),
            ({"kind": "composition", "children": [{"kind": "gate", "name": "H"}, _INFINITE_KRAUS]}, _NOT_HERMITIAN),
            (_INFINITE_CHOI, _NOT_HERMITIAN),
            ({"kind": "tensor", "children": [{"kind": "gate", "name": "H"}, _INFINITE_CHOI]}, _NOT_HERMITIAN),
        ],
        ids=["kraus", "tensor", "composition", "choi", "choi-in-tensor"],
    )
    def test_infinite_entry_gives_one_json_diagnostic(self, tmp_path, spec, message):
        """A spec with an infinite entry exits 3, and stderr holds only its
        JSON diagnostic: no numpy warning precedes it."""
        proc = run_cli("classify", write_spec(tmp_path, "infinite.json", spec))
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr) == {"kind": "invalid-channel", "error": message}

    def test_missing_file_exits_2(self, tmp_path):
        proc = run_cli("classify", str(tmp_path / "absent.json"))
        assert proc.returncode == 2

    def test_composition_and_tensor_kinds(self, tmp_path):
        dephasing_kraus = {
            "kind": "kraus",
            "dim": 2,
            "operators": [
                [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
                [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
            ],
        }
        spec = {
            "kind": "composition",
            "children": [{"kind": "gate", "name": "H"}, dephasing_kraus],
        }
        path = write_spec(tmp_path, "dh.json", spec)
        proc = run_cli("classify", path)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["cqcro"]["member"]
        assert not report["dio"]["member"]

        pair = {
            "kind": "tensor",
            "children": [
                {"kind": "gate", "name": "Z"},
                {"kind": "gate", "name": "X"},
            ],
        }
        path = write_spec(tmp_path, "zx.json", pair)
        proc = run_cli("classify", path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["qccro"]["member"]

    def test_choi_kind_accepts_valid_channel(self, tmp_path):
        choi = np.zeros((4, 4), dtype=complex)
        choi[0, 0] = choi[3, 3] = 0.5
        choi[0, 3] = choi[3, 0] = 0.5
        matrix = [
            [[float(np.real(x)), float(np.imag(x))] for x in row]
            for row in choi
        ]
        path = write_spec(
            tmp_path, "identity.json", {"kind": "choi", "dim": 2, "matrix": matrix}
        )
        proc = run_cli("classify", path)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        # The identity channel is replaceable when followed by the
        # measurement (the classical processing is the identity relabeling),
        # but its Choi state is maximally entangled, hence not PPT.
        assert report["qccro"]["member"]
        assert not report["qqcro"]["member"]
        assert report["replacement"] == [[1.0, 0.0], [0.0, 1.0]]
        assert report["eb_ppt"]["min_eigenvalue"] == pytest.approx(-0.5, abs=1e-9)

    def test_gate_with_theta_parameter(self, tmp_path):
        path = gate_spec(tmp_path, "U", theta=float(np.pi / 4))
        proc = run_cli("measures", path)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["robustness"] == pytest.approx(1.0, abs=1e-4)

    def test_determinism_across_runs(self, tmp_path):
        path = gate_spec(tmp_path, "H")
        first = run_cli("measures", path)
        second = run_cli("measures", path)
        assert first.stdout == second.stdout

        # A d = 4 game, H (x) U(0.4), under one and two BLAS threads.
        spec = {
            "kind": "tensor",
            "children": [
                {"kind": "gate", "name": "H"},
                {"kind": "gate", "name": "U", "params": {"theta": 0.4}},
            ],
        }
        path = write_spec(tmp_path, "h_u.json", spec)
        outputs = [
            run_cli("game", path, env={"OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")
        ]
        assert [p.returncode for p in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout

        # d = 8 measures, game and vqa-check, H (x) U(0.4) (x) amplitude
        # damping, which the closed form leaves to the interior point: the
        # batched inv, cholesky and solve of its steps, the batched eigh of
        # the witness blocks, and the Pauli pull-back.
        spec["children"].append(
            {
                "kind": "kraus",
                "dim": 2,
                "operators": [
                    [[[1, 0], [0, 0]], [[0, 0], [0.8, 0]]],
                    [[[0, 0], [0.6, 0]], [[0, 0], [0, 0]]],
                ],
            }
        )
        path = write_spec(tmp_path, "h_u_damp.json", spec)
        for command in (["measures"], ["game"], ["vqa-check", "ZZZ"]):
            outputs = [
                run_cli(command[0], path, *command[1:], env={"OPENBLAS_NUM_THREADS": threads})
                for threads in ("1", "2")
            ]
            assert [p.returncode for p in outputs] == [0, 0]
            assert outputs[0].stdout == outputs[1].stdout

        # d = 8 classify of that tensor followed by CCX, composed through
        # choi_apply.
        composed = {"kind": "composition", "children": [spec, {"kind": "gate", "name": "CCX"}]}
        path = write_spec(tmp_path, "h_u_damp_ccx.json", composed)
        outputs = [run_cli("classify", path, env={"OPENBLAS_NUM_THREADS": threads}) for threads in ("1", "2")]
        assert [p.returncode for p in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout


    def test_sweep_and_gate_measures_ignore_thread_count(self, tmp_path):
        """The 50-point sweep CSV, measures on gate specs, which the closed
        form settles (game too on CNOT), classify on CCX and on a d = 32
        one-Kraus unitary, and measures and game on random two-operator
        Kraus specs at d = 16 and 32 are byte for byte the same under one
        and two BLAS threads.  One interpreter per thread count runs every
        command."""
        runs = [("sweep", "u-theta", "--points", "50")]
        for name, theta in (("CNOT", None), ("CCX", None), ("U", 0.3)):
            runs.append(("measures", gate_spec(tmp_path, name, theta)))
        runs.append(("game", gate_spec(tmp_path, "CNOT")))
        # classify, whose one-Kraus PPT minimum comes from an SVD that may
        # thread at d = 32.
        u = oracles.haar_unitary(32, np.random.default_rng(32))
        unitary = _kraus_spec([np.stack([u.real, u.imag], axis=-1).tolist()], dim=32)
        runs.append(("classify", gate_spec(tmp_path, "CCX")))
        runs.append(("classify", write_spec(tmp_path, "haar32.json", unitary)))
        for d in (16, MAX_DIM):
            spec = random_kraus_spec(tmp_path, d, seed=d)
            runs += [("measures", spec), ("game", spec)]
        one, two = (run_cli_all(runs, env={"OPENBLAS_NUM_THREADS": n}) for n in ("1", "2"))
        assert len(one) == len(two) == len(runs)
        for argv, outputs in zip(runs, zip(one, two)):
            assert [code for code, _ in outputs] == [0, 0], argv
            assert outputs[0][1] == outputs[1][1], argv


class TestPipeline:
    """The load-report-write path that every command shares, in process."""

    def test_repeated_calls_agree_and_build_the_parser_once(self, tmp_path):
        spec = gate_spec(tmp_path, "S")
        cli._build_parser.cache_clear()
        for argv in (["classify", spec], ["vqa-check", spec, "X"]):
            texts = []
            for k in range(2):
                out = tmp_path / f"{argv[0]}-{k}.json"
                assert cli.main([*argv, "--out", str(out)]) == 0
                texts.append(out.read_bytes())
            assert texts[0] == texts[1]
        assert cli._build_parser.cache_info().misses == 1

    def test_out_into_missing_directory_is_an_io_error(self, tmp_path, capsys):
        out = tmp_path / "absent" / "report.json"
        assert cli.main(["classify", gate_spec(tmp_path, "Z"), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["kind"] == "io"

    def test_import_leaves_the_generic_solver_unloaded(self):
        """No command runs ``crolab.sdp``, so importing the CLI does not
        load it; only the cross-check ``robustness_equivalents`` does."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        code = "import sys, crolab.cli; print('crolab.sdp' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_commands_build_no_robustness_result(self, tmp_path, capsys, monkeypatch):
        """Every command, on the H gate (d = 2) and on a random two-operator
        Kraus spec at d = 4, and the sweep, writes the same bytes with
        ``measures.RobustnessResult`` and ``measures.choi_from_output_blocks``
        refused, and ``game`` also with ``game.certified_game``,
        ``game.payoff`` and ``linalg.assert_density_matrix`` refused:
        ``measures`` and ``game`` read ``_solve_chois``' blocks, and
        ``game`` the eigenpairs of its dual blocks.  Their reports hold the
        values of the paths they replaced, through ``robustness``' result
        (``oracles.result_witness_game``): the robustness, width and 1 + R
        bit for bit, the payoff of the replaced state-stack report
        (``oracles.state_stack_game_report``) within 64 d eps (1 + |x|)."""
        specs = [(gate_spec(tmp_path, "H"), "Z"), (random_kraus_spec(tmp_path, 4, seed=4), "ZZ")]
        runs = [("sweep", "u-theta", "--points", "11")]
        for spec, label in specs:
            runs += [("classify", spec), ("measures", spec), ("game", spec), ("vqa-check", spec, label)]
        expected = [_main(capsys, *run) for run in runs]
        assert all((code, err) == (0, "") for code, _, err in expected)
        for spec, _ in specs:
            channel = cli.load_channel(spec, 1e-9)
            report, _ = oracles.state_stack_game_report(channel)
            result = oracles.result_witness_game(channel)[2]
            measured = json.loads(expected[runs.index(("measures", spec))][1])
            assert measured["robustness"] == result.value
            assert measured["witness_trace_check"] == result.residuals["witness_pairing"]
            played = json.loads(expected[runs.index(("game", spec))][1])
            assert played["one_plus_R"] == 1.0 + result.value
            bound = 64 * channel.dim * np.finfo(float).eps * (1.0 + abs(report["payoff"]))
            assert abs(played["payoff"] - report["payoff"]) <= bound

        def refuse(*args, **kwargs):
            raise AssertionError("a command built a robustness result or a game's states")

        monkeypatch.setattr(crolab.measures, "RobustnessResult", refuse)
        monkeypatch.setattr(crolab.measures, "choi_from_output_blocks", refuse)
        for run, reference in zip(runs, expected):
            with monkeypatch.context() as patch:
                if run[0] == "game":
                    for module, name in (
                        (crolab.game, "certified_game"),
                        (crolab.game, "payoff"),
                        (crolab.game, "assert_density_matrix"),
                        (crolab.linalg, "assert_density_matrix"),
                    ):
                        patch.setattr(module, name, refuse)
                assert _main(capsys, *run) == reference

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_tol_must_be_finite_and_nonnegative(self, tmp_path, capsys, tol):
        spec = gate_spec(tmp_path, "Z")
        commands = (
            ["classify", spec],
            ["measures", spec],
            ["sweep", "u-theta"],
            ["game", spec],
            ["vqa-check", spec, "Z"],
        )
        for argv in commands:
            assert cli.main([*argv, "--tol", tol]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err)["kind"] == "parse"


def _kraus_spec(operators, dim=2):
    return {"kind": "kraus", "dim": dim, "operators": operators}


def _nested_text(depth):
    """A composition ``depth`` levels deep around one H gate, as JSON text."""
    head = '{"kind": "composition", "children": ['
    return head * depth + '{"kind": "gate", "name": "H"}' + "]}" * depth


def _theta_text(value):
    return '{"kind": "gate", "name": "U", "params": {"theta": %s}}' % value


MALFORMED_SPECS = {
    "ragged-row": json.dumps(_kraus_spec([[[[1, 0], [0, 0]], [[0, 0]]]])),
    "string-entry": json.dumps(_kraus_spec([[[[1, 0], ["0", 0]], [[0, 0], [1, 0]]]])),
    "null-operators": json.dumps(_kraus_spec(None)),
    "three-number-pair": json.dumps(
        _kraus_spec([[[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]])
    ),
    "empty-matrix": json.dumps({"kind": "choi", "dim": 2, "matrix": []}),
    "dict-operators": json.dumps(_kraus_spec({})),
    "integer-beyond-float": json.dumps(
        _kraus_spec([[[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]])
    ),
    "all-boolean": json.dumps(
        _kraus_spec([[[[True, False], [False, False]], [[False, False], [True, False]]]])
    ),
    "shape-not-dim": json.dumps(_kraus_spec([[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], dim=3)),
    "nested-5000": _nested_text(5000),
    "theta-nan": _theta_text("NaN"),
    "theta-infinity": _theta_text("-Infinity"),
    "theta-beyond-float": _theta_text(10**400),
}


def _main(capsys, *argv):
    """Exit code, stdout and stderr of ``crolab argv`` run in this process."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _one_diagnostic(err):
    assert err.count("\n") == 1, err
    return json.loads(err)["kind"]


_PAIR_ENTRIES = st.one_of(
    st.integers(-(2**63), 2**63 - 1), st.floats(), st.sampled_from([0, 0.0, -0.0])
)


@st.composite
def _pair_stacks(draw):
    """``count`` matrices of one shape, as nested ``[re, im]`` lists."""
    count, rows, cols = (draw(st.integers(1, 3)) for _ in range(3))
    return [
        [[[draw(_PAIR_ENTRIES), draw(_PAIR_ENTRIES)] for _ in range(cols)] for _ in range(rows)]
        for _ in range(count)
    ]


class TestSpecDecoding:
    """Spec matrices read as whole arrays, against the per-entry decoder."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=60)
    @given(_pair_stacks())
    def test_matches_per_entry_decoder_bit_for_bit(self, stack):
        expected = np.array([oracles.decode_pair_matrix(m) for m in stack])
        ops = cli._as_complex_array(stack, "ops", 3)
        first = cli._as_complex_array(stack[0], "m", 2)
        assert ops.shape == expected.shape and ops.tobytes() == expected.tobytes()
        assert first.shape == expected[0].shape and first.tobytes() == expected[0].tobytes()

    def test_signed_zeros_and_integers(self):
        node = [[[-0.0, 0], [0, -0.0]], [[-1, 2**62 + 1], [0.5, -3]]]
        got = cli._as_complex_array(node, "m", 2)
        assert got.tobytes() == oracles.decode_pair_matrix(node).tobytes()
        assert np.signbit(got[0, 0].real) and np.signbit(got[0, 1].imag)
        assert not np.signbit(got[0, 0].imag)

    @pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
    def test_malformed_spec_is_a_parse_error(self, tmp_path, capsys, name):
        path = tmp_path / "spec.json"
        path.write_text(MALFORMED_SPECS[name], encoding="utf-8")
        code, out, err = _main(capsys, "classify", str(path))
        assert (code, out, _one_diagnostic(err)) == (2, "", "parse")

    def test_recursion_in_the_spec_walk_is_a_parse_error(self, tmp_path, capsys, monkeypatch):
        def overflow(node, where, tol):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "_parse_spec_node", overflow)
        code, out, err = _main(capsys, "classify", gate_spec(tmp_path, "H"))
        assert (code, out, _one_diagnostic(err)) == (2, "", "parse")


class TestConstructionSkipsEigendecomposition:
    """Channels that the loader builds from gates, Kraus lists, tensors and
    compositions are positive by construction; only Choi leaves, and a
    construction whose bound misses the floor, are eigendecomposed."""

    @staticmethod
    def _count_eigvalsh(monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m.shape) or eigvalsh(m))
        return calls

    @staticmethod
    def _kraus(d, rank, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(rank * d, d)) + 1j * rng.normal(size=(rank * d, d))
        ops = np.linalg.qr(g)[0].reshape(rank, d, d)
        return _kraus_spec(np.stack([ops.real, ops.imag], axis=-1).tolist(), dim=d)

    def test_gate_tensor_and_kraus_composition_load_without_eigvalsh(self, tmp_path, monkeypatch):
        calls = self._count_eigvalsh(monkeypatch)
        gates = {"kind": "tensor", "children": [
            {"kind": "gate", "name": name} for name in ("H", "CNOT", "T")
        ]}
        assert cli.load_channel(write_spec(tmp_path, "d16.json", gates), 1e-9).dim == 16
        kraus = {"kind": "composition", "children": [self._kraus(3, 2, s) for s in range(5)]}
        assert cli.load_channel(write_spec(tmp_path, "comp.json", kraus), 1e-9).dim == 3
        assert calls == []

    @pytest.mark.parametrize("kind", ["tensor", "composition"])
    def test_negative_choi_child_still_exits_3(self, tmp_path, capsys, monkeypatch, kind):
        calls = self._count_eigvalsh(monkeypatch)
        choi = np.zeros((4, 4))
        choi[0, 0] = choi[3, 3] = choi[0, 3] = choi[3, 0] = 0.5
        choi = 1.001 * choi - 1e-3 * np.eye(4) / 4  # spectrum down to -2.5e-4
        leaf = {"kind": "choi", "dim": 2, "matrix": np.stack([choi, 0 * choi], -1).tolist()}
        spec = {"kind": kind, "children": [{"kind": "gate", "name": "H"}, leaf, self._kraus(2, 2, 0)]}
        code, out, err = _main(capsys, "classify", write_spec(tmp_path, "bad.json", spec))
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "kind": "invalid-channel",
            "error": "choi matrix has negative eigenvalue -2.500e-04",
        }
        assert calls == [(1, 4, 4)]


class TestSpecLimits:
    """The dimension cap, the spec work bound and the sweep point
    bound, at and past the edge."""

    @pytest.mark.parametrize("kind, key", [("kraus", "operators"), ("choi", "matrix")])
    def test_leaf_dim_is_refused_before_decoding(self, tmp_path, capsys, kind, key):
        # The matrix is null: at the cap it is decoded and refused as a parse
        # error; past the cap the dimension is refused first.
        for dim, code, diagnostic in (
            (MAX_DIM, 2, "parse"),
            (MAX_DIM + 1, 3, "invalid-channel"),
        ):
            spec = write_spec(tmp_path, "leaf.json", {"kind": kind, "dim": dim, key: None})
            got = _main(capsys, "classify", spec)
            assert (got[0], got[1], _one_diagnostic(got[2])) == (code, "", diagnostic)

    def test_tensor_is_refused_before_any_product(self, tmp_path, monkeypatch):
        """Five H gates load as one Kraus product, and six are refused
        before any product: neither the Kraus product nor ``tensor`` runs."""
        calls = []
        real_product, real_tensor = cli._kraus_product, cli.tensor

        def counting_product(kind, stacks):
            calls.append((kind, [s.shape[-1] for s in stacks]))
            return real_product(kind, stacks)

        def counting_tensor(a, b, tol):
            calls.append(("channel tensor", [a.dim, b.dim]))
            return real_tensor(a, b, tol)

        monkeypatch.setattr(cli, "_kraus_product", counting_product)
        monkeypatch.setattr(cli, "tensor", counting_tensor)
        h = {"kind": "gate", "name": "H"}
        five = write_spec(tmp_path, "h5.json", {"kind": "tensor", "children": [h] * 5})
        assert cli.load_channel(five, 1e-9).dim == MAX_DIM
        assert calls == [("tensor", [2] * 5)]
        calls.clear()
        six = write_spec(tmp_path, "h6.json", {"kind": "tensor", "children": [h] * 6})
        with pytest.raises(ValueError, match="dimension 64 exceeds"):
            cli.load_channel(six, 1e-9)
        assert calls == []

    def test_six_hadamard_tensor_is_refused_quickly(self, tmp_path, capsys):
        h = {"kind": "gate", "name": "H"}
        spec = write_spec(tmp_path, "h6.json", {"kind": "tensor", "children": [h] * 6})
        start = time.perf_counter()
        code, out, err = _main(capsys, "classify", spec)
        assert time.perf_counter() - start < 1.0
        assert (code, out, _one_diagnostic(err)) == (3, "", "invalid-channel")

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "kraus", "dim": True, "operators": [[[[1, 0]]]]},
            {"kind": "kraus", "dim": False, "operators": [[[[1, 0]]]]},
            {"kind": "choi", "dim": True, "matrix": [[[1, 0]]]},
            {"kind": "gate", "name": "U", "params": {"theta": True}},
        ],
        ids=["kraus-dim-true", "kraus-dim-false", "choi-dim-true", "theta-true"],
    )
    def test_json_booleans_are_parse_errors(self, tmp_path, capsys, spec):
        path = write_spec(tmp_path, "bool.json", spec)
        code, out, err = _main(capsys, "classify", path)
        assert (code, out, _one_diagnostic(err)) == (2, "", "parse")

    def test_spec_work_bound_at_its_edge(self, tmp_path, capsys, monkeypatch):
        """A composition of four H gates costs 4 + 3 channels of d^6 = 64:
        with the bound at that work it loads, one below it is refused."""
        h = {"kind": "gate", "name": "H"}
        spec = write_spec(tmp_path, "h4.json", {"kind": "composition", "children": [h] * 4})
        monkeypatch.setattr(cli, "MAX_SPEC_WORK", 7 * 2**6)
        assert cli.load_channel(spec, 1e-9).dim == 2
        monkeypatch.setattr(cli, "MAX_SPEC_WORK", 7 * 2**6 - 1)
        code, out, err = _main(capsys, "classify", spec)
        assert (code, out, _one_diagnostic(err)) == (3, "", "invalid-channel")

    @pytest.mark.parametrize("kind, key", [("kraus", "operators"), ("choi", "matrix")])
    def test_spec_work_is_bounded_before_decoding(self, tmp_path, capsys, kind, key):
        """Four d = 32 children cost 4 + 3 channels of the largest dimension
        and reach the decoder (a null matrix is a parse error); a fifth
        child costs 9, above the bound of 8, and is refused first."""
        leaf = {"kind": kind, "dim": MAX_DIM, key: None}
        for children, code, diagnostic in ((4, 2, "parse"), (5, 3, "invalid-channel")):
            spec = write_spec(
                tmp_path, "wide.json", {"kind": "composition", "children": [leaf] * children}
            )
            got = _main(capsys, "classify", spec)
            assert (got[0], got[1], _one_diagnostic(got[2])) == (code, "", diagnostic)

    def test_eight_five_hadamard_composition_is_refused_quickly(self, tmp_path, capsys):
        h = {"kind": "gate", "name": "H"}
        five = {"kind": "tensor", "children": [h] * 5}
        spec = write_spec(tmp_path, "wide.json", {"kind": "composition", "children": [five] * 8})
        start = time.perf_counter()
        code, out, err = _main(capsys, "classify", spec)
        assert time.perf_counter() - start < 1.0
        assert (code, out, _one_diagnostic(err)) == (3, "", "invalid-channel")
        assert "above the limit of 8" in json.loads(err)["error"]

    def test_sweep_points_bound(self, tmp_path, capsys, monkeypatch):
        built = []
        real_unitaries = cli.interpolation_unitary

        def unitaries(thetas):
            built.extend(thetas)
            return real_unitaries(thetas)

        def failing_solve(chois):
            n = len(chois)
            return np.zeros(n), None, None, np.zeros(n), {}, ["stub"] * n

        monkeypatch.setattr(cli, "interpolation_unitary", unitaries)
        monkeypatch.setattr(cli, "_solve_chois", failing_solve)
        out = tmp_path / "sweep.csv"
        edge = cli.MAX_SWEEP_POINTS
        assert cli.main(["sweep", "u-theta", "--points", str(edge), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == edge + 1 == len(built) + 1
        built.clear()
        code, stdout, err = _main(capsys, "sweep", "u-theta", "--points", str(edge + 1))
        assert (code, stdout, _one_diagnostic(err)) == (2, "", "parse")
        assert built == []
