"""Tests for the command-line interface, run through subprocesses, and in
this process where a test pins the shared command pipeline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import crolab
from crolab import cli
from crolab.channels import apply, named_gate

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


def write_spec(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def gate_spec(tmp_path, name, theta=None):
    payload = {"kind": "gate", "name": name}
    if theta is not None:
        payload["params"] = {"theta": theta}
    return write_spec(tmp_path, f"{name.lower()}.json", payload)


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
        # damping: the batched inv, cholesky and solve of the interior-point
        # steps, the batched eigh of the witness blocks, and the Pauli
        # pull-back.
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

        # The stacked solve of a 50-point sweep.
        outputs = [
            run_cli("sweep", "u-theta", "--points", "50", env={"OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")
        ]
        assert [p.returncode for p in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout

        # d = 8 classify of that tensor followed by CCX: compose through
        # choi_apply and the non-members' probe witnesses.
        composed = {"kind": "composition", "children": [spec, {"kind": "gate", "name": "CCX"}]}
        path = write_spec(tmp_path, "h_u_damp_ccx.json", composed)
        outputs = [run_cli("classify", path, env={"OPENBLAS_NUM_THREADS": threads}) for threads in ("1", "2")]
        assert [p.returncode for p in outputs] == [0, 0]
        assert outputs[0].stdout == outputs[1].stdout


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
