"""Self-test of the benchmark's checkers and reference answers.

    python3 bench/selftest.py

Each checker gets an output built from the expected answers, which it must
pass, and deliberately wrong variants (a perturbed R, a flipped membership,
a wrong replacing Pauli, ...), each of which it must flag.  The oracle is
tested on answers known in closed form, and the stored d=4 intervals are
derived again.  Uses numpy alone; exits 1 if any case goes the wrong way.
"""

import copy
import sys

import numpy as np

import checks
import oracle
import specs

FAILURES = []


def case(label, kind, output, exp, should_pass):
    found = checks.problems(kind, output, exp)
    ok = (not found) == should_pass
    verdict = "passes" if not found else "flagged"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}" + (f" ({found[0]})" if found else ""))
    if not ok:
        FAILURES.append(label)


def fact(label, ok):
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def variant(report, path, value):
    out = copy.deepcopy(report)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]]) if callable(value) else value
    return out


def sweep_text(points, bump_row=None):
    lines = [checks.SWEEP_HEADER]
    for k, theta in enumerate(np.linspace(0.0, np.pi / 2, points)):
        r = abs(np.sin(2 * theta)) + (1e-3 if k == bump_row else 0.0)
        c = oracle.binary_entropy(np.cos(theta) ** 2)
        lines.append(f"{theta:.12g},{r:.12g},{c:.12g},")
    return "\n".join(lines) + "\n"


def main():
    rng = np.random.default_rng(7)

    # sweep
    exp = {"points": 9}
    case("sweep, correct", "sweep", sweep_text(9), exp, True)
    case("sweep, R perturbed by 1e-3", "sweep", sweep_text(9, bump_row=4), exp, False)
    case("sweep, a row missing", "sweep", sweep_text(8), exp, False)
    noted = sweep_text(9).replace(",\n", ",solver failed\n", 1)
    fact("sweep, a note is reported", checks.sweep_notes(noted) == ["solver failed"])

    # measures and game on a relabelled qubit unitary, R = |sin 0.6|
    qubit = specs.qubit_probe(0.3, rng)
    cmd = specs.Command("measures", "q.json")
    exp = checks.expected(cmd, qubit)
    r = abs(np.sin(0.6))
    good = {
        "robustness": r,
        "relative_entropy_bits": oracle.binary_entropy(np.cos(0.3) ** 2),
        "witness_trace_check": 1e-9,
    }
    case("measures, correct", "measures", good, exp, True)
    case("measures, R + 1e-3", "measures", variant(good, ["robustness"], r + 1e-3), exp, False)
    case("measures, R = 0 on a non-member", "measures", variant(good, ["robustness"], 0.0), exp, False)
    case("measures, entropy + 1e-6", "measures",
         variant(good, ["relative_entropy_bits"], lambda v: v + 1e-6), exp, False)
    case("measures, witness pairing 1e-3", "measures",
         variant(good, ["witness_trace_check"], 1e-3), exp, False)
    cnot = specs.gate("CNOT")
    cnot = specs.with_ref(cnot, *oracle.robustness_interval(cnot.choi, 4))
    exp_cnot = checks.expected(cmd, cnot)
    zero = {"robustness": 0.0, "relative_entropy_bits": 0.0, "witness_trace_check": 0.0}
    case("measures, CNOT with R = 0", "measures", zero, exp_cnot, True)
    case("measures, CNOT with R = 0.1 (member with R > 0)", "measures",
         variant(zero, ["robustness"], 0.1), exp_cnot, False)

    game = {
        "payoff": (1 + r) * 0.75,
        "qccro_max": 0.75,
        "qccro_min": -0.5,
        "advantage_ratio": 1 + r,
        "one_plus_R": 1 + r,
        "gap": 0.0,
    }
    case("game, correct", "game", game, exp, True)
    case("game, advantage ratio off by 1e-2", "game",
         variant(game, ["advantage_ratio"], lambda v: v + 1e-2), exp, False)
    case("game, qccro_max above 1", "game", variant(game, ["qccro_max"], 1.01), exp, False)
    case("game, one_plus_R off by 1e-3", "game",
         variant(game, ["one_plus_R"], lambda v: v + 1e-3), exp, False)
    case("game, flat normalization, min above max by 6e-15", "game",
         variant(game, ["qccro_min"], 0.75 + 6e-15), exp, True)
    case("game, min above max by 0.1", "game", variant(game, ["qccro_min"], 0.85), exp, False)

    # classify on CNOT: cq, qc and DIO members, qq not
    exp = checks.expected(specs.Command("classify", "c.json"), cnot)
    good = {
        key: {"member": res <= checks.TOL, "residual": res}
        for key, res in exp["residuals"].items()
    }
    good["replacement"] = exp["replacement"].tolist()
    good["eb_ppt"] = {"status": "not_eb_confirmed", "min_eigenvalue": exp["ppt_min"]}
    case("classify, correct", "classify", good, exp, True)
    case("classify, qc membership flipped", "classify",
         variant(good, ["qccro", "member"], False), exp, False)
    case("classify, qq membership flipped", "classify",
         variant(good, ["qqcro", "member"], True), exp, False)
    case("classify, replacement columns swapped", "classify",
         variant(good, ["replacement"], lambda t: [row[::-1] for row in t]), exp, False)
    case("classify, eb status wrong", "classify",
         variant(good, ["eb_ppt", "status"], "inconclusive"), exp, False)

    # vqa-check: CCX before ZZZ is not a member; H before Z is
    ccx = specs.gate("CCX")
    zzz = oracle.pauli_index("ZZZ")
    _, residuals = oracle.vqa_identity(ccx.kraus, [zzz], checks.TOL)
    fact("oracle, CCX/ZZZ identity residual at j = ZZZ is 3/128",
         abs(residuals[zzz] - 3 / 128) < 1e-15)
    exp = checks.expected(specs.Command("vqa-check", "x.json", ("ZZZ",)), ccx)
    not_member = {"member": False, "replacing_pauli_j": None}
    case("vqa, CCX/ZZZ not a member", "vqa-check", not_member, exp, True)
    case("vqa, CCX/ZZZ claimed member with j = ZZZ", "vqa-check",
         {"member": True, "replacing_pauli_j": "ZZZ"}, exp, False)
    exp = checks.expected(specs.Command("vqa-check", "h.json", ("Z",)), specs.gate("H"))
    fact("oracle, H before Z is replaced by j = X", exp["label"] == "X")
    case("vqa, H/Z with j = X", "vqa-check", {"member": True, "replacing_pauli_j": "X"}, exp, True)
    case("vqa, H/Z with a wrong j", "vqa-check",
         {"member": True, "replacing_pauli_j": "Y"}, exp, False)
    case("vqa, H/Z membership flipped", "vqa-check", not_member, exp, False)

    # the robustness oracle on closed forms, and the stored intervals
    for theta in (0.3, np.pi / 8):
        u = specs.u_theta(theta)
        node = specs.relabel(specs.tensor(specs.kraus([u]), specs.gate("I")), rng)
        lower, upper = oracle.robustness_interval(node.choi, 4)
        want = abs(np.sin(2 * theta))
        fact(f"oracle, interval of U({theta:.4f}) (x) I holds |sin 2 theta|",
             lower - 1e-9 <= want <= upper + 1e-9 and upper - lower < 1e-6)
    stored = specs.load_reference()
    for name, node in specs.witness_bases().items():
        kept = stored[name]
        lower, upper = oracle.robustness_interval(kept.choi, 4)
        fact(f"reference, stored {name} input drawn again and its interval derived again",
             np.max(np.abs(node.choi - kept.choi)) < 1e-12
             and abs(lower - kept.r_ref[0]) < 1e-9 and abs(upper - kept.r_ref[1]) < 1e-9)
        moved = specs.relabel(kept, rng)
        before = oracle.mask_residuals(kept.choi, 4)
        after = oracle.mask_residuals(moved.choi, 4)
        fact(f"reference, relabelled {name} keeps memberships and entropy",
             all((before[k] <= checks.TOL) == (after[k] <= checks.TOL) for k in before)
             and abs(oracle.relative_entropy_bits(moved.choi, 4)
                     - oracle.relative_entropy_bits(kept.choi, 4)) < 1e-12)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
