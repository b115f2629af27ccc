"""Checks of each CLI command's output against independent answers.

``expected(command, node)`` derives what a correct output must say from the
spec's Kraus operators with ``oracle`` (numpy alone), and
``problems(kind, output, expectation)`` lists every way the output misses
it.  An empty list is a pass.  ``selftest.py`` feeds each checker wrong
outputs to show that they are caught.
"""

import numpy as np

import oracle

TOL = 1e-9  # the CLI's default --tol: membership and identity residuals
# crolab's solver stops at relative duality gap 1e-7 and feasibility 1e-8,
# which puts its robustness within a few 1e-7 of the optimum.
R_TOL = 1e-5
ENTROPY_TOL = 1e-9
WITNESS_TOL = 1e-6
ADVANTAGE_TOL = 1e-3
SWEEP_HEADER = "theta,robustness,relative_entropy_bits,note"


def expected(command, node):
    kind = command.kind
    if kind == "sweep":
        return {"points": int(command.args[-1])}
    d, choi = node.dim, node.choi
    masks = oracle.mask_residuals(choi, d)
    if kind in ("measures", "game"):
        return {
            "r_ref": node.r_ref,
            "entropy": oracle.relative_entropy_bits(choi, d),
            "qc_member": masks["qccro"] <= TOL,
        }
    if kind == "classify":
        member = any(v <= TOL for v in masks.values())
        return {
            "dim": d,
            "residuals": masks,
            "replacement": oracle.replacement_matrix(choi, d) if member else None,
            "ppt_min": oracle.ppt_min_eigenvalue(choi, d),
        }
    if kind == "vqa-check":
        n = int(round(np.log2(d)))
        observables = [oracle.pauli_index(label) for label in command.args]
        j, _ = oracle.vqa_identity(node.kraus, observables, TOL)
        return {"label": None if j is None else oracle.pauli_label(j, n)}
    raise ValueError(f"unknown command {kind!r}")


def _near(name, got, want, tol):
    if not abs(got - want) <= tol:
        return [f"{name} = {got:.12g}, expected {want:.12g} within {tol:g}"]
    return []


def _robustness(name, r, r_ref):
    lower, upper = r_ref
    if not lower - R_TOL <= r <= upper + R_TOL:
        return [f"{name} = {r:.12g} outside the reference [{lower:.12g}, {upper:.12g}] +- {R_TOL:g}"]
    return []


def sweep_rows(text):
    """(theta, robustness, entropy, note) rows of a sweep CSV."""
    lines = text.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "":
        raise ValueError("sweep CSV header or final newline is wrong")
    rows = []
    for line in lines[1:-1]:
        theta, r, c, note = line.split(",", 3)
        rows.append((float(theta), float(r), float(c), note))
    return rows


def sweep_notes(text):
    return [row[3] for row in sweep_rows(text) if row[3]]


def check_sweep(text, exp):
    try:
        rows = sweep_rows(text)
    except ValueError as exc:
        return [str(exc)]
    if len(rows) != exp["points"]:
        return [f"{len(rows)} sweep rows, expected {exp['points']}"]
    out = []
    for (theta, r, c, note), want in zip(rows, np.linspace(0.0, np.pi / 2, exp["points"])):
        out += _near("theta", theta, want, 1e-11)
        if note:
            continue  # counted as a failed operation, not as a wrong value
        out += _near(f"R(U({theta:.6g}))", r, abs(np.sin(2 * want)), R_TOL)
        out += _near(
            f"C_rel(U({theta:.6g}))", c, oracle.binary_entropy(np.cos(want) ** 2), ENTROPY_TOL
        )
    return out


def check_measures(rep, exp):
    r = rep["robustness"]
    out = _robustness("robustness", r, exp["r_ref"])
    if r < 0.0:
        out.append(f"robustness {r!r} is negative")
    if (r <= R_TOL) != exp["qc_member"]:
        out.append(f"robustness {r!r} disagrees with qc membership {exp['qc_member']}")
    out += _near("relative_entropy_bits", rep["relative_entropy_bits"], exp["entropy"], ENTROPY_TOL)
    if not rep["witness_trace_check"] <= WITNESS_TOL:
        out.append(f"witness_trace_check {rep['witness_trace_check']!r} > {WITNESS_TOL:g}")
    return out


def check_game(rep, exp):
    ratio, one_plus_r = rep["advantage_ratio"], rep["one_plus_R"]
    out = _near("advantage_ratio", ratio, one_plus_r, ADVANTAGE_TOL)
    out += _robustness("one_plus_R - 1", one_plus_r - 1.0, exp["r_ref"])
    if not rep["qccro_max"] <= 1.0 + 1e-6:
        out.append(f"qccro_max {rep['qccro_max']!r} > 1 + 1e-6")
    if not rep["qccro_min"] <= rep["qccro_max"] + 1e-6:
        out.append("qccro_min exceeds qccro_max")
    out += _near("payoff", rep["payoff"], ratio * rep["qccro_max"], 1e-9 * (1 + abs(rep["payoff"])))
    out += _near("gap", rep["gap"], abs(ratio - one_plus_r), 1e-12)
    return out


def check_classify(rep, exp):
    out = []
    for key, residual in exp["residuals"].items():
        entry = rep[key]
        if entry["member"] != (residual <= TOL):
            out.append(f"{key} member = {entry['member']}, mask residual {residual:.3e}")
        out += _near(f"{key} residual", entry["residual"], residual, TOL)
    want = exp["replacement"]
    got = rep["replacement"]
    if (want is None) != (got is None):
        out.append(f"replacement present = {got is not None}, expected {want is not None}")
    elif want is not None:
        got = np.asarray(got, dtype=float)
        if got.shape != want.shape or not np.max(np.abs(got - want)) <= TOL:
            out.append("replacement differs from T[j, i] = d J[(i,j),(i,j)]")
    eb = rep["eb_ppt"]
    out += _near("eb_ppt.min_eigenvalue", eb["min_eigenvalue"], exp["ppt_min"], TOL)
    if exp["ppt_min"] < -TOL:
        status = "not_eb_confirmed"
    else:
        status = "eb_confirmed" if exp["dim"] == 2 else "inconclusive"
    if eb["status"] != status:
        out.append(f"eb_ppt.status {eb['status']!r}, expected {status!r}")
    return out


def check_vqa(rep, exp):
    label = exp["label"]
    if rep["member"] != (label is not None) or rep["replacing_pauli_j"] != label:
        return [
            f"vqa member={rep['member']} j={rep['replacing_pauli_j']!r}, "
            f"expected member={label is not None} j={label!r}"
        ]
    return []


CHECKERS = {
    "sweep": check_sweep,
    "measures": check_measures,
    "game": check_game,
    "classify": check_classify,
    "vqa-check": check_vqa,
}


def problems(kind, output, exp):
    """Every way ``output`` (CSV text or parsed JSON) misses ``exp``."""
    try:
        return CHECKERS[kind](output, exp)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed {kind} output: {exc!r}"]
