"""Run one crolab benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout: crolab is imported from the
``src`` directory next to this one, never from an installed copy.  The
workload's round of CLI commands (``specs.build``) is repeated, calling
``crolab.cli.main(argv)`` in this process, until ``--seconds`` have passed;
rounds are whole, so every run attempts the same operations in the same
proportions.  Every output is checked (``checks``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the end-to-end metrics with ``--trace 0`` and the
per-layer metrics of ``tracing.py`` with ``--trace 1``.  See README.md.
"""

import argparse
import os
import sys

# One BLAS thread, fixed before numpy loads, for this process and the
# import probes it starts.  The workloads' matrices are at most 16 x 16
# blocks (768-wide affine systems), too small for a second thread to pay,
# and a call split over two cores waits for whichever a neighbour slows.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CROLAB_THREADS", None)  # sweeps run with the CLI's default

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import specs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_SETUPS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import crolab.cli; "
    "print(time.perf_counter() - t)"
)
LATENCY = {
    "measures": "measures_s",
    "game": "game_s",
    "classify": "classify_s",
    "vqa-check": "vqa_check_s",
}


def import_crolab():
    if not (SRC / "crolab" / "__init__.py").is_file():
        sys.exit(f"run.py: no crolab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import crolab.cli
    import crolab.sdp

    if SRC.resolve() not in Path(crolab.__file__).resolve().parents:
        sys.exit(f"run.py: crolab was imported from {crolab.__file__}, not {SRC}")
    return crolab.cli, crolab.sdp


def set_up(workload, seed, spec_dir):
    """One timed set-up as a user pays it: import crolab, write the specs.

    The import is timed inside a fresh interpreter.
    """
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    start = time.perf_counter()
    nodes, round_ = specs.build(workload, seed)
    specs.write_specs(nodes, spec_dir)
    return float(probe.stdout) + time.perf_counter() - start, nodes, round_


def invoke(cli, argv):
    """Exit code of ``crolab argv``; a traceback counts as a failure."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return -1


def run_command(cli, cmd, spec_dir, out_path, expect):
    """Time one command; return (seconds, failed, problems with its output)."""
    out_path.unlink(missing_ok=True)
    gc.collect()
    start = time.perf_counter()
    code = invoke(cli, cmd.argv(spec_dir, out_path))
    seconds = time.perf_counter() - start
    if code != 0:
        print(f"{cmd}: exit code {code}", file=sys.stderr)
        return seconds, True, []
    try:
        text = out_path.read_text(encoding="utf-8")
        output = text if cmd.kind == "sweep" else json.loads(text)
        notes = checks.sweep_notes(output) if cmd.kind == "sweep" else []
    except (OSError, ValueError) as exc:
        print(f"{cmd}: unreadable output: {exc}", file=sys.stderr)
        return seconds, True, []
    found = checks.problems(cmd.kind, output, expect)
    for message in (found + notes)[:3]:
        print(f"{cmd}: {message}", file=sys.stderr)
    return seconds, bool(found or notes), found


def measure(cli, workload, seed, work, seconds):
    """Repeat whole rounds until ``seconds`` have passed.

    A set-up precedes every round, so set-up samples spread over the run
    as the rounds do; more follow if fewer than ``MIN_SETUPS`` were made.
    """
    setups, wrong = [], []
    attempted = failed = rounds = 0
    expect = None
    start = time.perf_counter()
    while True:
        spec_dir = work / f"specs{rounds}"
        sample, nodes, round_ = set_up(workload, seed, spec_dir)
        setups.append(sample)
        if expect is None:
            expect = {c: checks.expected(c, nodes.get(c.spec)) for c in set(round_)}
            times = [[] for _ in round_]  # times[k]: command k, every round
        for k, cmd in enumerate(round_):
            took, bad, found = run_command(cli, cmd, spec_dir, work / "out", expect[cmd])
            times[k].append(took)
            attempted += 1
            failed += bad
            if found:
                wrong.append((cmd, found))
        shutil.rmtree(spec_dir)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(set_up(workload, seed, work / "specs-extra")[0])
    return {
        "round": round_,
        "times": times,
        "rounds": rounds,
        "setup_s": statistics.median(setups),
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
    }


def end_to_end(run):
    """Latencies are means over every command of a kind in the run."""
    cmds, times, rounds = run["round"], run["times"], run["rounds"]
    by_kind = {}
    for cmd, took in zip(cmds, times):
        by_kind.setdefault(cmd.kind, []).extend(took)
    points = rounds * sum(int(c.args[-1]) for c in cmds if c.kind == "sweep")
    metrics = {
        "setup_s": (run["setup_s"], "s"),
        "wall_s": (sum(map(sum, times)) / rounds, "s"),
        "sweep_points_per_s": (points / sum(by_kind["sweep"]), "points/s"),
    }
    for kind, name in LATENCY.items():
        metrics[name] = (statistics.fmean(by_kind[kind]), "s")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MiB")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=specs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli, sdp = import_crolab()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                run = measure(cli, args.workload, args.seed, work, args.seconds)
            finally:
                tracer.uninstall()
            tracer.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.json")
            wall = sum(map(sum, run["times"])) / run["rounds"]
            metrics = tracing.layer_metrics(
                tracer, run["rounds"], tracer.setup_seconds(sdp), wall
            )
        else:
            run = measure(cli, args.workload, args.seed, work, args.seconds)
            metrics = end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": not run["wrong"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
