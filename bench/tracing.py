"""Spans around the calls into crolab's layers, recorded from outside.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` and
rebinds every crolab module attribute that refers to one of them, since the
modules import functions by name (``from .sdp import solve``).  Each call
records a span ``[name, start, end, parent]`` in memory; ``layer_metrics``
turns the spans into per-layer figures.  ``linalg`` and ``paulis`` are not
wrapped: their time counts toward the caller's self time.
"""

import functools
import json
import sys
import time

# (module, attribute, span name); Channel.__init__ is handled on the class
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "load_channel", "cli.load_channel"),
    ("channels", "compose", "channels.compose"),
    ("channels", "tensor", "channels.tensor"),
    ("cro", "is_cqcro", "cro.membership"),
    ("cro", "is_qqcro", "cro.membership"),
    ("cro", "is_qccro", "cro.membership"),
    ("cro", "is_dio", "cro.membership"),
    ("cro", "eb_ppt_test", "cro.eb_ppt_test"),
    ("cro", "vqa_replaceable_set_R", "cro.vqa"),
    ("measures", "robustness", "measures.robustness"),
    ("measures", "relative_entropy_irreplaceability", "measures.entropy"),
    ("sdp", "solve", "sdp.solve"),
    ("game", "game_from_witness", "game.game_from_witness"),
    ("game", "extremal_payoff_over_qccro", "game.extremal"),
    ("game", "payoff", "game.payoff"),
)
LAYERS = ("cli", "channels", "cro", "measures", "sdp", "game")


def _problem_shape(problem):
    """What an SdpProblem's set-up cost depends on: sides and term layout.

    A problem laid out otherwise than this version's SdpProblem is its own
    shape, so every such problem is timed.
    """
    try:
        return (
            tuple(problem.var_sides.items()),
            tuple(
                (tuple((n, out) for n, _, out in c.terms), c.offset is None)
                for c in problem.psd_constraints
            ),
            tuple(tuple((n, out) for n, _, out in c.terms) for c in problem.equalities),
        )
    except (AttributeError, TypeError, ValueError):
        return id(problem)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.iterations = 0
        self.vqa_candidates = 0
        self.problems = {}  # shape -> [one problem of that shape, count]
        self._undo = []

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _on_solve(self, args, solution):
        self.iterations += solution.iterations
        entry = self.problems.setdefault(_problem_shape(args[0]), [args[0], 0])
        entry[1] += 1

    def _on_vqa(self, args, result):
        member, j = result
        n = args[0].dim.bit_length() - 1
        self.vqa_candidates += j + 1 if member else 4**n

    def install(self):
        mods = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "crolab"}
        hooks = {"sdp.solve": self._on_solve, "cro.vqa": self._on_vqa}
        for module, attr, name in TARGETS:
            original = getattr(mods[f"crolab.{module}"], attr, None)
            if original is None:
                continue  # a later version may drop a function; skip its span
            traced = self.wrap(name, original, hooks.get(name))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._undo.append((mod, key, original))
        channel = mods["crolab.channels"].Channel
        init = channel.__init__
        channel.__init__ = self.wrap("channels.Channel", init)
        self._undo.append((channel, "__init__", init))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def setup_seconds(self, sdp):
        """Set-up time of every captured solve, through the public API.

        Each problem shape is solved again with one iteration, outside the
        spans: canonicalization and the affine factorization depend on the
        shape only, so one figure serves every solve of that shape.
        """
        total = 0.0
        for problem, count in self.problems.values():
            start = time.perf_counter()
            sdp.solve(problem, sdp.SolverOptions(max_iters=1))
            total += (time.perf_counter() - start) * count
        return total

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def per_span_cost(repeats=3, calls=20000):
    """Seconds a wrapper adds to one call, the least of a few timings."""

    def noop():
        return None

    traced = Tracer().wrap("calibration", noop)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        best = min(best, (time.perf_counter() - start - bare) / calls)
    return max(best, 0.0)


def layer_metrics(tracer, rounds, setup_s, wall_s):
    """Per-layer figures per round, from the spans of ``rounds`` rounds."""
    spans = tracer.spans
    dur = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for k, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[k]

    def has_ancestor(k, names):
        parent = spans[k][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    count = {}
    inclusive = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    for k, (name, _, _, _) in enumerate(spans):
        count[name] = count.get(name, 0) + 1
        if not has_ancestor(k, (name,)):
            inclusive[name] = inclusive.get(name, 0.0) + dur[k]
        self_time[name.split(".")[0]] += dur[k] - covered[k]

    def n(name):
        return count.get(name, 0) / rounds

    def s(name):
        return inclusive.get(name, 0.0) / rounds

    vqa_inits = sum(
        1 for k, span in enumerate(spans)
        if span[0] == "channels.Channel" and has_ancestor(k, ("cro.vqa",))
    )
    commands = n("cli.main")
    solve_s = s("sdp.solve")
    setup = setup_s / rounds
    iterations = tracer.iterations / rounds
    metrics = {
        "cli.commands": (commands, "count"),
        "cli.load_channel_s": (s("cli.load_channel"), "s"),
        "channels.channel_inits": (n("channels.Channel"), "count"),
        "channels.channel_init_s": (s("channels.Channel"), "s"),
        "channels.compose_calls": (n("channels.compose"), "count"),
        "channels.compose_s": (s("channels.compose"), "s"),
        "cro.membership_checks": (n("cro.membership"), "count"),
        "cro.membership_s": (s("cro.membership"), "s"),
        "cro.vqa_s": (s("cro.vqa"), "s"),
        "cro.vqa_candidates": (tracer.vqa_candidates / rounds, "count"),
        "cro.channel_inits_per_vqa": (vqa_inits / max(count.get("cro.vqa", 0), 1), "ratio"),
        "measures.robustness_calls": (n("measures.robustness"), "count"),
        "measures.robustness_s": (s("measures.robustness"), "s"),
        "measures.entropy_s": (s("measures.entropy"), "s"),
        "sdp.solves": (n("sdp.solve"), "count"),
        "sdp.solves_per_command": (n("sdp.solve") / max(commands, 1), "ratio"),
        "sdp.solve_s": (solve_s, "s"),
        "sdp.iterations": (iterations, "count"),
        "sdp.iter_ms": (1e3 * (solve_s - setup) / max(iterations, 1), "ms"),
        "sdp.setup_s": (setup, "s"),
        "game.game_from_witness_s": (s("game.game_from_witness"), "s"),
        "game.extremal_calls": (n("game.extremal"), "count"),
        "game.extremal_s": (s("game.extremal"), "s"),
        "game.payoff_s": (s("game.payoff"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_time[layer] / rounds, "s")
    metrics["trace.spans"] = (len(spans) / rounds, "count")
    metrics["trace.overhead_s"] = (len(spans) / rounds * per_span_cost(), "s")
    metrics["trace.wall_s"] = (wall_s, "s")
    return metrics
