"""Regenerate ``reference_d4.json``: the witness-game inputs and their R.

    python3 bench/reference.py

Draws the d=4 base channels (``specs.witness_bases``) and brackets the
robustness of each with ``oracle.robustness_interval``, an interior-point
method on the block form of the measure whose two ends are certified by a
feasible primal and a feasible dual point.  Uses numpy alone.
"""

import json

import oracle
import specs


def main():
    inputs = {}
    for name, node in specs.witness_bases().items():
        lower, upper = oracle.robustness_interval(node.choi, node.dim)
        inputs[name] = {"lower": lower, "upper": upper, "spec": node.spec}
        print(f"{name:12s} R in [{lower:.10f}, {upper:.10f}] width {upper - lower:.1e}")
    payload = {
        "method": "log-barrier interior point on the block form; ends "
        "certified by feasible primal and dual points (bench/oracle.py)",
        "inputs": inputs,
    }
    specs.REFERENCE_FILE.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
