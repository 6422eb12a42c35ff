"""Run one biaslex benchmark workload and print its metrics.

    python3 bench/run.py --workload stub-grid-10 --seed 1 --seconds 20 --trace 0

Run it from the repository root. With ``--trace 0`` it prints the
end-to-end metrics of ``BENCHMARK.json``, with ``--trace 1`` the per-layer
ones and writes the spans to ``.bench_out/``. Each metric is printed on
its own line with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A run whose
outputs fail the correctness gate prints ``"correct": false`` with no
metrics and exits with status 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys

from harness import SPEC, WORKLOADS, GateFailure, measure


def labelled(metrics: dict[str, float], declared: list[dict]) -> dict:
    """Attach the declared unit to each metric; refuse a mismatched set."""
    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        raise RuntimeError(
            f"measured metrics differ from {SPEC.name}: "
            f"{sorted(set(metrics) ^ set(names))}"
        )
    return {
        m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    except GateFailure as exc:
        print(f"correctness gate failed: {exc}", file=sys.stderr)
        print(
            json.dumps(
                {
                    "correct": False,
                    "attempted": max(1, exc.result.attempted),
                    "failed": exc.result.failed,
                    "metrics": {},
                }
            )
        )
        return 1

    metrics = labelled(result.metrics, declared)
    walls = result.walls
    print(
        f"{workload.name} seed={args.seed}: {len(walls)} untraced pipeline runs, "
        f"measured wall min {min(walls):.4f} s, median "
        f"{statistics.median(walls):.4f} s, max {max(walls):.4f} s"
    )
    if result.speed != 1.0:
        print(f"  times scaled to the reference speed by {result.speed:.4f}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
