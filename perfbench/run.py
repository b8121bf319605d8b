"""hsdiag benchmark.

    python3 perfbench/run.py --workload abstract --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; the package is imported from
``src``. ``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps each layer's public functions, records spans and
reports the per-layer metrics and the tracing overhead; its spans are
written to ``.perfbench_out/``. ``--workload all`` runs every workload in a
fresh process of its own, so that peak RSS and set-up time belong to one
workload. The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads, metrics, checks and the layer each per-layer metric belongs to
are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_all(args, workloads) -> int:
    """Every workload in a fresh process of its own; prints their reports."""
    status = 0
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    if not (ROOT / "src" / "hsdiag" / "__init__.py").is_file():
        print(f"error: no hsdiag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from bench import WORKLOADS, run_plain, run_traced

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    run = run_traced if args.trace else run_plain
    rec, metrics, info, notes = run(args.workload, args.seed, args.seconds)
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{rec.attempted} attempted, {rec.failed} failed, {rec.steps} steps in {rec.timed_s:.2f} s timed")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"#   {name:<36} {value:.6g} {unit}")
    for note in notes:
        print(f"#   samples: {note}")
    for problem, count in sorted(rec.problems.items()):
        print(f"#   FAILED x{count}: {problem}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
