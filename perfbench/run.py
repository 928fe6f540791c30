"""Benchmark command: one closed-loop run of one workload.

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout of this repository. Workloads are
``build``, ``vacuum`` and ``query_cold`` (see
``perfbench/workloads.py``). Inputs are generated from ``--seed``. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics and the tracing overhead with
``--trace 1``. Scratch files go to ``.pbw/`` under the checkout. The exit
code is 1 when any op's output was wrong and 2 when the checkout holds no
``mircv_ray`` package to measure.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["build", "vacuum", "query_cold"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    # a SIGTERM unwinds the run, so it still stops the processes it started
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "mircv_ray" / "__init__.py").is_file():
        print(f"no mircv_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from perfbench import workloads

    result = workloads.run(args.workload, ROOT, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
