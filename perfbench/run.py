"""Wall-clock benchmark of the SpGEMM engine and its serving front-end.

Run from the repository root::

    python3 perfbench/run.py --workload suite-auto --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics, in reference seconds
(see ``hostref.py``); ``--trace 1`` makes the separate traced run that
times each layer from outside, in wall seconds (see ``layers.py``).  Human-readable tables go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite-bitwise", "suite-auto", "evolving-auto", "serve-zipf")


def environment() -> dict:
    import numpy
    import scipy

    from repro.backends.sharded import effective_cores

    return {
        "nproc": os.cpu_count(),
        "effective_cores": effective_cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "REPRO_NO_CACHE": os.environ.get("REPRO_NO_CACHE"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # The engine must come from this checkout's sources, and persisted
    # plans and calibration must never reach set-up time.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_NO_CACHE"] = "1"

    import serving
    import suite
    from hostref import HostMeter
    from repro.backends.operand_store import leaked_segments

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    # The end-to-end run times a host reference beside the workload; the
    # traced run reports wall times.
    with contextlib.ExitStack() as stack:
        meter = None if args.trace else stack.enter_context(HostMeter())
        if args.workload == "serve-zipf":
            metrics, attempted, failed = serving.run(args.seed, args.seconds, meter)
        else:
            metrics, attempted, failed = suite.run(args.workload, args.seed, args.seconds, meter)

    print(f"{'metric':<32} {'value':>16}  unit")
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>16.6f}  {unit}")
    print(f"{'error_rate':<32} {failed / attempted:>16.6f}  ratio  ({failed} of {attempted} products)")
    print(f"leaked shared-memory segments at exit: {leaked_segments()}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
