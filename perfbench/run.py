"""The repository benchmark: figure-regeneration wall time and paper error.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig3-read --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``, ``sim.error_vs_paper``); ``--trace 1`` prints the
per-layer metrics of a separate traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit); the line before it gives the
workload's simulated digest.  Every cell is an operation; see
``workloads.py`` for what makes one fail and for ``reference.json``, the
simulated results a run must reproduce, and README.md for the metric
catalogue.

The seed permutes the order in which a workload's cells run, including
the pool submission order of ``fig8-sweep``.  The cells' inputs never
change and the model is deterministic, so the seed moves only host-side
order effects; the printed digest is the same for every seed.
"""

import time

# Set-up time counts from here: the probe child reports it (see bench.py).
T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _bootstrap() -> None:
    """Make ``repro`` importable from this checkout's sources, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {SRC}; run from a repository checkout")
    # The benchmark pins the simulator's defaults: no REPRO_* knob from the
    # caller's environment may change what runs.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))


def parse_args(argv, workload_names) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    _bootstrap()
    from workloads import WORKLOADS, build

    args = parse_args(argv, list(WORKLOADS))
    if args.setup_probe:
        # Child side of bench.setup_seconds: import, load, build, report.
        from repro.sim import core

        build(args.workload)
        if core._CQ is None:
            print("perfbench: C accelerator unavailable; timing the pure-Python kernel",
                  file=sys.stderr)
        print(repr(time.perf_counter() - T0))
        return 0

    import bench

    workload = build(args.workload)
    run = bench.traced if args.trace else bench.end_to_end
    tally, metrics = run(workload, args.seed, args.seconds, os.cpu_count() or 1)
    for d in sorted(tally.digests):
        print(f"perfbench: {workload.name} digest {d}")
    print(bench.result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
