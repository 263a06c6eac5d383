"""curvo's benchmark: one run of one workload, checked and timed.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,infer} [--seed 0]
        [--seconds 50] [--trace 0|1] [--smoke]

``--trace 0`` measures the end-to-end metrics with no tracing for
``--seconds`` (default: ``run_seconds`` in BENCHMARK.json). ``--trace 1``
runs a fixed number of units untraced and then the same units traced, and
reports the per-layer metrics and the tracing overhead. ``--smoke`` shrinks
every budget, the measuring time included, so that a run takes a second or
two. The default seed is 0.

Metric names and units come from BENCHMARK.json at the checkout root. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; every figure, ``error_rate`` and
``quality_err`` included, is also printed above it with its unit. The run
exits non-zero without a result if curvo's sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402 - needs the path above

DEFAULT_SEED = 0


def load_curvo():
    """Import curvo from the checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "curvo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no curvo sources under {src}")
    sys.path.insert(0, str(src))
    curvo = importlib.import_module("curvo")
    if Path(curvo.__file__).resolve().parent != (src / "curvo").resolve():
        raise SystemExit(f"perfbench: imported curvo from {curvo.__file__}, not {src}")
    for module in ("autodiff", "cli", "curriculum", "evaluation", "geometry", "loss", "model",
                   "svgplot", "synthdata", "trainer"):
        importlib.import_module(f"curvo.{module}")
    return curvo


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced measuring time (default: run_seconds in BENCHMARK.json; "
                             "--smoke sets its own)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny budgets, for the smoke test")
    parser.add_argument("--workdir", type=Path, default=ROOT / ".perfbench",
                        help="where commands write their outputs (default: .perfbench)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    curvo = load_curvo()
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = next(s for s in (scale.seconds, args.seconds, spec["run_seconds"]) if s is not None)
    result = workloads.run(curvo, args.workload, args.seed, seconds, bool(args.trace), scale,
                           args.workdir)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(error_rate="ratio", ops_per_s="1/s", op_ms_p50="ms")
    shown = dict(result["metrics"], error_rate=result["error_rate"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}  "
          f"latency samples {result['latency_samples']}")
    for name in sorted(shown):
        print(f"  {name:38s} {shown[name]:16.6g} {units[name]}")
    for name, note in sorted(result["notes"].items()):
        print(f"  {name:38s} {note}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise SystemExit(f"perfbench: no figure for {', '.join(missing)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
