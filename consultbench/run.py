"""Run one workload of the consultation benchmark.

Usage, from the repository root::

    python3 consultbench/run.py --workload cold_search --seed 1 \\
        --seconds 50 --trace 0

Workloads: ``cold_search``, ``warm_verify``, ``wire_mixed``,
``wire_open`` (see ``consultbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures half the time untraced
and half traced, reports the per-layer metrics, and writes the spans to
``.consultbench/spans-<workload>-seed<seed>.jsonl``.

The run pins itself and every process it starts to one CPU, and
reports times at a reference speed measured beside the consultations
(``consultbench/hostspeed.py``), so that the host's own changes of
speed do not read as changes of the library.

Human-readable lines come first; the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(each ``{"value", "unit"}``).  Any consultation that fails, is refused,
or serves advice that fails the correctness check counts in ``failed``
and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The end-to-end metrics (``--trace 0``) with their units.
E2E_METRICS = (
    ("setup_s", "s"),
    ("consults_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("within_limit_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="consultbench/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True,
                        choices=("cold_search", "warm_verify", "wire_mixed",
                                 "wire_open"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("consultbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"consultbench: the library is missing ({SRC}/repro); run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, SRC]
    import numpy

    from consultbench import closed, spans, wire, world
    from consultbench.hostspeed import pin_to_one_cpu

    cpus = nproc()
    pinned = pin_to_one_cpu()

    workload = world.WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".consultbench")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = None
    if args.trace:
        spans_path = os.path.join(
            out_dir, f"spans-{workload.name}-seed{args.seed}.jsonl"
        )
    traced = bool(args.trace)
    if workload.name in world.WIRE_SHAPES:
        result = wire.run(ROOT, out_dir, workload, args.seed, args.seconds,
                          traced, spans_path)
    else:
        result = closed.run(workload, args.seed, args.seconds, traced,
                            spans_path)

    attempted = result["attempted"]
    failures = result["failures"]
    failed = min(len(failures), attempted)
    print(
        f"consultbench workload={workload.name} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"nproc={cpus} pinned_cpu={pinned}"
    )
    print(f"  reference speed: {result['slices']} slices, times scaled by "
          f"{result['speed_scale']:.4f} (median)")
    print(f"  tail percentile p{result['tail_percentile']:g} over "
          f"{result['samples']} samples; latency limit "
          f"{workload.latency_limit_ms:g} ms")
    print(f"  failed_ratio {failed / max(1, attempted):.6g} "
          f"({failed} of {attempted} attempted)")
    print(f"  loadgen.lag_p99_ms {result['lag_p99_ms']:.4f} ms")
    for problem in failures[:10]:
        print(f"  FAILED {problem}")
    if traced:
        layers = {name: 0.0 for name, _ in spans.LAYER_METRICS}
        layers.update(result["layers"])
        units = dict(spans.LAYER_METRICS)
        metrics = {
            name: {"value": layers[name], "unit": units[name]}
            for name, _ in spans.LAYER_METRICS
        }
        print(f"  search share of traced consult time "
              f"(equilibria.* + linalg.* self) {result['search_share']:.4f}")
    else:
        metrics = {
            name: {"value": result[name], "unit": unit}
            for name, unit in E2E_METRICS
        }
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
