"""Benchmark of the two-phase wake-word path: device stream, open-loop
verification and offline evaluation.

    python3 wuwbench/run.py --workload stream --seed 1 --seconds 20 --trace 0

Run from the repository root; ``src/`` must hold the ``wuw`` package. Every
figure is printed as ``name value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer ones). Without ``--workload``
all three workloads run in turn. ``--write-spec`` writes BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".wuwbench_out"
WORK_DIR = ROOT / ".wuwbench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("stream", "verify", "offline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the server is stopped and the work dir removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    sys.path[:0] = [str(ROOT)]
    from wuwbench import spec

    if args.write_spec:
        spec.write(ROOT / "BENCHMARK.json")
        return 0
    if not (ROOT / "src" / "wuw" / "__init__.py").is_file():
        print(f"wuwbench: no wuw package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]

    seconds = args.seconds if args.seconds is not None else spec.RUN_SECONDS
    names = ([args.workload] if args.workload
             else [n for n, _ in spec.WORKLOADS] + list(spec.UNGATED_WORKLOADS))
    recorder = None
    if args.trace:
        from wuwbench import tracing

        recorder = tracing.Recorder()
        tracing.install_client(recorder)
    for name in names:
        result = run_workload(name, args.seed, seconds, recorder)
        print(json.dumps(result), flush=True)
    return 0


def run_workload(name: str, seed: int, seconds: float, recorder) -> dict:
    """Run one workload; ``recorder`` (already installed) makes it traced."""
    from wuwbench import spec, workloads

    trace = recorder is not None
    if trace:
        recorder.clear()
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    run = workloads.Run(ROOT, workdir, seed, seconds, trace, recorder)
    fn = {"stream": workloads.stream_workload, "verify": workloads.verify_workload,
          "offline": workloads.offline_workload}[name]
    try:
        res = fn(run)
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            for server_spans in workdir.glob("server-spans-*.jsonl"):
                shutil.copy(server_spans, OUT_DIR / f"server-{name}-{seed}.jsonl")
            run.recorder.dump(OUT_DIR / f"client-{name}-{seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, table in (("", res.figures), ("layer ", res.layers)):
        for metric, (value, unit) in table.items():
            print(f"{name} {label}{metric} {value:.6g} {unit}")
    for message in res.errors:
        print(f"{name} check failed: {message}", file=sys.stderr)
    if trace:
        metrics = {n: res.layers.get(n, (0.0, u)) for n, u, _ in spec.PER_LAYER}
    else:
        source = spec.E2E_SOURCE[name]
        metrics = {n: res.figures[source[n]] for n, _, _, _ in spec.END_TO_END}
    return {
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    raise SystemExit(main())
