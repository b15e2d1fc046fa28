"""Record interleaved benchmark pairs of two revisions to ``BENCH_<n>.json``.

    python3 tools/benchrec.py --base HEAD~1 --out BENCH_26.json
    python3 tools/benchrec.py --base HEAD --pairs 1 --seconds 2 --out /tmp/b.json

``--base`` is a git revision, extracted with ``git archive`` into a temporary
directory; the change side is the working tree this script sits in. For
each gated workload of the change side's ``BENCHMARK.json`` and each of
``--pairs`` seeds (``--seed``, ``--seed`` + 1, ...), both sides run

    python3 wuwbench/run.py --workload W --seed s --seconds S

one after the other, in their own tree; the base runs first in even pairs and
the change in odd ones, so neither side always meets the machine warmer. Both
sides run with ``PYTHONDONTWRITEBYTECODE=1`` and each with its own empty
``PYTHONPYCACHEPREFIX``, so both import every module from source whatever
``__pycache__`` either tree holds, and neither writes bytecode: memory and
start-up then differ only by the code. The last JSON line of each run is its
result. A run that exits non-zero or prints no result stops the recording.

The record holds every pair and, per workload and end-to-end metric, each
side's median and quartiles, the change's wins out of the pairs (ties count
for neither) and its median against the metric's bound in
``BENCHMARK.json``: "within" or "worse" than the bound, or "unresolved" when
the base's own quartile spread is wider than the bound and not every change
run reads better than every base run. ``gain`` says whether the change's
median is a measured gain: true when the change wins at least 9 of every 10
pairs and its median is better than the base's by more than the base's
quartile spread. It also holds the machine (cores, Python, numpy, BLAS
build, thread settings, bytecode mode), both revisions, the seeds and the
run length. Run it on an otherwise idle machine; it changes
nothing in either tree but the benchmark's own work directories.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCHEMA = 2

# Environment variables that set BLAS and OpenMP thread counts.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# How both sides import Python modules, as the record's machine block states it.
BYTECODE_MODE = "from source: PYTHONDONTWRITEBYTECODE=1, an empty PYTHONPYCACHEPREFIX per side"


def _git(*args: str) -> str:
    return subprocess.run(("git",) + args, cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; returns its commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(("git", "archive", "--format=tar", commit), cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def side_envs(cache_root: Path) -> dict[str, dict[str, str]]:
    """The run environment of each side: this process's, with bytecode
    writing off and the side's own new, empty ``PYTHONPYCACHEPREFIX`` under
    ``cache_root`` (``BYTECODE_MODE``)."""
    envs = {}
    for side in ("base", "change"):
        prefix = cache_root / f"pycache-{side}"
        prefix.mkdir(parents=True)
        envs[side] = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
                      "PYTHONPYCACHEPREFIX": str(prefix)}
    return envs


def run_once(tree: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """The result line of one benchmark run in ``tree`` under ``env``."""
    cmd = [sys.executable, "wuwbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated between order statistics."""
    xs = sorted(values)

    def at(q: float) -> float:
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def compare(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric of one workload over paired runs: each side's quartiles,
    the change's wins, its median against ``bound`` (a share of the base's
    median), and whether that median is a gain: won in at least 9 of every
    10 pairs, and better than the base's by more than its quartile spread."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - base) < 0 is better
    b_q, c_q = _quartiles(base), _quartiles(change)
    wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    b_med, c_med = b_q[1], c_q[1]
    worse_by = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    spread = (b_q[2] - b_q[0]) / abs(b_med) if b_med else 0.0
    always_better = max(sign * c for c in change) < min(sign * b for b in base)
    gain = 10 * wins >= 9 * len(base) and sign * (b_med - c_med) > b_q[2] - b_q[0]
    if spread > bound and not always_better:
        verdict = "unresolved"
    else:
        verdict = "within" if worse_by <= bound else "worse"
    return {
        "base": {"median": b_med, "q1": b_q[0], "q3": b_q[2], "values": list(base)},
        "change": {"median": c_med, "q1": c_q[0], "q3": c_q[2], "values": list(change)},
        "better": better,
        "bound": bound,
        "worse_by": worse_by,
        "base_iqr_share": spread,
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "verdict": verdict,
        "gain": gain,
    }


def aggregate(pairs: list[dict], spec: dict) -> dict:
    """Per workload and end-to-end metric of ``spec`` (BENCHMARK.json), the
    ``compare`` summary of ``pairs``, each {"workload", "seed", "first",
    "base", "change"} with a run's result line on either side. A run's
    ``correct`` and ``failed`` are summed per side."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        metrics = {
            m["name"]: compare([p["base"]["metrics"][m["name"]]["value"] for p in runs],
                               [p["change"]["metrics"][m["name"]]["value"] for p in runs],
                               m["better"], m["bound"])
            for m in spec["end_to_end"]
        }
        sides = {side: {"incorrect": sum(not p[side]["correct"] for p in runs),
                        "failed": sum(p[side]["failed"] for p in runs),
                        "attempted": sum(p[side]["attempted"] for p in runs)}
                 for side in ("base", "change")}
        summary[workload] = {"metrics": metrics, **sides}
    return summary


def machine() -> dict:
    """Cores, Python, numpy and its BLAS build, and the thread settings."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
        "bytecode": BYTECODE_MODE,
        "platform": platform.platform(),
    }


def check_record(rec: dict) -> None:
    """ValueError unless ``rec`` has the layout this module writes."""
    top = {"schema", "base", "change", "seeds", "seconds", "machine", "pairs", "summary"}
    if not isinstance(rec, dict) or set(rec) != top or rec["schema"] != SCHEMA:
        raise ValueError(f"record keys {sorted(rec) if isinstance(rec, dict) else rec!r}")
    for pair in rec["pairs"]:
        if set(pair) != {"workload", "seed", "first", "base", "change"} or \
                pair["first"] not in ("base", "change"):
            raise ValueError(f"malformed pair {pair!r}")
    n_pairs = {w: sum(p["workload"] == w for p in rec["pairs"]) for w in rec["summary"]}
    for workload, s in rec["summary"].items():
        if set(s) != {"metrics", "base", "change"} or not s["metrics"]:
            raise ValueError(f"malformed summary of {workload!r}")
        for name, m in s["metrics"].items():
            if m["verdict"] not in ("within", "worse", "unresolved") or \
                    type(m.get("gain")) is not bool or \
                    m["pairs"] != n_pairs[workload] or m["wins"] + m["losses"] > m["pairs"] or \
                    not m["base"]["q1"] <= m["base"]["median"] <= m["base"]["q3"]:
                raise ValueError(f"malformed {workload} {name} summary {m!r}")


def record(base_tree: Path, change_tree: Path, spec: dict, seeds: list[int],
           seconds: float, envs: dict[str, dict[str, str]]) -> list[dict]:
    """Every pair, alternating which side runs first; each side runs under
    its environment in ``envs`` (``side_envs``)."""
    pairs = []
    trees = {"base": base_tree, "change": change_tree}
    for workload in (w["name"] for w in spec["workloads"]):
        for i, seed in enumerate(seeds):
            first = "base" if i % 2 == 0 else "change"
            order = ("base", "change") if first == "base" else ("change", "base")
            results = {side: run_once(trees[side], workload, seed, seconds, envs[side])
                       for side in order}
            pairs.append({"workload": workload, "seed": seed, "first": first, **results})
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{m}: {results['base']['metrics'][m]['value']:.4g} -> "
                f"{results['change']['metrics'][m]['value']:.4g}"
                for m in results["base"]["metrics"]), file=sys.stderr, flush=True)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--pairs", type=int, default=10, help="seeds per workload")
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="benchrec-") as tmp:
        base_tree = Path(tmp, "base")
        base = extract(args.base, base_tree)
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        change = _git("rev-parse", "HEAD") + ("+worktree" if dirty else "")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        seeds = list(range(args.seed, args.seed + args.pairs))
        pairs = record(base_tree, ROOT, spec, seeds, seconds, side_envs(Path(tmp, "pycache")))

    rec = {"schema": SCHEMA, "base": base, "change": change, "seeds": seeds,
           "seconds": seconds, "machine": machine(), "pairs": pairs,
           "summary": aggregate(pairs, spec)}
    check_record(rec)
    args.out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    for workload, s in rec["summary"].items():
        for name, m in s["metrics"].items():
            print(f"{workload} {name}: base {m['base']['median']:.4g} "
                  f"[{m['base']['q1']:.4g}, {m['base']['q3']:.4g}], change "
                  f"{m['change']['median']:.4g}, wins {m['wins']}/{m['pairs']}, {m['verdict']}"
                  + (", gain" if m["gain"] else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
