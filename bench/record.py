"""Benchmark record: alternating parent/change pairs of ``perfbench/run.py``.

    python bench/record.py --base HEAD~1 --out BENCH_<n>.json

The change is this checkout as it stands, working tree included; the parent
is the commit ``--base``, extracted from ``git archive`` into a temporary
directory that is removed afterwards.  For every workload of
``BENCHMARK.json`` and each of ``PAIRS`` pairs k = 1, 2, ..., both sides run
``perfbench/run.py --seed k`` for the benchmark's ``run_seconds``, the
parent first in odd pairs and the change first in even ones, so a drift of
the machine's speed hits both sides alike.  The JSON written holds the machine,
cores, Python, numpy and BLAS that perfbench reports, every run's metrics,
and per workload and metric the medians and quartiles of each side and the
per-pair ratios change/parent, the steadier statistic on a noisy machine.
Uses the standard library and git only.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: pairs per workload: the fewest from which a gain can be claimed
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """Write the committed files of ``rev`` from ``git archive`` to ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run from the checkout at ``root``: its last
    two output lines, the detail and the result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {proc.returncode}: "
                           f"{proc.stderr[-400:]}")
    detail, result = (json.loads(line) for line in lines[-2:])
    return {"detail": detail["detail"], "result": result}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    q = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
         else [values[0]] * 3)
    return {"median": q[1], "q1": q[0], "q3": q[2]}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: each side's median and quartiles, the ratio
    change/parent of every pair, their median, and the pairs the change won.

    ``pairs`` holds {"workload", "seed", "parent", "change"}, each side a
    perfbench result {"metrics": {name: {"value": v}}}; ``better`` maps a
    metric to "lower" or "higher".  A tie wins nothing.
    """
    out: dict = {}
    for pair in pairs:
        rows = out.setdefault(pair["workload"], {})
        for name, way in better.items():
            row = rows.setdefault(name, {"better": way, "parent": [], "change": [],
                                         "ratios": []})
            old = pair["parent"]["metrics"][name]["value"]
            new = pair["change"]["metrics"][name]["value"]
            row["parent"].append(old)
            row["change"].append(new)
            row["ratios"].append(new / old if old else None)
    for rows in out.values():
        for row in rows.values():
            sign = 1.0 if row["better"] == "higher" else -1.0
            row["wins"] = sum(sign * (new - old) > 0
                              for old, new in zip(row["parent"], row["change"]))
            row["pairs"] = len(row["ratios"])
            ratios = [r for r in row["ratios"] if r is not None]
            row["ratio_median"] = statistics.median(ratios) if ratios else None
            row["parent"], row["change"] = spread(row["parent"]), spread(row["change"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="the parent commit")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base = git("rev-parse", args.base)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the copy is removed
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp, "parent")
        extract(base, parent)
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in range(1, PAIRS + 1):
                sides = {"parent": parent, "change": ROOT}
                order = ["parent", "change"] if seed % 2 else ["change", "parent"]
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = perfbench(sides[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{n} {m['value']:.4g}"
                        for n, m in pair[side]["result"]["metrics"].items()),
                        file=sys.stderr)
                runs.append(pair)

    env = runs[0]["change"]["detail"]["env"]
    record = {
        "base": base,
        "change": "working tree of " + git("rev-parse", "HEAD"),
        "command": f"perfbench/run.py --seconds {seconds:g} --trace 0",
        "pairs": PAIRS,
        "machine": {k: env[k] for k in ("cpu_model", "nproc", "usable_cpus", "python",
                                        "numpy", "blas", "blas_threads")},
        "summary": summarize([{**r, "parent": r["parent"]["result"],
                               "change": r["change"]["result"]} for r in runs], better),
        "runs": [{"workload": r["workload"], "seed": r["seed"], "first": r["first"],
                  **{side: {"correct": r[side]["result"]["correct"],
                            "metrics": {n: m["value"]
                                        for n, m in r[side]["result"]["metrics"].items()}}
                     for side in ("parent", "change")}}
                 for r in runs],
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
