"""Byte-identity check: the outputs a refactor must leave unchanged, from a
parent commit and from this checkout.

    python bench/golden.py --base HEAD~1

The outputs are the 21 command CSVs (``spectrum``, ``evolve``, ``baseline``,
``filter``, ``ensemble`` and ``compare`` on the paper-fig4 preset at
``--n-traj 51``, and on CI's two-mode JSON config in both field modes at
``--dt 0.01``), the ``fit_components.csv`` of CI's two-component fit, and the
preset's config hash.  The change is this checkout as it stands, working tree
included; the parent is the commit ``--base``, extracted from ``git archive``
into a temporary directory that is removed afterwards.  Each side runs
``python -m nmqubit`` on its own ``src`` from a working directory of its own,
with the same relative paths on both sides, since the config hash in every
CSV header covers ``out_dir`` and ``fit.input``.  Prints every file that
differs, and for a CSV that both sides hold with the same header and row
count, how far it moved: each meta line that differs and the largest |delta|
of each numeric column.  Then prints each tree's line count over
``src/nmqubit/*.py`` with the delta, and exits 1 if any file differs.  Uses
the standard library and git only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from record import ROOT, extract, git

COMMANDS = ("spectrum", "evolve", "baseline", "filter", "ensemble", "compare")

#: CI's two-mode config (d = 50)
K2 = {"omega_q": 2.0, "probe": {"gamma_q": 0.8}, "t_final": 1.0, "ancilla": [
    {"omega": 2.0, "gamma": 0.6, "kappa": 1.0}, {"omega": 1.5, "gamma": 0.8, "kappa": 0.5}]}

#: output directory -> the config and overrides every command runs with
RUNS = {
    "preset": ["--preset", "paper-fig4", "--n-traj", "51"],
    "k2": ["--config", "k2.json", "--dt", "0.01"],
    "k2-shared": ["--config", "k2-shared.json", "--dt", "0.01"],
}

#: CI's fit: two Lorentzians sampled at 200 points, fitted with two components
SAMPLES = ("import numpy as np; from nmqubit.spectra import LorentzianComponent as L, "
           "SpectrumSamples as S, mixture_psd; w = np.linspace(-2, 6, 200); "
           "S(w, mixture_psd(w, [L(1.0, 0.5, 1.0), L(3.0, 1.2, 0.4)])).write_csv('spectrum.csv')")
FIT = ("omega_q = 2.0\nprobe.gamma_q = 0.8\nancilla.1.omega = 2.0\nancilla.1.gamma = 0.6\n"
       "ancilla.1.kappa = 1.0\nfit.input = spectrum.csv\nfit.components = 2\n")

HASH = "from nmqubit.config import config_hash, preset; print(config_hash(preset('paper-fig4')))"


def outputs(tree: Path, work: Path) -> Path:
    """Run every compared command of the checkout at ``tree`` from the new
    directory ``work``; returns the directory that holds the outputs."""
    work.mkdir(parents=True)
    (work / "k2.json").write_text(json.dumps(K2))
    (work / "k2-shared.json").write_text(json.dumps({**K2, "field_mode": "shared"}))
    (work / "fit.cfg").write_text(FIT)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))

    def python(*args: str) -> str:
        proc = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True,
                              text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(args)} in {tree} exited {proc.returncode}: "
                               f"{proc.stderr[-400:]}")
        return proc.stdout

    for name, args in RUNS.items():
        for command in COMMANDS:
            python("-m", "nmqubit", command, *args, "--out", f"out/{name}")
    python("-c", SAMPLES)
    python("-m", "nmqubit", "fit", "--config", "fit.cfg", "--out", "out/fit")
    (work / "out" / "preset_hash.txt").write_text(python("-c", HASH))
    return work / "out"


def differing(a: Path, b: Path) -> tuple[list[str], int]:
    """The relative paths of the files under ``a`` or ``b`` that one side
    lacks or whose bytes differ, sorted, and the count of all files."""
    files = {p.relative_to(root).as_posix()
             for root in (a, b) for p in root.rglob("*") if p.is_file()}
    diff = [f for f in sorted(files)
            if not ((a / f).is_file() and (b / f).is_file()
                    and (a / f).read_bytes() == (b / f).read_bytes())]
    return diff, len(files)


def _table(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """The ``# key: value`` meta lines, the header and the rows of a CSV."""
    lines = path.read_text().splitlines()
    meta = dict(line[2:].partition(": ")[::2] for line in lines if line.startswith("# "))
    body = [line.split(",") for line in lines if not line.startswith("#")]
    return meta, body[0] if body else [], body[1:]


def _gap(x: str, y: str) -> float:
    """|x - y| of two printed numbers; a NaN on one side only reads as inf."""
    gap = abs(float(x) - float(y))
    return 0.0 if x == y else math.inf if math.isnan(gap) else gap


def moved(a: Path, b: Path) -> list[str] | None:
    """How far the CSV ``b`` moved from ``a``: a line for each meta key whose
    value differs, then the largest |delta| of each numeric column.  None
    unless both are CSVs with the same header and row count."""
    if a.suffix != ".csv" or not (a.is_file() and b.is_file()):
        return None
    (meta_a, head, rows_a), (meta_b, head_b, rows_b) = _table(a), _table(b)
    if head != head_b or len(rows_a) != len(rows_b):
        return None
    out = [f"meta {k}: {meta_a.get(k)} -> {meta_b.get(k)}"
           for k in dict.fromkeys([*meta_a, *meta_b]) if meta_a.get(k) != meta_b.get(k)]
    gaps = []
    for j, name in enumerate(head):
        try:
            gap = max((_gap(x[j], y[j]) for x, y in zip(rows_a, rows_b)), default=0.0)
        except (ValueError, IndexError):  # not a numeric column
            continue
        gaps.append(f"{name} {gap:.3g}")
    return out + ([f"max |delta|: {', '.join(gaps)}"] if gaps else [])


def src_lines(tree: Path) -> int:
    """Lines of ``src/nmqubit/*.py`` in the checkout at ``tree``, as ``wc -l``
    counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "nmqubit").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD~1", help="the parent commit")
    args = parser.parse_args(argv)

    base = git("rev-parse", args.base)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the copy is removed
    with tempfile.TemporaryDirectory(prefix="bench-golden-") as tmp:
        parent = Path(tmp, "parent")
        extract(base, parent)
        old_lines, new_lines = src_lines(parent), src_lines(ROOT)
        sides = ((parent, Path(tmp, "parent-run")), (ROOT, Path(tmp, "change-run")))
        with ThreadPoolExecutor(max_workers=2) as pool:  # one process per side at a time
            old, new = pool.map(lambda side: outputs(*side), sides)
        diff, total = differing(old, new)
        how = {f: moved(old / f, new / f) or [] for f in diff}
        preset_hash = (new / "preset_hash.txt").read_text().strip()
    for f in diff:
        print(f"differs: {f}")
        for line in how[f]:
            print(f"    {line}")
    print(f"{total - len(diff)} of {total} outputs byte-identical to {base[:12]}; "
          f"preset hash {preset_hash}")
    print(f"src/nmqubit/*.py: {old_lines} -> {new_lines} lines ({new_lines - old_lines:+d})")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
