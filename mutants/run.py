"""Mutation gate: apply each edit of ``table.MUTANTS`` to a fresh copy of
``src/``, ``tests/`` and ``pyproject.toml`` and run its tests there with
``pytest -x``.  Exits 1 if any mutant survives, if an old text does not
occur exactly once, or if the unmutated copy fails the tests:

    python mutants/run.py

The copy matters: ``pyproject.toml`` puts its own ``src`` first on the
path, so tests run in the repository itself would import unmutated code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from table import MUTANTS

ROOT = Path(__file__).resolve().parents[1]

#: mutants tested at once, each in its own copy and pytest process
WORKERS = 2


def run_tests(edit: tuple[str, str, str] | None, tests: list[str]) -> subprocess.CompletedProcess:
    """Run ``tests`` in a copy of the repository with ``edit`` = (file, old,
    new) applied; an old text that does not occur exactly once raises."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part),
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if edit is not None:
            file, old, new = edit
            path = Path(tmp, file)
            text = path.read_text()
            if text.count(old) != 1:
                raise LookupError(f"{file}: old text occurs {text.count(old)} times: {old!r}")
            path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")))
        # hypothesis's pytest plugin is most of a run's start-up; its
        # ``@given`` tests still run without it
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-p", "no:hypothesispytest", *tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )


def verdict_of(mutant) -> tuple[str, str, float, str]:
    """(name, verdict, seconds, detail) of one mutant of the table."""
    name, file, old, new, tests = mutant
    t0 = time.perf_counter()
    try:
        proc = run_tests((file, old, new), tests)
        # pytest exits 1 when a test fails; any other code means the
        # tests did not run as asked, which catches nothing
        verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")
        detail = proc.stdout[-2000:] if verdict == "ERROR" else ""
    except LookupError as exc:
        verdict, detail = "MISSING", str(exc)
    return name, verdict, time.perf_counter() - t0, detail


def main() -> int:
    start = time.perf_counter()
    # the tests must pass before a failure can mean the mutant was caught
    clean = run_tests(None, sorted({t for m in MUTANTS for t in m[4]}))
    if clean.returncode != 0:
        print(clean.stdout + clean.stderr)
        print("mutation gate: the unmutated code fails its tests")
        return 1
    bad = 0
    # a mutant's run is mostly pytest start-up in its own process, so
    # WORKERS of them run side by side; the report keeps the table's order
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for name, verdict, seconds, detail in pool.map(verdict_of, MUTANTS):
            bad += verdict != "killed"
            print(f"{verdict:8s} {seconds:5.1f} s  {name}")
            if detail:
                print(detail)
    print(f"mutation gate: {len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
