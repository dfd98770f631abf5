"""The comparison that ``bench/golden.py`` makes between a parent's outputs
and this checkout's, on temporary directories."""

import sys
from pathlib import Path

# golden imports record as a sibling module, as it does when run as a script
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import golden  # noqa: E402


def test_changed_and_one_sided_files_are_named(tmp_path):
    old, new = tmp_path / "parent", tmp_path / "change"
    for root in (old, new):
        (root / "k2").mkdir(parents=True)
        (root / "preset_hash.txt").write_text("019c88ddb6de5e56\n")
        (root / "k2" / "compare.csv").write_text("t,uncond_x\n0,1\n")
    (old / "k2" / "evolve.csv").write_bytes(b"0,1\n")
    (new / "k2" / "evolve.csv").write_bytes(b"0,1.0\n")
    (old / "fit_components.csv").write_text("center\n")
    (new / "k2" / "ensemble.csv").write_text("t\n")
    assert golden.differing(old, new) == (
        ["fit_components.csv", "k2/ensemble.csv", "k2/evolve.csv"], 5)


def test_identical_trees_differ_nowhere(tmp_path):
    for root in ("parent", "change"):
        (tmp_path / root / "preset").mkdir(parents=True)
        (tmp_path / root / "preset" / "compare.csv").write_bytes(b"# artifact: nmqubit\n")
    assert golden.differing(tmp_path / "parent", tmp_path / "change") == ([], 1)



def test_src_lines_count_the_package_modules_only(tmp_path):
    pkg = tmp_path / "src" / "nmqubit"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("import numpy\n\nx = 1\n")
    (pkg / "b.py").write_text("y = 2\n")
    (pkg / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "src" / "other.py").write_text("not counted\n")
    assert golden.src_lines(tmp_path) == 4
