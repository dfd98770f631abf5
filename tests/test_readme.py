"""The README's "Library use" block runs as written, on the preset cut to
t_final = 0.05 (51 grid points)."""

import dataclasses
import re
from pathlib import Path

import numpy as np

from nmqubit import config
from nmqubit.operators import DensityMatrix

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, "the Library use section holds one python block"
    return blocks[0]


def test_library_use_block_runs(monkeypatch):
    full = config.preset
    monkeypatch.setattr(config, "preset",
                        lambda name: dataclasses.replace(full(name), t_final=0.05).validate())
    ns = {}
    exec(compile(library_block(), str(README), "exec"), ns)
    assert ns["bloch"].shape == (51, 3)
    assert ns["joint"].shape == ns["stack"].shape == (51, 10, 10)
    assert np.array_equal(ns["reduced"], ns["traj"].bloch)
    assert ns["ens"].mean.shape == (51, 3) and len(ns["ens"].seeds) == 500
    assert isinstance(ns["rho"], DensityMatrix) and ns["rho"].layout == ns["spec"].layout
