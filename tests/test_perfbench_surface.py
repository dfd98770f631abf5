"""Every name of nmqubit that the benchmark in ``perfbench/`` imports, calls
or patches still exists, so removing one fails here and not in a benchmark
run.  The benchmark's files are read, not run: ``tracing.py`` is loaded by
path (it imports only the standard library), and ``workloads.py`` and
``probes.py`` are parsed."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from nmqubit import cli, experiments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

_spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def resolve(module: str, name: str):
    """``name`` of the module ``module``, which may be a submodule."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("module,table", [
    (cli, "CLI_IMPORTS"), (cli, "PHASES"), (experiments, "EXPERIMENTS_IMPORTS"),
])
def test_patched_names_exist(module, table):
    # ``Tracer.patch`` reads each key off the module, and the span name is
    # the layer and the name of the function the key is bound to
    for attr, span in getattr(tracing, table).items():
        assert hasattr(module, attr), f"{table}: {module.__name__}.{attr}"
        layer, name = span.split(".")
        assert resolve(f"nmqubit.{layer}", name) is getattr(module, attr), span


def nmqubit_uses(path: Path):
    """(line, module, name, keywords) of each nmqubit name a file imports, and
    of each attribute it reads off an imported nmqubit module, with the
    keywords of the call it makes there (None where it makes none)."""
    tree = ast.parse(path.read_text())
    modules = {}  # the local name of each imported nmqubit module -> its full name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nmqubit"):
            for alias in node.names:
                yield node.lineno, node.module, alias.name, None
                if inspect.ismodule(resolve(node.module, alias.name)):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            call = calls.get(id(node))
            keywords = None if call is None else [k.arg for k in call.keywords if k.arg]
            yield node.lineno, modules[node.value.id], node.attr, keywords


@pytest.mark.parametrize("file,modules", [
    ("workloads.py", {"cli", "config", "experiments", "filtering", "master"}),
    ("probes.py", {"config", "experiments", "filtering", "master"}),
])
def test_workload_and_probe_names_resolve(file, modules):
    uses = list(nmqubit_uses(PERFBENCH / file))
    assert {m for _, m, _, _ in uses} >= {f"nmqubit.{m}" for m in modules}
    for line, module, name, keywords in uses:
        where = f"{file}:{line}: {module}.{name}"
        target = resolve(module, name)  # raises on a missing name
        if keywords:
            params = inspect.signature(target).parameters
            if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
                for k in keywords:
                    assert k in params, f"{where} takes no keyword {k!r}"
