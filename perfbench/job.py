"""One benchmark job in a fresh process.

    python3 perfbench/job.py <spec.json> <result.json>

The spec names the workload, seed, size and mode:

    setup  time the set-up only
    job    set up, run one untimed warm-up job, run the timed job, check it
    trace  as ``job``, then the same job again with spans at every layer
           boundary, then the per-layer probes (``probes.py``)

Set-up time counts from the first line of this file, so it includes importing
numpy and nmqubit.  The result is written as JSON to ``result.json``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def usage() -> tuple[float, float]:
    """(cpu seconds, peak rss MB) of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def timed_job(work, out: Path, full_trace: bool) -> tuple[dict, tracing.Tracer]:
    tracer = tracing.install(tracing.Tracer(), full=full_trace)
    cpu0, _ = usage()
    t0 = time.perf_counter()
    try:
        info = work.run(out, tracer)
    finally:
        wall = time.perf_counter() - t0
        tracer.restore()
    cpu1, _ = usage()
    info.update(wall_s=wall, cpu_s=cpu1 - cpu0)
    return info, tracer


def span_metrics(work, out: Path, tracer: tracing.Tracer) -> dict:
    self_times = tracer.layer_self_times()
    return {
        "config.load_s": tracer.total("config.parse_config") + tracer.total("config.preset"),
        "experiments.model_builds": tracer.count("experiments.build_probed_model"),
        "experiments.self_s": self_times.get("experiments", 0.0),
        "cli.self_s": self_times.get("cli", 0.0),
        "cli.csv_write_s": tracer.total("cli.write_table"),
        "cli.csv_bytes": sum(p.stat().st_size for p in work.outputs(out)),
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    run_dir = Path(spec["run_dir"])
    work = workloads.WORKLOADS[spec["workload"]](run_dir / "inputs", spec["seed"], spec["smoke"])
    work.setup()
    result: dict = {"setup_s": time.perf_counter() - T0}
    if spec["mode"] == "setup":
        Path(result_path).write_text(json.dumps(result))
        return 0

    warm = fresh_dir(run_dir / "warmup")
    warm_tracer = tracing.install(tracing.Tracer(), full=False)
    try:
        work.run(warm, warm_tracer, warmup=True)
    finally:
        warm_tracer.restore()
    shutil.rmtree(warm)

    # One output directory for every job: the CSV headers carry the config
    # hash, which covers the output directory.
    out = fresh_dir(run_dir / "out")
    info, _ = timed_job(work, out, full_trace=False)
    result["checks"] = work.check(out)
    result["hashes"] = workloads.file_hashes(work.outputs(out))
    _, result["peak_rss_mb"] = usage()
    result.update(info)

    if spec["mode"] == "trace":
        import probes

        traced, tracer = timed_job(work, fresh_dir(out), full_trace=True)
        tracer.dump(run_dir / "spans.json")
        checks = work.check(out)
        same = workloads.file_hashes(work.outputs(out)) == result["hashes"]
        checks.append({"name": "traced_outputs_identical", "ok": same,
                       "detail": f"seed {spec['seed']}: traced CSVs byte-identical: {same}"})
        result["checks"] += checks
        layers = span_metrics(work, out, tracer)
        # The job is too long to repeat in pairs, and one untraced/traced pair
        # differs by machine drift far more than by tracing, so the overhead is
        # the measured cost of one span times the spans the job recorded.
        result["span_cost_us"] = tracing.span_cost() * 1e6
        result["span_count"] = len(tracer.spans)
        layers["trace.overhead_s"] = result["span_count"] * result["span_cost_us"] * 1e-6
        result["traced_wall_s"] = traced["wall_s"]
        result["pool_wait_s"] = tracer.span_self_time("filtering.ensemble_average")
        probe = probes.run(spec["seed"], spec["smoke"])
        layers.update(probe["metrics"])
        result["layers"] = layers
        result["scaling"] = probe["scaling"]
        result["repair_split"] = probe["repair_split"]
    shutil.rmtree(out)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
