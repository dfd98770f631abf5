"""nmqubit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fig4-compare --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout (the directory holding ``src/nmqubit``).
With ``--trace 0`` it repeats the workload's job, each in a fresh process,
until ``--seconds`` have passed and at least ``MIN_JOBS`` jobs ran, and
reports the end-to-end metrics as medians over the jobs.  With ``--trace 1``
it runs one job untraced, the same job traced, and the per-layer probes, and
reports the per-layer metrics.  ``--smoke`` shrinks every size for the
benchmark's own test.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, sample counts, quartiles, checks, scaling).
BLAS is pinned to one thread in this process and every process it starts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_JOBS = 2  # timed jobs per run, at least
MIN_SETUPS = 7  # set-up samples per run, at least
HARD_STOP_S = 150.0  # start no job that would likely end after this
DEADLINE_S = 175.0  # kill any job still running this long after the start


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as declared in
    BENCHMARK.json at the root of the checkout."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def environment() -> dict:
    """Machine, interpreter, numpy and BLAS of the measuring processes."""
    import numpy as np

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower() and "/" in ln})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_child(spec: dict, run_dir: Path, deadline: float) -> dict:
    """Run ``job.py`` on ``spec`` in a new process group; kill the group if it
    outlives ``deadline``.  A crash is returned as a failed check."""
    name = f"{spec['mode']}{spec['index']}"
    spec_path = run_dir / f"{name}.spec.json"
    result_path = run_dir / f"{name}.result.json"
    log_path = run_dir / f"{name}.log"
    spec_path.write_text(json.dumps(spec))
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "job.py"), str(spec_path), str(result_path)],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode == 0 and result_path.exists():
        return json.loads(result_path.read_text())
    tail = log_path.read_text()[-400:].strip().replace("\n", " | ")
    return {"crashed": True, "checks": [{
        "name": f"{name}_completed", "ok": False,
        "detail": f"seed {spec['seed']}: job process exited {proc.returncode}: {tail}",
    }]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nmqubit" / "__init__.py").is_file():
        print(f"error: no nmqubit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    start = time.monotonic()
    hard_stop = start + HARD_STOP_S
    deadline = start + DEADLINE_S
    # Byte-compile up front so no job pays for it inside its set-up time.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    workloads.WORKLOADS[args.workload](run_dir / "inputs", args.seed, args.smoke).write_inputs()

    base = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "run_dir": str(run_dir)}

    def child(mode: str, index: int) -> dict:
        return run_child({**base, "mode": mode, "index": index}, run_dir, deadline)

    if args.trace:
        jobs = [child("trace", 0)]
        setups = []
    else:
        jobs = []
        min_jobs = 1 if args.smoke else MIN_JOBS
        while True:
            t0 = time.monotonic()
            jobs.append(child("job", len(jobs)))
            now = time.monotonic()
            if jobs[-1].get("crashed") or now + (now - t0) > hard_stop:
                break
            if len(jobs) >= min_jobs and now - start >= args.seconds:
                break
        setups = [j["setup_s"] for j in jobs if not j.get("crashed")]
        min_setups = 2 if args.smoke else MIN_SETUPS
        while len(setups) < min_setups and time.monotonic() < hard_stop:
            extra = child("setup", len(setups))
            if extra.get("crashed"):
                jobs.append(extra)
                break
            setups.append(extra["setup_s"])

    checks = [c for j in jobs for c in j["checks"]]
    done = [j for j in jobs if not j.get("crashed")]
    hashes = [j["hashes"] for j in done]
    if len(hashes) > 1:
        same = all(h == hashes[0] for h in hashes)
        checks.append({"name": "repeat_outputs_identical", "ok": same,
                       "detail": f"seed {args.seed}: {len(hashes)} jobs wrote "
                                 f"byte-identical CSVs: {same}"})
    failed = [c for c in checks if not c["ok"]]
    attempted = len(checks)

    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                    "smoke": args.smoke, "env": environment(), "jobs": len(done),
                    "failed_ratio": len(failed) / attempted,
                    "failed_checks": failed, "checks": [c["name"] for c in checks]}
    metrics: dict = {}
    if done and not args.trace:
        units = metric_units("end_to_end")
        samples = {name: [j[name] for j in done] for name in units if name in done[0]}
        samples["setup_s"] = setups
        samples["ok_ratio"] = [1.0 - len(failed) / attempted]
        for name, unit in units.items():
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
        detail["samples"] = {k: len(v) for k, v in samples.items()}
        detail["quartiles"] = {k: quartiles(v) for k, v in samples.items()}
        detail["rates"] = {k: statistics.median(j[k] for j in done)
                           for k in ("rk4_steps_per_s", "replay_samples_per_s")
                           if k in done[0]}
    elif done:
        job = done[0]
        metrics = {name: {"value": job["layers"][name], "unit": unit}
                   for name, unit in metric_units("per_layer").items()}
        detail.update({k: job[k] for k in ("wall_s", "traced_wall_s", "span_count",
                                           "span_cost_us", "pool_wait_s", "scaling",
                                           "repair_split")})
        detail["scaling_flags"] = [s["metric"] for s in job["scaling"] if s["flag"]]
    (run_dir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
