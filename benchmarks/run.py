"""Run one benchmark workload against the package in ``src/`` and print its metrics.

Run from the repository root::

    python3 benchmarks/run.py --workload design-small --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it give the environment and any failing
inputs. A full record, and the spans of a traced run, are written under
``benchmarks/out/``.
"""

import os
import sys

# Set before NumPy loads, and inherited by every child process: one BLAS and
# OpenMP thread, no tolerance override, and bytecode cached inside the
# checkout whatever the caller's settings, so that import time means the
# same thing everywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("GSYNTH_TOL", None)
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
os.environ["PYTHONPYCACHEPREFIX"] = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "out", "pycache")
sys.dont_write_bytecode = False
sys.pycache_prefix = os.environ["PYTHONPYCACHEPREFIX"]

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Set-up (input generation and warm-up) is repeated this often; its median counts.
SETUP_REPEATS = 3
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gsynth.cli; "
                "print(time.perf_counter() - t)")
#: Failures printed before the result line; all of them go to the record file.
SHOWN_FAILURES = 20


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def fresh_import_s(env: dict) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[Path(path).name] = fn()
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    import gsynth

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gsynth": gsynth.__version__,
        "blas_vendor": vendor,
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def measure(workload, seconds: float, tracer, probe, n_probes: int) -> dict:
    """Closed loop, one client: whole cycles until the nearest cycle end to ``seconds``.

    ``probe`` is called ``n_probes`` times in all, at cycle ends in step with
    the loop's progress; its time does not count towards ``seconds``.
    """
    op_ns, failures, pairs, probes = [], [], [], []
    attempted = cycles = 0
    probe_s = 0.0
    start = time.perf_counter()
    while True:
        for item in workload.cycles[cycles % len(workload.cycles)]:
            attempted += 1
            t0 = time.perf_counter_ns()
            try:
                out = workload.op(item)
            except Exception as exc:  # every failure is counted, none stops the run
                out = exc
            t1 = time.perf_counter_ns()
            op_ns.append(t1 - t0)
            if isinstance(out, Exception):
                problems = [f"raised {type(out).__name__}: {out}"]
            else:
                try:
                    problems = workload.check(item, out)
                except Exception as exc:
                    problems = [f"output could not be checked: {type(exc).__name__}: {exc}"]
            if tracer is not None:
                tracer.op_id = attempted - 1
                try:
                    pairs.append(workload.trace_pass(item, tracer, t0, t1))
                except Exception as exc:
                    problems.append(f"traced pass failed: {type(exc).__name__}: {exc}")
            if problems:
                failures.append({"input": workload.describe(item), "problems": problems})
        cycles += 1
        elapsed = time.perf_counter() - start - probe_s
        done = cycles >= workload.MIN_CYCLES and elapsed + 0.5 * elapsed / cycles >= seconds
        due = n_probes if done else min(n_probes, int(n_probes * elapsed / seconds))
        while len(probes) < due:
            p0 = time.perf_counter()
            probes.append(probe())
            probe_s += time.perf_counter() - p0
        if done:
            break
    return {"op_ns": op_ns, "failures": failures, "pairs": pairs, "attempted": attempted,
            "cycles": cycles, "elapsed_s": elapsed, "probes": probes}


def end_to_end(run: dict, setup_s: float, children_rss: bool) -> dict:
    op_ms = [ns / 1e6 for ns in run["op_ns"]]
    deciles = statistics.quantiles(op_ms, n=10, method="inclusive")
    who = resource.RUSAGE_CHILDREN if children_rss else resource.RUSAGE_SELF
    return {
        "setup_s": setup_s,
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(run: dict, tracer, workload) -> dict:
    from tracing import TARGETS
    from workloads import CliCold

    passes = max(1, len(run["pairs"]))
    totals = tracer.self_times_ns()
    metrics = {f"{name}_ms": totals.get(name, 0) / passes / 1e6 for name, _, _ in TARGETS}
    for command in CliCold.COMMANDS:
        for suffix in ("", "_work"):
            durations = tracer.durations_ns(f"cli.{command}{suffix}")
            metrics[f"cli.{command}{suffix}_ms"] = (
                sum(durations) / len(durations) / 1e6 if durations else 0.0)
    counts = workload.counts
    metrics["structure.decompose.infeasible_share"] = (
        counts["decompose_infeasible"] / counts["decompose"] if counts["decompose"] else 0.0)
    metrics["dynamics.evolve.rk4_share"] = (
        counts["evolve_rk4"] / counts["evolve"] if counts["evolve"] else 0.0)
    plain = sum(p for p, _ in run["pairs"])
    traced = sum(t for _, t in run["pairs"])
    metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0) if plain else 0.0
    metrics["trace.pass_ms"] = traced / passes / 1e6
    metrics["trace.spans_per_pass"] = len(tracer.spans) / passes
    metrics["fail_ratio"] = len(run["failures"]) / run["attempted"]
    metrics["cli.import_ms"] = 1e3 * statistics.median(run["probes"]) if run["probes"] else 0.0
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gsynth" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'gsynth'}", file=sys.stderr)
        return 2
    env = child_env()
    # Fills the bytecode cache (compiled once per checkout) and the file cache.
    subprocess.run([sys.executable, "-c", "import gsynth.cli"], cwd=ROOT, env=env,
                   timeout=170, check=True)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gsynth.cli  # noqa: F401  (the timed first import of this process)
    first_import_s = time.perf_counter() - t0
    import gsynth
    if Path(gsynth.__file__).resolve().parent != SRC / "gsynth":
        print(f"error: imported gsynth from {gsynth.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload](ROOT, env)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            s0 = time.perf_counter()
            workload.setup(args.seed)
            workload.warm_up()
            setup_times.append(time.perf_counter() - s0)
        tracer = Tracer() if args.trace else None
        run = measure(workload, args.seconds, tracer, lambda: fresh_import_s(env),
                      workload.IMPORT_PROBES if args.trace else 0)
    finally:
        workload.close()

    if tracer is None:
        computed = end_to_end(run, first_import_s + statistics.median(setup_times),
                              children_rss=args.workload == "cli-cold")
        wanted = spec["end_to_end"]
    else:
        computed = per_layer(run, tracer, workload)
        wanted = spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}

    failures = run["failures"]
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cycles": run["cycles"], "elapsed_s": run["elapsed_s"], "import_samples_s": run["probes"],
        "fail_ratio": len(failures) / run["attempted"], "failures": failures,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": environment(), "summary": summary, "metrics": computed}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(f"{stem}-spans.json")

    print(json.dumps({"env": record["env"]}))
    print(json.dumps({**summary, "failures": failures[:SHOWN_FAILURES]}))
    print(json.dumps({"correct": not failures, "attempted": run["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
