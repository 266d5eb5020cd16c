"""bimult benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  The
workload runs in one process as a closed loop with one client: the tasks of
a cycle run one after another, cycles repeat with fresh seeded inputs until
the measured time reaches --seconds (whole cycles only, at least three, so
that the per-task median over cycles drops a cycle slowed by other load).
Every task's result is checked against the references in reference.py
before the next one starts; the checks are not timed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the settings and the failed checks.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads, here and in every child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 5
MIN_CYCLES = 3
CAL_REPS = 3  # calibration samples taken before each untraced task
CAL_REF_S = 0.004  # calibration time that defines one reference second


def _import_package():
    """Import bimult from ./src of the checkout, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "bimult", "__init__.py")):
        sys.exit(f"run.py: no package at {SRC}/bimult; run from the root of a checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import bimult

    if os.path.dirname(os.path.dirname(os.path.abspath(bimult.__file__))) != SRC:
        sys.exit(f"run.py: bimult imported from {bimult.__file__}, not from {SRC}")


def _workdir(tag: str) -> str:
    path = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def setup_probe(name: str, seed: int) -> None:
    """What a worker does before its first timed task: import, build inputs."""
    _import_package()
    import workloads

    wl = workloads.WORKLOADS[name]()
    work = _workdir("probe")
    try:
        wl.setup(seed, work)
        wl.cycle(seed, 0)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(name: str, seed: int) -> float:
    """Median wall time of fresh worker processes doing only the set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                        "--workload", name, "--seed", str(seed)], check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine(seed: int) -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:  # only when the checkout itself is a git work tree
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.split()
        commit = out[1] if len(out) == 2 and os.path.samefile(out[0], ROOT) else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bimult")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu or platform.processor(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": int(BLAS_THREADS), "git_commit": commit,
        "src_sha256": digest.hexdigest(), "seed": seed,
    }


_CAL_INPUTS = []


def calibration_sample() -> float:
    """Wall time of a fixed kernel that does not touch the package.

    Small complex ``eigh`` and ``svd`` calls, as in the package's inner loops,
    and interpreter-bound arithmetic on tiny arrays.  Its median over a run
    measures how fast the machine ran while the run measured.
    """
    import numpy as np

    if not _CAL_INPUTS:
        rng = np.random.default_rng(0)
        a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        _CAL_INPUTS.extend([a + a.conj().T, a[:6, :6].copy(), np.ones(8)])
    herm, small, vec = _CAL_INPUTS
    t0 = time.perf_counter()
    for _ in range(40):
        np.linalg.eigh(herm)
        np.linalg.svd(small)
        for _ in range(20):
            vec * 2.0 + vec
    return time.perf_counter() - t0


class Runner:
    def __init__(self, wl, seed: int, seconds: float, tracer=None):
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.upper: list[float] = []
        self.lower: list[float] = []
        self.samples: list[float] = []
        self.by_task: dict[str, list[float]] = {}
        self.calibration: list[float] = []
        self.timed = 0.0
        self.cpu = 0.0
        self.traced = 0.0
        self.cycles = 0
        self.task_id = 0

    def _timed(self, task, traced: bool):
        self.wl.traced = traced  # read by workloads that start processes
        if traced:
            self.tracer.task = self.task_id
            self.tracer.enabled = True
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result, error = task.run(), None
        except Exception as exc:  # a task that raises counts as failed
            result, error = None, f"{task.name}: raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if traced:
            self.tracer.enabled = False
        else:
            self.cpu += time.process_time() - c0
        self.task_id += 1
        return result, error, dt

    def _record(self, task, result, error):
        import workloads

        ck = workloads.Check()
        if error is None:
            try:
                task.check(result, ck)
            except Exception as exc:  # a malformed result fails its check
                ck.failures.append(f"{task.name}: check raised {type(exc).__name__}: {exc}")
        else:
            ck.failures.append(error)
        self.attempted += 1
        if ck.failures:
            self.failed += 1
            self.failures.extend(ck.failures)
        if getattr(self.wl, "scores_digits", True):
            self.upper.extend(ck.upper)
            self.lower.extend(ck.lower)

    def run(self, traced: bool):
        """Whole cycles, at least MIN_CYCLES, until the measured time reaches --seconds.

        With tracing, each task runs untraced and then traced on the same
        inputs, and both count toward the time budget.
        """
        spent = 0.0
        while True:
            tasks = self.wl.cycle(self.seed, self.cycles)
            cycle_time = 0.0
            for task in tasks:
                task.prepare()
                self.calibration.extend(calibration_sample() for _ in range(CAL_REPS))
                result, error, dt = self._timed(task, traced=False)
                self._record(task, result, error)
                self.samples.append(dt)
                self.by_task.setdefault(task.name, []).append(dt)
                cycle_time += dt
                if traced:
                    result, error, dt_traced = self._timed(task, traced=True)
                    self._record(task, result, error)
                    self.traced += dt_traced
                    spent += dt_traced
            self.timed += cycle_time
            spent += cycle_time
            self.cycles += 1
            if spent >= self.seconds and self.cycles >= MIN_CYCLES:
                break


def end_to_end(r: Runner, wl, setup_s: float) -> dict:
    import workloads

    rss = wl.peak_rss_mb() if hasattr(wl, "peak_rss_mb") else workloads.self_peak_rss_mb()
    return {
        "setup_s": setup_s,
        # tasks_per_s at the machine speed where the calibration takes CAL_REF_S
        "tasks_per_ref_s": tasks_per_s(r) * statistics.median(r.calibration) / CAL_REF_S,
        "pass_ratio": (r.attempted - r.failed) / r.attempted,
        "peak_rss_mb": rss,
        "upper_digits": digits(r.upper, 0.5),
        "lower_digits": digits(r.lower, 0.25),
    }


def tasks_per_s(r: Runner) -> float:
    """One cycle of the fixed mix, each task at its median over the cycles:
    a burst of load from other processes that slows one cycle is dropped."""
    return len(r.by_task) / sum(statistics.median(v) for v in r.by_task.values())


def digits(values, q: float) -> float:
    """Quantile ``q`` of the per-task digits; the cap when there are none.

    The worst of a handful of tasks moves by up to a third from one seed to
    the next.  Upper bounds come from tolerance-limited solvers whose excess
    varies by input, so their median is taken; lower bounds mostly reach
    the cap, so their first quartile is taken, which still falls when a
    quarter of the tasks lose accuracy.
    """
    import reference

    if len(values) < 2:
        return values[0] if values else reference.DIGITS_CAP
    return statistics.quantiles(values, n=4, method="inclusive")[int(4 * q) - 1]


def per_layer(r: Runner, wl, tracer) -> dict:
    import tracer as tr

    if wl.name == "cli-session":
        aggs = []
        spans_out = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{r.seed}.tsv")
        with open(spans_out, "w", encoding="utf-8") as out:
            for task_id, path in enumerate(wl.trace_files):
                with open(path, encoding="utf-8") as fh:
                    aggs.append(json.load(fh))
                with open(path + ".spans", encoding="utf-8") as fh:
                    for line in fh:
                        cols = line.rstrip("\n").split("\t")
                        cols[4] = str(task_id)
                        out.write("\t".join(cols) + "\n")
        agg = tr.merge(aggs)
    else:
        agg = tracer.aggregate()
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{r.seed}.tsv"))
    return tr.layer_metrics(agg, r.traced, r.timed, r.cycles)


def declared(kind: str) -> list:
    """The metrics BENCHMARK.json declares for ``end_to_end`` or ``per_layer``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    wl = workloads.WORKLOADS[args.workload]()
    work = _workdir("run")
    try:
        wl.setup(args.seed, work)
        if hasattr(wl, "prepare_run"):
            wl.prepare_run()
        r = Runner(wl, args.seed, args.seconds, tracer)
        r.run(traced=bool(args.trace))
        values = per_layer(r, wl, tracer) if args.trace else end_to_end(r, wl, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": wl.name, "machine": machine(args.seed), "cycles": r.cycles,
            "measured_s": r.timed, "cpu_s": r.cpu + getattr(wl, "child_cpu_s", 0.0),  # untraced
            "trace": bool(args.trace),
            "tasks_per_s": tasks_per_s(r),
            "calibration_ms": 1e3 * statistics.median(r.calibration) if r.calibration else None,
            "task_s": {"p50": statistics.median(r.samples),
                       "p90": statistics.quantiles(r.samples, n=10, method="inclusive")[8],
                       "samples": len(r.samples)},
            "digits": {side: {"worst": min(vals, default=None),
                              "median": statistics.median(vals) if vals else None,
                              "count": len(vals)}
                       for side, vals in (("upper", r.upper), ("lower", r.lower))},
            "failures": r.failures[:20]}
    print(json.dumps(info))
    print(json.dumps({
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared("per_layer" if args.trace else "end_to_end")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
