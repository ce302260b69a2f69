#!/usr/bin/env python3
"""Benchmark of the chaoslab command line, end to end and per layer.

    python3 perfbench/run.py --workload vorticity|lattice|sweep|all
                             [--seed N] [--seconds S] [--trace 0|1]

Each run repeats whole rounds of the workload's job list for about S
seconds; every job is a fresh ``python -m chaoslab.cli`` process, run one
after another, as a user runs them.  Every job's outputs are checked: in the
first round against computations made apart from the program (checks.py),
in later rounds byte for byte against the first round.

--trace 0 reports the end-to-end metrics (medians over rounds).  --trace 1
alternates untraced rounds with rounds whose jobs run under trace_job.py,
and reports the per-layer metrics from the spans plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record goes
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy

from checks import CHECKS, CheckFailed, check_config, read_json
from workloads import TIMED, WORKLOADS, Job

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
TRACE_JOB = os.path.join(HERE, "trace_job.py")
JOB_TIMEOUT_S = 60.0
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_ROUNDS = 2          # untraced rounds in a --trace 0 run
MIN_TRACE_PAIRS = 1     # untraced + traced round pairs in a --trace 1 run


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- running jobs --------------------------------------------------------------------


@dataclass
class JobRun:
    job: Job
    outdir: str
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    spans_path: str | None
    failure: str | None = None


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_job(job, round_dir: str, traced: bool, job_id: str, env: dict) -> JobRun:
    outdir = os.path.join(round_dir, job.name)
    if job.config_file is not None:
        with open(os.path.join(round_dir, job.name + ".cfg"), "w") as fh:
            fh.writelines(f"{k} = {v}\n" for k, v in job.config_file.items())
    argv = job.argv(round_dir, outdir)
    spans_path = os.path.join(round_dir, job.name + ".spans.json") if traced else None
    cmd = ([sys.executable, TRACE_JOB, spans_path, job_id, "--", *argv] if traced
           else [sys.executable, "-m", "chaoslab.cli", *argv])
    with open(os.path.join(round_dir, job.name + ".log"), "w") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobRun(job, outdir, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode, spans_path)


def run_round(jobs, round_dir: str, traced: bool, env: dict):
    os.makedirs(round_dir)
    t0 = time.perf_counter()
    runs = [run_job(job, round_dir, traced, f"{os.path.basename(round_dir)}/{job.name}", env)
            for job in jobs]
    return runs, time.perf_counter() - t0


# -- checking jobs ---------------------------------------------------------------------


def data_hashes(outdir: str) -> dict:
    """sha256 of every data output (the manifest carries timings)."""
    if not os.path.isdir(outdir):
        return {}
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name != "manifest.json":
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def log_tail(run: JobRun) -> str:
    with open(os.path.join(os.path.dirname(run.outdir), run.job.name + ".log")) as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1][:160] if lines else ""


def full_check(run: JobRun, by_name: dict) -> None:
    job = run.job
    if job.rerun_of is not None:
        original = by_name[job.rerun_of]
        if data_hashes(run.outdir) != data_hashes(original.outdir):
            raise CheckFailed(f"--config manifest re-run of {job.rerun_of} changed the data outputs")
        check_config(run.outdir, read_json(original.outdir, "manifest.json")["config"])
        return
    check_config(run.outdir, job.cfg)
    CHECKS[job.command](run.outdir, {**job.cfg, **job.extra})


def check_round(runs, first: dict) -> None:
    """Set run.failure for each job that failed; first maps job name to the
    (hashes, failure) of its first, fully checked round."""
    by_name = {run.job.name: run for run in runs}
    for run in runs:
        job = run.job
        if run.exit != job.expect_exit:
            run.failure = f"exit {run.exit}, expected {job.expect_exit}"
            if run.exit != 0:
                run.failure += f": {log_tail(run)}"
            continue
        if job.expect_exit != 0:
            continue
        hashes = data_hashes(run.outdir)
        if job.name in first:
            want, failure = first[job.name]
            run.failure = failure if hashes == want else "data outputs differ from round 1"
            continue
        try:
            full_check(run, by_name)
        except CheckFailed as exc:
            run.failure = str(exc)
        except Exception as exc:  # malformed outputs: record, keep checking the rest
            run.failure = f"unreadable outputs: {type(exc).__name__}: {exc}"
        first[job.name] = (hashes, run.failure)


# -- set-up and imports -------------------------------------------------------------------


def import_line(jobs) -> str:
    mods = ["chaoslab.cli"]
    for job in jobs:
        mods += [m for m in job.modules() if m not in mods]
    return "import " + ", ".join(mods)


def measure_setup(code: str, env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


IMPORT_MODULES = ["numpy", "scipy.linalg", "chaoslab", "chaoslab.cli", "chaoslab.kernels",
                  "chaoslab.fourier", "chaoslab.spectra", "chaoslab.nls",
                  "chaoslab.dashed_line", "chaoslab.laxpairs", "chaoslab.darboux",
                  "chaoslab.shadowing"]


def measure_imports(code: str, env: dict) -> dict:
    """Cumulative first-import time per module from -X importtime, medians."""
    samples = {name: [] for name in IMPORT_MODULES}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env,
                              cwd=ROOT, check=True, capture_output=True, text=True)
        seen = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)", line)
            if m and m.group(2) not in seen:
                seen[m.group(2)] = int(m.group(1)) * 1e-6
        for name in IMPORT_MODULES:
            samples[name].append(seen.get(name, 0.0))
    return {f"import.{name}_s": statistics.median(v) for name, v in samples.items()}


# -- environment -----------------------------------------------------------------------------


def openblas_info() -> dict:
    """Thread count and build string of the OpenBLAS that numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            conf = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get is not None:
                get.restype = ctypes.c_int
                info = {"openblas_threads": get(), "openblas_library": os.path.basename(path)}
                if conf is not None:
                    conf.restype = ctypes.c_char_p
                    info["openblas_config"] = conf().decode()
                return info
    return {}


def read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def cpu_info() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo") as fh:
            m = re.search(r"model name\s*:\s*(.*)", fh.read())
        info["cpu"] = m.group(1) if m else None
        base = "/sys/devices/system/cpu/cpu0/cache"
        caches = {}
        for index in sorted(i for i in os.listdir(base) if i.startswith("index")):
            level, kind, size = (read_text(os.path.join(base, index, f))
                                 for f in ("level", "type", "size"))
            caches[f"L{level}{kind[0].lower()}"] = size
        info["caches_per_core"] = caches
    except (OSError, AttributeError):
        pass
    return info


def environment(runs) -> dict:
    backend = None
    for run in runs:
        path = os.path.join(run.outdir, "manifest.json")
        if os.path.exists(path):
            with open(path) as fh:
                backend = json.load(fh)["versions"]["kernels"]
            break
    return {"backend": backend, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            **openblas_info(), **cpu_info()}


# -- metrics ------------------------------------------------------------------------------------


def end_to_end(rounds) -> dict:
    per_round = []
    for runs, wall in rounds:
        row = {"wall_s": wall, "peak_rss_mb": max(r.rss_mb for r in runs)}
        for command in TIMED:
            row[command.replace("-", "_") + "_s"] = sum(
                r.wall for r in runs if r.job.command == command)
        per_round.append(row)
    return {key: statistics.median(row[key] for row in per_round) for key in per_round[0]}


SPAN_METRICS = {  # span name -> aggregates reported
    "kernels.galerkin_rhs": ("calls", "busy_s", "pairs_per_s"),
    "kernels.pdnls_rk4": ("busy_s", "steps_per_s"),
    "kernels.dashed_rk4": ("busy_s", "steps_per_s"),
    "kernels.pdnls_rhs": ("calls", "busy_s"),
    "nls.pdnls_jacobian_full": ("calls", "busy_s"),
    "fourier.integrate_galerkin": ("self_s",),
    "nls.simulate": ("self_s",),
    "dashed_line.integrate": ("self_s",),
    "fourier.grid_bracket": ("calls", "busy_s"),
    "laxpairs.compatibility_residual_2d": ("busy_s",),
    "laxpairs.isospectrality_check": ("busy_s",),
    "laxpairs.jacobi_defect": ("busy_s",),
    "darboux.verify_darboux": ("busy_s",),
    "spectra.build_class_operator": ("busy_s",),
    "spectra.truncated_spectrum": ("busy_s",),
    "spectra.continued_fraction_eigen": ("busy_s",),
    "nls.center_wing_encode": ("busy_s",),
    "nls.discrete_saddle": ("busy_s",),
    "shadowing.find_shadow": ("busy_s", "self_s"),
    "shadowing.map": ("calls",),
    "shadowing.jacobian": ("calls",),
    "shadowing.palmer_assembly": ("busy_s",),
    "shadowing.hyperbolicity_estimate": ("busy_s",),
    "dashed_line.model_rhs": ("calls",),
    "dashed_line.model_jacobian": ("busy_s",),
    "cli.write_csv": ("busy_s", "mb"),
    "cli.write_json": ("busy_s",),
    "cli.parse_args": ("busy_s",),
}


def layer_totals(runs) -> tuple[dict, list]:
    """Per-layer aggregates of one traced round, and its jobs' span records."""
    calls, busy, self_time, work, spans_out = {}, {}, {}, {}, []
    iterations = 0
    for run in runs:
        if run.job.command == "shadow":
            path = os.path.join(run.outdir, "report.json")
            if os.path.exists(path):
                with open(path) as fh:
                    iterations += len(json.load(fh).get("newton_residuals", []))
        if not run.spans_path or not os.path.exists(run.spans_path):
            continue
        with open(run.spans_path) as fh:
            doc = json.load(fh)
        names, spans = doc["names"], doc["spans"]
        child = [0.0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name_id, start, end, parent) in enumerate(spans):
            name = names[name_id]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child[i]
        for name, value in doc["work"].items():
            work[name] = work.get(name, 0) + value
        spans_out.append(doc)
    out = {}
    for name, kinds in SPAN_METRICS.items():
        b = busy.get(name, 0.0)
        rate = work.get(name, 0) / b if b else 0.0
        values = {"calls": calls.get(name, 0), "busy_s": b,
                  "self_s": self_time.get(name, 0.0),
                  "pairs_per_s": rate, "steps_per_s": rate,
                  "mb": work.get(name, 0) / 2 ** 20}
        for kind in kinds:
            out[f"{name}.{kind}"] = values[kind]
    out["shadowing.find_shadow.iterations"] = iterations
    return out, spans_out


# -- one workload ----------------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = WORKLOADS[name](seed, ROOT)
    env = child_env()
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    code = import_line(jobs)

    setup = measure_setup(code, env)
    first: dict = {}
    untraced, traced, all_runs, rounds = [], [], [], []
    start = time.perf_counter()
    k = 0
    while True:
        enough = (len(traced) >= MIN_TRACE_PAIRS if trace else len(untraced) >= MIN_ROUNDS)
        if enough and time.perf_counter() - start >= seconds:
            break
        # in a trace run, alternate which of the pair goes first
        modes = ([k % 2 == 1, k % 2 == 0] if trace else [False])
        for traced_round in modes:
            round_dir = os.path.join(work_dir, f"round{len(untraced) + len(traced)}")
            runs, wall = run_round(jobs, round_dir, traced_round, env)
            check_round(runs, first)
            (traced if traced_round else untraced).append((runs, wall))
            rounds.append({"traced": traced_round, "wall_s": wall,
                           "jobs": [{"name": r.job.name, "wall_s": r.wall, "cpu_s": r.cpu,
                                     "rss_mb": r.rss_mb,
                                     "exit": r.exit, "failure": r.failure} for r in runs]})
            all_runs += runs
        k += 1

    failures = [(r.job.name, r.job.fault, r.failure) for r in all_runs if r.failure]
    correct = all(fault is not None for _, fault, _ in failures)
    if trace:
        per_round = []
        for runs, _ in traced:
            totals, spans = layer_totals(runs)
            per_round.append(totals)
        metrics = {key: statistics.median(row[key] for row in per_round) for key in per_round[0]}
        metrics.update(measure_imports(code, env))
        metrics["trace.overhead_s"] = (statistics.median(w for _, w in traced)
                                       - statistics.median(w for _, w in untraced))
        with open(os.path.join(OUT, f"{name}-seed{seed}-spans.json"), "w") as fh:
            json.dump({"span_fields": ["name id", "start", "end", "parent index"],
                       "jobs": spans}, fh)
    else:
        metrics = {"setup_s": statistics.median(setup), **end_to_end(untraced)}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": correct, "attempted": len(all_runs), "failed": len(failures),
        "metrics": metrics, "setup_samples_s": setup,
        "rounds": rounds,
        "failures": sorted({(n, f) for n, _, f in failures}),
        "environment": environment(all_runs),
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if not failures or all(fault for _, fault, _ in failures):
        shutil.rmtree(work_dir, ignore_errors=True)
    return record


# -- entry point ---------------------------------------------------------------------------------------


UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith(".mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    return "count"


def report(record: dict) -> dict:
    print(f"== {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} jobs attempted, {record['failed']} failed")
    for name, reason in record["failures"]:
        print(f"   failed {name}: {reason}")
    env = record["environment"]
    print("   environment: " + ", ".join(f"{k}={env.get(k)}" for k in
                                          ("backend", "python", "numpy", "nproc",
                                           "openblas_threads")))
    for metric, value in record["metrics"].items():
        print(f"   {metric:44s} {value:14.6g} {unit_of(metric)}")
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {m: {"value": v, "unit": unit_of(m)}
                        for m, v in record["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("vorticity", "lattice", "sweep", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for rel in ("src/chaoslab/cli.py", "tests/oracles.py", "configs/chaotic_demo.cfg"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail_setup(f"{rel} not found under {ROOT}; run from a chaoslab checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))  # oracles.dashed_rhs_ref imports chaoslab
    os.makedirs(OUT, exist_ok=True)

    names = ("vorticity", "lattice", "sweep") if args.workload == "all" else (args.workload,)
    results = {name: report(run_workload(name, args.seed, args.seconds, bool(args.trace)))
               for name in names}
    if args.workload == "all":
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "workloads": results}
        print(json.dumps(summary))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
