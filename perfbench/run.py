"""End-to-end and per-layer benchmark of the ggphase CLI and library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Workloads are ``files``, ``batch`` and ``library`` (see workloads.py for
what each stresses and why). Inputs are generated from
``--seed``; the program sees only the generated files.

``--trace 0`` measures what a user waits for. CLI jobs run one after another
(a closed loop with one client) as ``python -m ggphase.cli ... --output F
--csv F`` in fresh interpreters; the ``library`` workload runs in one
long-lived interpreter. The job list is repeated for about S seconds and every
report is checked against a numpy/scipy oracle. Metrics:

    wall_s        median wall of one pass over the job list (first spawn to
                  last report on disk; input generation excluded)
    job_p50_s     median time per job (spawn to exit), or per library call
    peak_rss_mb   largest max-RSS of any job process (os.wait4 rusage)
    success_rate  1 - error_rate; error_rate = failed / attempted is also the
                  ``failed``/``attempted`` pair of the result line
    setup_s       median wall of a fresh ``python -X importtime -c "import
                  ggphase.cli"`` process

``--trace 1`` reports per-layer metrics: the import breakdown from the same
importtime runs, ``cli.report_wall_share`` from one fresh-process pass, and
span-derived metrics from a traced in-process run (worker.py, tracer.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result, with
the environment record, goes to ``.perfbench_run/results/``.

``--selftest`` runs small versions of every job once, checks that all pass,
then tampers with each checked value of each report in turn and checks that
the oracle counts every tampered report as a failure.
"""

from __future__ import annotations

import argparse
import importlib.util
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

import numpy as np

import tracer
import workloads

IMPORT_RUNS = 7
JOB_TIMEOUT_S = 60.0
END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB",
                    "success_rate": "fraction", "setup_s": "s"}
HERE = os.path.dirname(os.path.abspath(__file__))


class Checkout:
    """Paths and the child environment for one benchmark run."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env


def spawn(argv: list[str], co: Checkout, stderr_path: str, limit: float = JOB_TIMEOUT_S):
    """Run one child to completion; return (seconds, exit code, max RSS in MB).

    The child is reaped with os.wait4 for its rusage; a timer kills it if it
    outlives ``limit``.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=co.root, env=co.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(limit, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


# Import breakdown ---------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(seconds importing ggphase and ggphase.cli, seconds importing numpy)."""
    ggphase_us = numpy_us = 0
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if depth == 1 and (name == "ggphase" or name.startswith("ggphase.")):
            ggphase_us += cumulative
        if name == "numpy":
            numpy_us = max(numpy_us, cumulative)
    if not ggphase_us or not numpy_us:
        raise RuntimeError("importtime output names neither ggphase nor numpy")
    return ggphase_us / 1e6, numpy_us / 1e6


def measure_imports(co: Checkout) -> dict:
    """Median wall and import split of fresh interpreters importing ggphase.cli.

    One untimed run first compiles the bytecode cache, as any earlier job
    would have.
    """
    code = "import ggphase.cli, sys; sys.stdout.write(ggphase.cli.__file__)"
    argv = [sys.executable, "-X", "importtime", "-c", code]
    walls, cli_s, numpy_s = [], [], []
    for run in range(IMPORT_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=co.root, env=co.env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import ggphase.cli from {co.src}:\n{proc.stderr[-2000:]}")
        if not os.path.abspath(proc.stdout).startswith(co.src + os.sep):
            raise RuntimeError(f"ggphase.cli came from {proc.stdout}, not from {co.src}")
        if run:
            walls.append(wall)
            g, n = parse_importtime(proc.stderr)
            cli_s.append(g)
            numpy_s.append(n)
    return {"setup_s": statistics.median(walls), "import.ggphase_cli_s": statistics.median(cli_s),
            "import.numpy_s": statistics.median(numpy_s), "setup_walls": walls}


# CLI passes ---------------------------------------------------------------


def cli_paths(co: Checkout, tag: str, index: int, job) -> tuple[str, str | None]:
    base = os.path.join(co.work, "out", tag, f"{index:02d}-{job.name}")
    return base + ".json", (base + ".csv" if job.csv else None)


def cli_argv(co: Checkout, tag: str, index: int, job) -> list[str]:
    out, csv = cli_paths(co, tag, index, job)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    return job.argv + ["--output", out] + (["--csv", csv] if csv else [])


def check_job(co: Checkout, tag: str, index: int, job, code: int) -> tuple[list[str], float | None]:
    """Oracle check of one finished CLI job, and the report's own wall_time_s.

    The job's outputs are removed afterwards, so a later check cannot pass on
    a stale report.
    """
    out, csv = cli_paths(co, tag, index, job)
    try:
        if code != job.exit_code:
            return [f"{job.name}: exit {code}, expected {job.exit_code}"], None
        try:
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return [f"{job.name}: unreadable report: {exc}"], None
        try:
            return job.check(report, csv), report.get("wall_time_s")
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{job.name}: check raised {type(exc).__name__}: {exc}"], None
    finally:
        for path in (out, csv):
            if path and os.path.exists(path):
                os.remove(path)


def run_cli_pass(co: Checkout, jobs, tag: str) -> dict:
    """One fresh-process pass over the job list; outputs go under out/<tag>."""
    durations, codes, rss = [], [], []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        argv = [sys.executable, "-m", "ggphase.cli"] + cli_argv(co, tag, index, job)
        dt, code, mb = spawn(argv, co, os.path.join(co.work, "out", tag, f"{index:02d}.stderr"))
        durations.append(dt)
        codes.append(code)
        rss.append(mb)
    return {"tag": tag, "wall": time.perf_counter() - start, "durations": durations,
            "codes": codes, "rss": rss}


def check_pass(co: Checkout, jobs, run: dict) -> dict:
    """Oracle checks of one pass, and the share of process wall its reports cover."""
    problems, failed, report_wall, process_wall = [], 0, 0.0, 0.0
    for index, job in enumerate(jobs):
        found, job_wall = check_job(co, run["tag"], index, job, run["codes"][index])
        problems += found
        failed += bool(found)
        if job_wall is not None:
            report_wall += job_wall
            process_wall += run["durations"][index]
    return {"problems": problems, "failed": failed,
            "report_wall_share": report_wall / process_wall if process_wall else 0.0}


def until(deadline: float, walls: list[float]) -> bool:
    """True while another pass of median length still fits before the deadline."""
    return not walls or time.perf_counter() + statistics.median(walls) <= deadline


def measure_cli(co: Checkout, jobs, seconds: float) -> dict:
    """Fresh-process passes for about ``seconds``; the checks run afterwards,
    outside the measured window."""
    passes = []
    deadline = time.perf_counter() + seconds
    while until(deadline, [p["wall"] for p in passes]):
        passes.append(run_cli_pass(co, jobs, f"pass{len(passes)}"))
    checks = [check_pass(co, jobs, p) for p in passes]
    durations = [d for p in passes for d in p["durations"]]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "job_p50_s": statistics.median(durations),
        "peak_rss_mb": max(r for p in passes for r in p["rss"]),
        "attempted": len(durations),
        "failed": sum(c["failed"] for c in checks),
        "problems": [q for c in checks for q in c["problems"]],
        "passes": len(passes),
        "pass_walls": [p["wall"] for p in passes],
        "job_samples": len(durations),
        "job_medians": {job.name: statistics.median(p["durations"][i] for p in passes)
                        for i, job in enumerate(jobs)},
    }


# Library and traced runs (worker.py) ----------------------------------------


def worker_spec(co: Checkout, jobs) -> str:
    spec = []
    for index, job in enumerate(jobs):
        if job.argv is not None:
            spec.append({"name": job.name, "argv": cli_argv(co, "trace", index, job)})
        else:
            spec.append({"name": job.name, "call": job.call})
    path = os.path.join(co.work, "spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def run_worker(co: Checkout, mode: str, jobs, seconds: float) -> tuple[dict, float]:
    out = os.path.join(co.work, f"{mode}.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, worker_spec(co, jobs), out,
            repr(max(seconds, 0.0))]
    stderr_path = os.path.join(co.work, f"{mode}.stderr")
    _, code, mb = spawn(argv, co, stderr_path, limit=seconds + JOB_TIMEOUT_S)
    if code != 0:
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            raise RuntimeError(f"worker {mode} exited {code}:\n{fh.read()[-3000:]}")
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    if not os.path.abspath(result["ggphase_file"]).startswith(co.src + os.sep):
        raise RuntimeError(f"worker imported ggphase from {result['ggphase_file']}")
    return result, mb


def check_values(jobs, values: dict) -> list[str]:
    problems = []
    for job in jobs:
        try:
            problems += job.check(values[job.name])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"{job.name}: check raised {type(exc).__name__}: {exc}")
    return problems


def count_failed(jobs, problems: list[str]) -> int:
    return sum(1 for job in jobs if any(p.startswith(job.name + ":") for p in problems))


def measure_library(co: Checkout, jobs, seconds: float) -> dict:
    result, mb = run_worker(co, "library", jobs, seconds)
    passes = result["passes"]
    problems, failed = [], 0
    for p in passes:
        found = check_values(jobs, p["values"])
        problems += found
        failed += count_failed(jobs, found)
    durations = [d for p in passes for d in p["durations"].values()]
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "job_p50_s": statistics.median(durations),
        "peak_rss_mb": mb,
        "attempted": len(durations),
        "failed": failed,
        "problems": problems,
        "passes": len(passes),
        "pass_walls": [p["wall"] for p in passes],
        "job_samples": len(durations),
        "job_medians": {job.name: statistics.median(p["durations"][job.name] for p in passes)
                        for job in jobs},
    }


def measure_trace(co: Checkout, jobs, seconds: float, imports: dict) -> dict:
    """Per-layer metrics: import split, report coverage, traced in-process run."""
    deadline = time.perf_counter() + seconds
    is_cli = jobs[0].argv is not None
    attempted = failed = 0
    problems: list[str] = []
    share = 0.0
    if is_cli:
        fresh = check_pass(co, jobs, run_cli_pass(co, jobs, "fresh"))
        attempted, failed, problems = len(jobs), fresh["failed"], list(fresh["problems"])
        share = fresh["report_wall_share"]
    result, _ = run_worker(co, "trace", jobs, deadline - time.perf_counter())
    outcomes = result["outcomes"]
    for number, outcome in enumerate(outcomes, 1):
        if is_cli:
            found = [f"{job.name}: in-process exit {outcome[job.name]}, expected {job.exit_code}"
                     for job in jobs if outcome[job.name] != job.exit_code]
            if number == len(outcomes):  # the last pass left its reports on disk
                found += [p for index, job in enumerate(jobs)
                          for p in check_job(co, "trace", index, job, outcome[job.name])[0]]
        else:
            found = check_values(jobs, outcome)
        attempted += len(jobs)
        problems += found
        failed += count_failed(jobs, found)
    metrics = dict(result["metrics"])
    metrics.update({
        "import.ggphase_cli_s": imports["import.ggphase_cli_s"],
        "import.numpy_s": imports["import.numpy_s"],
        "import.job_list_s": imports["import.ggphase_cli_s"] * (len(jobs) if is_cli else 1),
        "cli.report_wall_share": share,
    })
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "untraced_walls": result["untraced"], "traced_walls": result["traced"]}


def per_layer_units() -> dict[str, str]:
    units = {"import.ggphase_cli_s": "s", "import.numpy_s": "s", "import.job_list_s": "s",
             "cli.report_wall_share": "fraction"}
    units.update(tracer.metric_units())
    units.update({"trace.overhead_s": "s", "trace.inprocess_wall_s": "s"})
    return units


# Environment and output ---------------------------------------------------


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                       if k in os.environ},
        "client": "closed loop, one client; each job starts after the previous one exits",
    }


def emit(co: Checkout, args, env: dict, measured: dict, metrics: dict, units: dict) -> int:
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = {"environment": env, "result": result,
              "error_rate": measured["failed"] / measured["attempted"],
              **{k: v for k, v in measured.items() if k not in ("attempted", "failed")}}
    results_dir = os.path.join(co.root, ".perfbench_run", "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for problem in measured["problems"][:20]:
        print(f"FAILED {problem}")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{measured['attempted']} jobs attempted, {measured['failed']} failed "
          f"(error_rate {detail['error_rate']:.4g})")
    if "job_samples" in measured:
        print(f"  job_p50_s over {measured['job_samples']} samples; "
              f"wall_s over {measured['passes']} passes")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ggphase", "cli.py")):
        print(f"perfbench: no src/ggphase/cli.py under {root}; run from a ggphase checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_run", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "out"))
    co = Checkout(root, work)
    inputs = os.path.join(work, "inputs")
    try:
        jobs = workloads.build(args.workload, inputs, args.seed)
        imports = measure_imports(co)
        env = environment(args)
        if args.trace:
            measured = measure_trace(co, jobs, args.seconds, imports)
            measured["imports"] = imports
            return emit(co, args, env, measured, measured["metrics"], per_layer_units())
        if args.workload == "library":
            measured = measure_library(co, jobs, args.seconds)
        else:
            measured = measure_cli(co, jobs, args.seconds)
        measured["success_rate"] = 1.0 - measured["failed"] / measured["attempted"]
        measured["setup_s"] = imports["setup_s"]
        measured["imports"] = imports
        return emit(co, args, env, measured, measured, END_TO_END_UNITS)
    finally:
        # inputs and reports run to tens of MB per run; results and spans stay
        shutil.rmtree(inputs, ignore_errors=True)
        shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)


# Self-test ------------------------------------------------------------------


def _leaves(obj, path=()):
    """Paths of every scalar under obj; long lists contribute their ends only."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        picks = range(len(obj)) if len(obj) <= 3 else (0, len(obj) - 1)
        for j in picks:
            yield from _leaves(obj[j], path + (j,))
    else:
        yield path


def _tampered(obj, path):
    """A deep copy of obj with the value at path changed."""
    copy = json.loads(json.dumps(obj))
    node = copy
    for key in path[:-1]:
        node = node[key]
    value = node[path[-1]]
    if isinstance(value, bool):
        node[path[-1]] = not value
    elif isinstance(value, int):
        node[path[-1]] = value + 1
    elif isinstance(value, float):
        node[path[-1]] = value + 1e-3 * max(1.0, abs(value))
    else:
        node[path[-1]] = str(value) + "-tampered"
    return copy


def selftest() -> int:
    root = os.getcwd()
    work = os.path.join(root, ".perfbench_run", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "out"))
    co = Checkout(root, work)
    clean_failures, tampered, missed = [], 0, []
    for name in workloads.WORKLOADS:
        jobs = workloads.build(name, os.path.join(work, name), seed=7, small=True)
        cli_jobs = [job for job in jobs if job.argv is not None]
        for index, job in enumerate(cli_jobs):
            argv = [sys.executable, "-m", "ggphase.cli"] + cli_argv(co, name, index, job)
            _, code, _ = spawn(argv, co, os.path.join(work, "out", name, f"{index:02d}.stderr"))
            out, csv = cli_paths(co, name, index, job)
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh)
            clean_failures += job.check(report, csv) if code == job.exit_code else [f"{job.name}: exit {code}"]
            root_key = "results" if job.exit_code == 0 else "error"
            for path in _leaves(report[root_key], (root_key,)):
                if path[-1] == "message":
                    continue  # free text, not a checked value
                tampered += 1
                if not job.check(_tampered(report, path), csv):
                    missed.append(f"{job.name}: {'.'.join(map(str, path))}")
        lib_jobs = [job for job in jobs if job.argv is None]
        if lib_jobs:
            result, _ = run_worker(co, "library", lib_jobs, 0.0)
            values = result["passes"][0]["values"]
            clean_failures += check_values(lib_jobs, values)
            for job in lib_jobs:
                for path in _leaves({"v": values[job.name]}):
                    tampered += 1
                    if not job.check(_tampered({"v": values[job.name]}, path)["v"]):
                        missed.append(f"{job.name}: {'.'.join(map(str, path))}")
    for problem in clean_failures:
        print(f"clean report failed: {problem}")
    for miss in missed:
        print(f"tampered value not detected: {miss}")
    print(f"selftest: {len(clean_failures)} clean failures; "
          f"{tampered - len(missed)}/{tampered} tampered values detected")
    return 0 if not clean_failures and not missed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
