"""Child-process side of the benchmark: the only file here that imports ggphase.

    python worker.py library SPEC OUT SECONDS
        Untraced library workload: repeats the library call list in this one
        interpreter for about SECONDS, timing every call.
    python worker.py trace SPEC OUT SECONDS
        Traced run of a job list in process: CLI jobs through
        ``ggphase.cli.main(argv)``, library jobs as direct calls. After one
        untimed warm-up pass, untraced and traced passes alternate (at least
        one of each), so the tracing
        overhead is the difference of their walls. Spans go to
        ``spans.csv`` beside OUT.

SPEC is a JSON list of jobs written by run.py; OUT receives a JSON result.
run.py starts this with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback

import numpy as np

import ggphase as gg
import ggphase.cli


def _observable(path):
    return gg.Observable(np.load(path))


def _prepare(call: dict):
    """Load one library job's inputs and return a zero-argument callable
    whose result is JSON-serializable."""
    kind = call["call"]
    if kind == "survival_amplitude":
        h0 = gg.Observable(np.diag(np.load(call["h0"])))
        v = _observable(call["v"])

        def run():
            z = gg.dynamics.survival_amplitude(h0, v, call["i"], call["t"], order=3)
            return [z.real, z.imag]

        return run
    if kind in ("loop_holonomy", "curve_phase"):
        curve = gg.ParamCurve(np.load(call["params"]), np.load(call["states"]))
        obs = _observable(call["obs"])
        return lambda: getattr(gg.curve, kind)(curve, obs).value
    if kind == "triangle_holonomy":
        a, b, c = (gg.StateVector(v) for v in np.load(call["vertices"]))
        obs = _observable(call["obs"])
        return lambda: gg.curve.triangle_holonomy(a, b, c, obs, M=call["samples"]).value
    if kind == "generalized_phase_chain":
        data = np.load(call["chains"])
        chains = []
        for j in range(call["count"]):
            states = [gg.StateVector(row) for row in data[f"s{j}"]]
            obs = gg.Observable(data[f"o{j}"]) if f"o{j}" in data else None
            chains.append((states, obs))
        return lambda: [gg.phase.generalized_phase_chain(s, o).value for s, o in chains]
    raise ValueError(f"unknown library call {kind!r}")


def _runnable(job: dict):
    """A zero-argument callable for one job. A job that raises yields None,
    which the checks in run.py count as a failure, and the pass goes on."""
    call = (lambda: _cli_status(job["argv"])) if "argv" in job else _prepare(job["call"])

    def attempt():
        try:
            return call()
        except Exception:  # a crash of the program under test, not of this worker
            traceback.print_exc()
            return None

    return attempt


def _cli_status(argv: list[str]) -> int:
    try:
        return ggphase.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        return exc.code if isinstance(exc.code, int) else 1


def run_library(jobs: list[dict], seconds: float) -> dict:
    calls = [(job["name"], _runnable(job)) for job in jobs]
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + statistics.median(p["wall"] for p in passes) <= deadline:
        durations, values = {}, {}
        start = time.perf_counter()
        for name, call in calls:
            t0 = time.perf_counter()
            values[name] = call()
            durations[name] = time.perf_counter() - t0
        passes.append({"wall": time.perf_counter() - start, "durations": durations, "values": values})
    return {"passes": passes}


def run_trace(jobs: list[dict], seconds: float, spans_path: str) -> dict:
    from tracer import Tracer, median_metrics

    tracer = Tracer()
    tracer.install()
    calls = [(job["name"], _runnable(job)) for job in jobs]
    walls = {False: [], True: []}
    per_pass, outcomes = [], []

    def one_pass(on: bool) -> float:
        if on:
            tracer.reset_counts()
            first = len(tracer.spans)
            tracer.enable()
        start = time.perf_counter()
        results = {}
        try:
            for name, call in calls:
                results[name] = tracer.job(name, call) if on else call()
        finally:
            tracer.disable()
        wall = time.perf_counter() - start
        outcomes.append(results)
        if on:
            per_pass.append(tracer.metrics(first))
        return wall

    deadline = time.perf_counter() + seconds
    one_pass(False)  # warm-up: first-call costs stay out of both walls
    while True:
        for on in (False, True):
            walls[on].append(one_pass(on))
        estimate = statistics.median(walls[False]) + statistics.median(walls[True])
        if time.perf_counter() + estimate > deadline:
            break
    tracer.write_spans(spans_path)
    metrics = median_metrics(per_pass)
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    metrics["trace.inprocess_wall_s"] = statistics.median(walls[False])
    return {"untraced": walls[False], "traced": walls[True], "metrics": metrics, "outcomes": outcomes}


def main(argv: list[str]) -> int:
    mode, spec_path, out_path, seconds = argv
    with open(spec_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    if mode == "library":
        result = run_library(jobs, float(seconds))
    elif mode == "trace":
        result = run_trace(jobs, float(seconds), os.path.join(os.path.dirname(out_path), "spans.csv"))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["ggphase_file"] = gg.__file__
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
