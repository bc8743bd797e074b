"""Seeded inputs and job lists for the two benchmark workloads.

Every input comes from ``numpy.random.default_rng(seed)`` and is written to
files; ggphase sees only those files (CLI jobs) or arrays loaded from them
(library jobs). Each job carries a check that compares its output with the
numpy/scipy oracle in ``oracle.py``.

Why each workload exists:

- ``cli``: every CLI job, in fresh processes, in three groups.
  - geometry is parse-heavy (5000x16 chain, 20001-sample curve and null
    curve): input parsing and state construction dominate;
  - tables is emit-heavy (perturbation table at dim 128 for two levels, Born
    grid at n=256): the O(n^2) triple tables and 16k/65k-row reports
    dominate;
  - batch is two dozen short jobs, two sweeps and four jobs whose correct
    outcome is exit 2: interpreter start and import dominate, then the
    separable quadrature and the sweep's observable reloads.
  The groups share one job list because a pass of any one group is too short
  for a run to average out the drift of CPU speed on a shared host.
- ``library``: one long-lived interpreter calling functions the CLI cannot
  reach (survival amplitude, holonomies) and the chain and curve phases, so
  kernel, curve and dynamics costs show without process start, parse or emit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("cli", "library")


@dataclass
class Job:
    """One CLI invocation or one library call, with the check of its output.

    CLI jobs have ``argv`` (arguments after ``python -m ggphase.cli``) and a
    ``check(report, csv_path)``; library jobs have ``call`` (a JSON spec the
    worker executes) and a ``check(value)``. Both return a list of problems.
    """

    name: str
    check: Callable
    argv: list[str] | None = None
    call: dict | None = None
    exit_code: int = 0
    csv: bool = True


# Input files ---------------------------------------------------------------


def _cjson(z: complex):
    return {"re": float(z.real), "im": float(z.imag)}


def _vector(v: np.ndarray) -> list:
    return [_cjson(z) for z in v.tolist()]


def _matrix(m: np.ndarray) -> list:
    return [_vector(row) for row in m]


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _save(path: str, arr: np.ndarray) -> str:
    np.save(path, arr)
    return path


def _complex(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _hermitian(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    m = _complex(rng, dim, dim)
    return scale * (m + m.conj().T) / 2.0


def _positive_definite(rng, dim: int, margin: float = 0.3) -> np.ndarray:
    m = _complex(rng, dim, dim)
    return m.conj().T @ m / dim + margin * np.eye(dim)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _null_theta(a: np.ndarray, b: np.ndarray, obs: np.ndarray) -> float | None:
    """theta = Arg<b|O|a> when (a, b, O) lies inside the documented null-curve
    domain of criterion 5, else None: non-vanishing link, |theta| <= 2, and
    <n|O|n> within a 0.2 min/max ratio along the phase-aligned chord
    (201-point scan)."""
    link = complex(np.vdot(b, obs @ a))
    theta = math.atan2(link.imag, link.real)
    if abs(link) < 1e-6 or abs(theta) > 2.0:
        return None
    x = np.linspace(0.0, 1.0, 201)
    chord = (1 - x)[:, None] * a + (x * np.exp(1j * theta))[:, None] * b
    den = np.einsum("ld,de,le->l", chord.conj(), obs, chord).real
    return theta if den.min() / den.max() >= 0.2 else None


def _null_pair(rng, dim: int):
    while True:
        a, b = _unit(_complex(rng, dim)), _unit(_complex(rng, dim))
        obs = _positive_definite(rng, dim)
        theta = _null_theta(a, b, obs)
        if theta is not None:
            return a, b, obs, theta


def _smooth_curve(rng, samples: int, dim: int):
    """A non-uniform grid and exp(-i s K) psi0 with a smooth gauge factor."""
    u = np.linspace(0.0, 1.0, samples)
    params = u + 0.1 * np.sin(2.0 * math.pi * u) / (2.0 * math.pi)
    w, q = np.linalg.eigh(_hermitian(rng, dim, 0.5))
    coeff = q.conj().T @ _unit(_complex(rng, dim))
    states = (np.exp(-1j * np.outer(params, w)) * coeff) @ q.T
    states *= np.exp(0.5j * np.sin(3.0 * params))[:, None]
    return params, states


def _chain(rng, length: int, dim: int, obs: np.ndarray | None) -> np.ndarray:
    while True:
        states = _complex(rng, length, dim)
        if np.abs(oracle.chain_links(states, obs)).min() > 1e-6:
            return states


# CLI jobs -----------------------------------------------------------------


def _phase_job(name, d, rng, length, dim, identity=False) -> Job:
    obs = None if identity else _hermitian(rng, dim)
    states = _chain(rng, length, dim, obs)
    argv = ["phase", "--states", _write(f"{d}/{name}.states.json", _matrix(states))]
    if identity:
        argv.append("--identity")
    else:
        argv += ["--observable", _write(f"{d}/{name}.obs.json", _matrix(obs))]
    return Job(name, lambda rep, csv: oracle.check_phase(rep, name, states, obs), argv)


def _cycle_h(rng, dim: int) -> np.ndarray:
    while True:
        h = _hermitian(rng, dim)
        if min(abs(h[1, 0]), abs(h[2, 1]), abs(h[0, 2])) > 1e-3:
            return h


def _cycle_job(name, d, rng, dim) -> Job:
    h = _cycle_h(rng, dim)
    eps = float(rng.uniform(1e-3, 1e-2))
    argv = ["cycle", "--h", _write(f"{d}/{name}.h.json", _matrix(h)), "--epsilon", repr(eps)]

    def check(rep, csv):
        c = oracle.Checker(name)
        res = oracle.results_of(rep, c)
        if res is not None:
            oracle.check_cycle(res, c, h, eps)
        return c.problems

    return Job(name, check, argv)


def _two_level_job(name, rng, kind) -> Job:
    while True:
        theta = float(rng.uniform(0.2, 2.0 * math.pi - 0.2))
        phi = float(rng.uniform(-math.pi + 0.2, math.pi - 0.2))
        if abs(theta - math.pi) < 0.2:
            continue
        if math.hypot(math.cos(theta), math.sin(theta) * math.sin(phi)) > 0.1:
            break
    argv = ["two-level", "--kind", kind, "--theta", repr(theta), "--phi", repr(phi)]

    def check(rep, csv):
        c = oracle.Checker(name)
        res = oracle.results_of(rep, c)
        if res is not None:
            c.equal("kind", res.get("kind"), kind)
            c.equal("theta", res.get("theta"), theta)
            c.equal("phi", res.get("phi"), phi)
            c.angle("phase", res.get("phase"), oracle.two_level_phase(kind, theta, phi), oracle.TOL_CHAIN)
        return c.problems

    return Job(name, check, argv)


def _separable_params(rng):
    return (
        float(rng.uniform(-0.15, -0.05)),
        float(rng.uniform(0.8, 1.5)),
        float(rng.uniform(0.5, 2.0)),
    )


def _separable_job(name, rng) -> Job:
    coupling, beta, mass = _separable_params(rng)
    k = float(rng.uniform(0.3, 1.5))
    argv = ["scatter", "separable", "--coupling", repr(coupling), "--beta", repr(beta),
            "--mass", repr(mass), "--k", repr(k)]

    def check(rep, csv):
        c = oracle.Checker(name)
        res = oracle.results_of(rep, c)
        if res is not None:
            oracle.check_separable(res, c, coupling, beta, mass, k)
        return c.problems

    return Job(name, check, argv)


def _sweep_job(name, d, template: dict, param: str, values: list, row_check) -> Job:
    argv = ["sweep", "--template", _write(f"{d}/{name}.template.json", template),
            "--param", param, "--values", *[repr(v) for v in values]]

    def check(rep, csv):
        c = oracle.Checker(name)
        res = oracle.results_of(rep, c)
        if res is None:
            return c.problems
        c.equal("command", res.get("command"), template["command"])
        c.equal("param", res.get("param"), param)
        rows = res.get("rows")
        if not isinstance(rows, list) or len(rows) != len(values):
            c.fail(f"expected {len(values)} sweep rows")
            return c.problems
        for j, (row, value) in enumerate(zip(rows, values)):
            c.equal(f"rows[{j}].value", row.get("value"), value)
            sub = row.get("results")
            if not isinstance(sub, dict):
                c.fail(f"rows[{j}] has no results")
                continue
            row_check(sub, c, value)
        return c.problems

    return Job(name, check, argv)


def _error_job(name, argv, error_type, **fields) -> Job:
    return Job(name, lambda rep, csv: oracle.check_error(rep, name, error_type, fields), argv,
               exit_code=2, csv=False)


# Workloads ----------------------------------------------------------------


def geometry(d: str, rng, size: dict) -> list[Job]:
    jobs = [_phase_job(f"phase_{size['chain']}x16", d, rng, size["chain"], 16)]

    m = size["curve"]
    params, states = _smooth_curve(rng, m, 16)
    obs = _positive_definite(rng, 16)
    curve = {"params": params.tolist(), "states": _matrix(states)}
    jobs.append(Job(
        f"curve_{m}x16",
        lambda rep, csv: oracle.check_curve(rep, csv, f"curve_{m}x16", params, states, obs),
        ["curve", "--curve", _write(f"{d}/curve.json", curve),
         "--observable", _write(f"{d}/curve.obs.json", _matrix(obs))],
    ))

    a, b, nobs, _ = _null_pair(rng, 16)
    n = size["null"]
    jobs.append(Job(
        f"null_curve_{n}x16",
        lambda rep, csv: oracle.check_null_curve(rep, csv, f"null_curve_{n}x16", a, b, nobs, n),
        ["null-curve", "--a", _write(f"{d}/null.a.json", _vector(a)),
         "--b", _write(f"{d}/null.b.json", _vector(b)),
         "--observable", _write(f"{d}/null.obs.json", _matrix(nobs)), "--samples", str(n)],
    ))
    return jobs


def tables(d: str, rng, size: dict) -> list[Job]:
    dim = size["perturb"]
    levels = np.cumsum(rng.uniform(0.4, 1.1, size=dim))
    v = _hermitian(rng, dim, 0.05)
    coupling = 0.05
    h0_path, v_path = _write(f"{d}/h0.json", levels.tolist()), _write(f"{d}/v.json", _matrix(v))
    jobs = []
    for level in rng.choice(dim, size=2, replace=False).tolist():
        name = f"perturb_{dim}_level{level}"
        jobs.append(Job(
            name,
            lambda rep, csv, name=name, level=level: oracle.check_perturb(
                rep, csv, name, levels, v, level, coupling),
            ["perturb", "--h0", h0_path, "--v", v_path, "--level", str(level),
             "--lambda", repr(coupling)],
        ))

    n = size["grid"]
    energies = np.cumsum(rng.uniform(0.4, 1.1, size=n))
    gv = _hermitian(rng, n, 0.02)
    mass, epsilon = 1.0, 0.8
    incoming = int(rng.integers(0, n))
    model = {
        "momenta": [{"label": f"k{j}", "energy": float(e)} for j, e in enumerate(energies)],
        "mass": mass,
        "epsilon": epsilon,
        "V": _matrix(gv),
    }
    jobs.append(Job(
        f"grid_{n}",
        lambda rep, csv: oracle.check_grid(rep, csv, f"grid_{n}", energies, mass, epsilon, gv,
                                           incoming, f"k{incoming}"),
        ["scatter", "grid", "--model", _write(f"{d}/grid.json", model),
         "--incoming", f"k{incoming}"],
    ))
    return jobs




def batch(d: str, rng, size: dict) -> list[Job]:
    jobs = []
    for j in range(5):
        jobs.append(_two_level_job(f"two_level_{j}", rng, "x" if j % 2 == 0 else "hadamard"))
        jobs.append(_phase_job(f"phase3_{j}", d, rng, 3, int(rng.integers(2, 5)), identity=j % 2 == 1))
        jobs.append(_cycle_job(f"cycle_{j}", d, rng, int(rng.integers(3, 6))))
        jobs.append(_separable_job(f"separable_{j}", rng))

    coupling, beta, mass = _separable_params(rng)
    ks = sorted(float(k) for k in rng.uniform(0.3, 1.5, size=40))
    jobs.append(_sweep_job(
        "sweep_separable_k", d,
        {"command": "scatter", "mode": "separable", "coupling": coupling, "beta": beta, "mass": mass},
        "k", ks, lambda sub, c, k: oracle.check_separable(sub, c, coupling, beta, mass, k),
    ))
    h64 = _cycle_h(rng, 64)
    epsilons = sorted(float(e) for e in rng.uniform(1e-3, 1e-2, size=20))
    jobs.append(_sweep_job(
        "sweep_cycle_epsilon", d,
        {"command": "cycle", "h": _write(f"{d}/h64.json", _matrix(h64)), "epsilon": 0.01},
        "epsilon", epsilons, lambda sub, c, eps: oracle.check_cycle(sub, c, h64, eps),
    ))

    dim = int(rng.integers(3, 6))
    axes = np.eye(dim, dtype=complex)[:3]
    jobs.append(_error_job(
        "orthogonal_chain",
        ["phase", "--states", _write(f"{d}/orthogonal.json", _matrix(axes)), "--identity"],
        "UndefinedPhase", link_index=0,
    ))
    jobs.append(_error_job(
        "two_level_pole",
        ["two-level", "--kind", "x", "--theta", repr(math.pi), "--phi", repr(float(rng.uniform(-1, 1)))],
        "UndefinedPhase",
    ))
    skew = axes.copy()
    skew[1] = _unit(axes[0] + axes[1])
    jobs.append(_error_job(
        "cycle_skew_basis",
        ["cycle", "--h", _write(f"{d}/skew.h.json", _matrix(_cycle_h(rng, dim))),
         "--basis", _write(f"{d}/skew.basis.json", _matrix(skew)), "--epsilon", "0.01"],
        "NonOrthogonalBasis",
    ))
    levels = np.cumsum(rng.uniform(0.4, 1.1, size=dim))
    levels[2] = levels[1] + 1e-9
    jobs.append(_error_job(
        "degenerate_levels",
        ["perturb", "--h0", _write(f"{d}/degenerate.h0.json", levels.tolist()),
         "--v", _write(f"{d}/degenerate.v.json", _matrix(_hermitian(rng, dim))),
         "--level", "0", "--lambda", "0.1"],
        "DegenerateSpectrum",
    ))
    return jobs


def library(d: str, rng, size: dict) -> list[Job]:
    jobs = []
    for dim in size["survival"]:
        h0 = np.sort(rng.uniform(-2.0, 2.0, size=dim))
        v = _hermitian(rng, dim)
        t = 1.0
        v *= 0.2 / (t * np.linalg.norm(v, 2))
        i = int(rng.integers(0, dim))
        exact = oracle.survival_exact(h0, v, i, t)
        bound = oracle.survival_bound(v, t)

        def check(value, name=f"survival_{dim}", exact=exact, bound=bound):
            c = oracle.Checker(name)
            c.close("amplitude vs expm", complex(*value), exact, bound)
            return c.problems

        jobs.append(Job(f"survival_{dim}", check, call={
            "call": "survival_amplitude", "h0": _save(f"{d}/h0_{dim}.npy", h0),
            "v": _save(f"{d}/v_{dim}.npy", v), "i": i, "t": t}))

    for samples in size["holonomy"]:
        a, b, obs, theta = _null_pair(rng, 16)
        x = np.linspace(0.0, 1.0, samples)
        arc = (1 - x)[:, None] * a + (x * np.exp(1j * theta))[:, None] * b
        arc /= np.linalg.norm(arc, axis=1)[:, None]
        open_phase = oracle.curve_phase(x, arc, obs)[0]

        def check(value, name=f"loop_holonomy_{samples}", want=open_phase):
            c = oracle.Checker(name)
            c.angle("loop vs open arc", value, want, oracle.TOL_NULL)
            return c.problems

        jobs.append(Job(f"loop_holonomy_{samples}", check, call={
            "call": "loop_holonomy", "params": _save(f"{d}/arc_{samples}.params.npy", x),
            "states": _save(f"{d}/arc_{samples}.states.npy", arc),
            "obs": _save(f"{d}/arc_{samples}.obs.npy", obs)}))

    for samples in size["holonomy"]:
        while True:
            vertices = np.array([_unit(_complex(rng, 16)) for _ in range(3)])
            obs = _positive_definite(rng, 16)
            if all(_null_theta(vertices[j], vertices[(j + 1) % 3], obs) is not None for j in range(3)):
                break
        chain = oracle.chain_phase(vertices, obs)[0]

        def check(value, name=f"triangle_holonomy_{samples}", want=chain):
            c = oracle.Checker(name)
            c.angle("triangle vs chain", value, want, oracle.TOL_TRIANGLE)
            return c.problems

        jobs.append(Job(f"triangle_holonomy_{samples}", check, call={
            "call": "triangle_holonomy", "vertices": _save(f"{d}/tri_{samples}.npy", vertices),
            "obs": _save(f"{d}/tri_{samples}.obs.npy", obs), "samples": samples}))

    m = size["curve"]
    params, states = _smooth_curve(rng, m, 16)
    obs = _positive_definite(rng, 16)
    want = oracle.curve_phase(params, states, obs)[0]
    jobs.append(Job(
        f"curve_phase_{m}",
        lambda value: _angle_problems(f"curve_phase_{m}", value, want, oracle.TOL_CURVE),
        call={"call": "curve_phase", "params": _save(f"{d}/curve.params.npy", params),
              "states": _save(f"{d}/curve.states.npy", states),
              "obs": _save(f"{d}/curve.obs.npy", obs)}))

    chains, wants = [], []
    for j in range(size["chains"]):
        dim = int(rng.integers(2, 17))
        obs = None if j % 4 == 0 else _hermitian(rng, dim)
        states = _chain(rng, int(rng.integers(3, 41)), dim, obs)
        chains.append((states, obs))
        wants.append(oracle.chain_phase(states, obs)[0])
    flat = {}
    for j, (states, obs) in enumerate(chains):
        flat[f"s{j}"] = states
        if obs is not None:
            flat[f"o{j}"] = obs
    np.savez(f"{d}/chains.npz", **flat)

    def check_chains(values):
        c = oracle.Checker(f"chains_{len(wants)}")
        if not isinstance(values, list) or len(values) != len(wants):
            c.fail(f"expected {len(wants)} chain phases")
            return c.problems
        for j, (got, want) in enumerate(zip(values, wants)):
            c.angle(f"chain[{j}]", got, want, oracle.TOL_CHAIN)
        return c.problems

    jobs.append(Job(f"chains_{len(wants)}", check_chains, call={
        "call": "generalized_phase_chain", "chains": f"{d}/chains.npz", "count": len(chains)}))
    return jobs


def _angle_problems(name, got, want, tol):
    c = oracle.Checker(name)
    c.angle("value", got, want, tol)
    return c.problems


def cli(d: str, rng, size: dict) -> list[Job]:
    return geometry(d, rng, size) + tables(d, rng, size) + batch(d, rng, size)


JOB_LISTS = {"cli": cli, "library": library}

# Benchmark sizes, and the small ones the self-test uses. The small null curve
# keeps 2001 samples: criterion 5 states its tolerance at that resolution.
SIZES = {
    False: {"chain": 5000, "curve": 20001, "null": 20001, "perturb": 128, "grid": 256,
            "survival": (16, 32, 64), "holonomy": (2001, 20001), "chains": 1000},
    True: {"chain": 50, "curve": 201, "null": 2001, "perturb": 8, "grid": 12,
           "survival": (4, 6, 8), "holonomy": (2001,), "chains": 20},
}


def build(workload: str, directory: str, seed: int, small: bool = False) -> list[Job]:
    """Write the inputs of one workload under ``directory`` and return its jobs."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    return JOB_LISTS[workload](os.path.abspath(directory), rng, SIZES[small])
