"""Spans around calls into ggphase's layers, installed from outside the package.

The tracer replaces each traced public function with a wrapper that records a
span (id, parent, job, name, start, end, failed) in memory. Replacement covers
the defining module and every ``ggphase`` module that re-binds the function
with ``from ... import``, plus ``StateVector.__init__``,
``Observable.__init__`` and four ``numpy.linalg`` functions. Patches are
applied only while a traced pass runs, so untraced passes execute the original
code.

Layer names drop the leading underscore of ``_io`` and ``_kernels`` because
benchmark metric names must start with a letter.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer -> (module, public functions traced with spans)
FUNCTIONS = {
    "cli": ("ggphase.cli", ["main"]),
    "io": ("ggphase._io", ["load_json_file", "parse_vector", "parse_matrix", "parse_real_list",
                           "emit_json", "write_csv_text"]),
    "kernels": ("ggphase._kernels", ["chain_link_amplitudes", "connection_terms"]),
    "phase": ("ggphase.phase", ["generalized_phase_chain"]),
    "curve": ("ggphase.curve", ["connection_samples", "curve_phase", "o_null_curve",
                                "loop_holonomy", "triangle_holonomy"]),
    "dynamics": ("ggphase.dynamics", ["projective_cycle_amplitude", "evolve", "survival_amplitude"]),
    "perturbation": ("ggphase.perturbation", ["energy_shift", "third_order_phase_terms"]),
    "scattering": ("ggphase.scattering", [
        "lippmann_schwinger_solve", "kernel_condition_number", "born_forward_amplitude",
        "born_spectral_radius", "triple_product_phases", "loop_integral", "separable_tmatrix",
        "separable_born_amplitude", "optical_theorem_residual"]),
    "linalg": ("numpy.linalg", ["cond", "eigvals", "eigh", "solve"]),
}
CONSTRUCTORS = {"hilbert": ("ggphase.hilbert", ["StateVector", "Observable"])}
# called dim^2 times per survival amplitude: counted, not spanned
COUNTED = {"dynamics.f_mn.calls": ("ggphase.dynamics", "f_mn")}
LAYERS = ("cli", "io", "hilbert", "kernels", "phase", "curve", "dynamics", "perturbation",
          "scattering", "linalg")

# per-layer metrics reported for every workload, in a fixed order
CALLS_BUSY = [
    "io.load_json_file", "io.parse_vector", "hilbert.StateVector", "hilbert.Observable",
    "kernels.chain_link_amplitudes", "kernels.connection_terms", "phase.generalized_phase_chain",
    "curve.connection_samples", "curve.curve_phase", "curve.o_null_curve", "curve.loop_holonomy",
    "curve.triangle_holonomy", "dynamics.projective_cycle_amplitude", "dynamics.evolve",
    "dynamics.survival_amplitude", "perturbation.energy_shift",
    "perturbation.third_order_phase_terms",
    *(f"scattering.{n}" for n in FUNCTIONS["scattering"][1]),
]
BUSY_ONLY = ["cli.main", "io.parse_matrix", "io.parse_real_list", "io.emit_json", "io.write_csv_text"]
SELF = ["cli.main", "phase.generalized_phase_chain",
        *(f"curve.{n}" for n in FUNCTIONS["curve"][1]), "dynamics.survival_amplitude"]
COUNTERS = [
    ("io.parse.bytes_in", "bytes"), ("io.emit.bytes_out", "bytes"),
    ("kernels.chain_link_amplitudes.rows", "count"), ("kernels.connection_terms.rows", "count"),
    ("dynamics.f_mn.calls", "count"), ("perturbation.table_rows", "count"),
    ("scattering.table_rows", "count"),
]
LINALG_CALLS = [f"linalg.{n}" for n in FUNCTIONS["linalg"][1]]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in CALLS_BUSY:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
    for name in BUSY_ONLY:
        units[f"{name}.busy_s"] = "s"
    for name in SELF:
        units[f"{name}.self_s"] = "s"
    for name, unit in COUNTERS:
        units[name] = unit
    for name in LINALG_CALLS:
        units[f"{name}.calls"] = "count"
    units["linalg.busy_s"] = "s"
    units["curve.kernel_rows_per_sample"] = "ratio"
    units["scattering.loop_integral_per_job"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.failed"] = "count"
        if layer != "cli":
            units[f"{layer}.self_s"] = "s"
    return units


class Tracer:
    """In-memory span recorder with patch/unpatch of the traced callables."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent, job, name, start, end, failed]
        self.jobs: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original, replacement)
        self._curves: dict[tuple, tuple] = {}  # (id params, id states) -> (rows, args)
        self._loops: set = set()
        self._curve_rows = 0
        self._loop_jobs = 0

    # installation --------------------------------------------------------

    def install(self) -> None:
        """Prepare wrappers for every traced callable; nothing is patched yet."""
        import ggphase.cli  # noqa: F401  (loads every ggphase module)

        modules = [m for n, m in sys.modules.items() if n == "ggphase" or n.startswith("ggphase.")]
        for layer, (modname, names) in FUNCTIONS.items():
            mod = importlib.import_module(modname)
            owners = [mod] if modname == "numpy.linalg" else modules
            for fname in names:
                self._replace_everywhere(owners, getattr(mod, fname), self._wrap(f"{layer}.{fname}"))
        for layer, (modname, names) in CONSTRUCTORS.items():
            mod = importlib.import_module(modname)
            for cname in names:
                cls = getattr(mod, cname)
                self._patches.append((cls, "__init__", cls.__init__,
                                      self._wrap(f"{layer}.{cname}")(cls.__init__)))
        for key, (modname, fname) in COUNTED.items():
            mod = importlib.import_module(modname)
            self._replace_everywhere(modules, getattr(mod, fname), self._count(key))

    def _replace_everywhere(self, owners, original, make) -> None:
        replacement = make(original)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original, replacement))

    def enable(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # recording -----------------------------------------------------------

    def _wrap(self, name: str):
        hook = _HOOKS.get(name)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = [len(self.spans), self._stack[-1] if self._stack else None,
                        len(self.jobs) - 1, name, 0.0, 0.0, False]
                self.spans.append(span)
                self._stack.append(span[0])
                span[4] = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    span[6] = True
                    raise
                finally:
                    span[5] = time.perf_counter()
                    self._stack.pop()
                if hook is not None:
                    hook(self, span, args, result)
                return result

            return traced

        return make

    def _count(self, key: str):
        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def job(self, name: str, call):
        """Run ``call()`` as one job: a root span that every layer span nests in."""
        self.jobs.append(name)
        try:
            return self._wrap("job")(call)()
        finally:
            self._curve_rows += sum(rows for rows, _ in self._curves.values())
            self._loop_jobs += len(self._loops)
            self._curves.clear()
            self._loops.clear()

    # derivation ----------------------------------------------------------

    def metrics(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer metrics over the spans recorded since ``first_span``."""
        spans = self.spans[first_span:]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[5] - s[4]
        calls, busy, self_s = Counter(), Counter(), Counter()
        layer_self, layer_failed = Counter(), Counter()
        for s in spans:
            name, dur = s[3], s[5] - s[4]
            own = dur - child_time[s[0]]
            calls[name] += 1
            busy[name] += dur
            self_s[name] += own
            layer = name.split(".")[0]
            layer_self[layer] += own
            if s[6]:
                layer_failed[layer] += 1
        out: dict[str, float] = {}
        for name in CALLS_BUSY:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
        for name in BUSY_ONLY:
            out[f"{name}.busy_s"] = busy[name]
        for name in SELF:
            out[f"{name}.self_s"] = self_s[name]
        for name, _ in COUNTERS:
            out[name] = self.counts[name]
        for name in LINALG_CALLS:
            out[f"{name}.calls"] = calls[name]
        out["linalg.busy_s"] = sum(busy[n] for n in LINALG_CALLS)
        out["curve.kernel_rows_per_sample"] = (
            self.counts["kernels.connection_terms.rows"] / self._curve_rows if self._curve_rows else 0.0
        )
        out["scattering.loop_integral_per_job"] = (
            calls["scattering.loop_integral"] / self._loop_jobs if self._loop_jobs else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.failed"] = layer_failed[layer]
            if layer != "cli":
                out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def reset_counts(self) -> None:
        self.counts.clear()
        self._curve_rows = 0
        self._loop_jobs = 0

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,job,job_name,name,start,end,failed\n")
            for s in self.spans:
                parent = "" if s[1] is None else s[1]
                fh.write(f"{s[0]},{parent},{s[2]},{self.jobs[s[2]]},{s[3]},{s[4]!r},{s[5]!r},{int(s[6])}\n")


def _bytes_in(tracer, span, args, result):
    tracer.counts["io.parse.bytes_in"] += os.path.getsize(args[0])


def _bytes_out(tracer, span, args, result):
    tracer.counts["io.emit.bytes_out"] += len(result)


def _chain_rows(tracer, span, args, result):
    tracer.counts["kernels.chain_link_amplitudes.rows"] += len(args[0])


def _connection_rows(tracer, span, args, result):
    # the curve's params/states arrays identify it; holding them in the dict
    # for the whole job keeps their ids from being reused
    rows = len(args[0])
    tracer.counts["kernels.connection_terms.rows"] += rows
    tracer._curves[(id(args[0]), id(args[1]))] = (rows, args)


def _table_rows(key):
    def hook(tracer, span, args, result):
        tracer.counts[key] += len(result)

    return hook


def _loop_key(tracer, span, args, result):
    model, k = args[0], args[1]
    tracer._loops.add((model.coupling, model.beta, model.mass, float(k)))


def _main_status(tracer, span, args, result):
    # main catches domain and input errors and returns a status, so a
    # non-zero status marks the call as failed
    if result != 0:
        span[6] = True


_HOOKS = {
    "cli.main": _main_status,
    "io.load_json_file": _bytes_in,
    "io.emit_json": _bytes_out,
    "io.write_csv_text": _bytes_out,
    "kernels.chain_link_amplitudes": _chain_rows,
    "kernels.connection_terms": _connection_rows,
    "perturbation.third_order_phase_terms": _table_rows("perturbation.table_rows"),
    "scattering.triple_product_phases": _table_rows("scattering.table_rows"),
    "scattering.loop_integral": _loop_key,
}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
