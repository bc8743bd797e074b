"""The package namespace and the error taxonomy.

ggphase.__all__ is built from the __all__ of its seven public modules, so
every public name is listed once, in its own module. CI also runs this file
against the installed package, where no PYTHONPATH points at src/.
"""

import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import ggphase

MODULES = ("errors", "hilbert", "phase", "curve", "dynamics", "perturbation", "scattering")


def test_all_is_the_union_of_the_module_lists():
    names = ["__version__"]
    for module in MODULES:
        names += importlib.import_module(f"ggphase.{module}").__all__
    assert len(ggphase.__all__) == len(set(ggphase.__all__))
    # equal as lists once sorted, so a name listed by two modules fails too
    assert sorted(ggphase.__all__) == sorted(names)


@pytest.mark.parametrize("module", MODULES)
def test_every_name_resolves_to_its_module_object(module):
    mod = importlib.import_module(f"ggphase.{module}")
    for name in mod.__all__:
        assert getattr(ggphase, name) is getattr(mod, name)


def test_star_import_gives_every_name():
    namespace: dict = {}
    exec("from ggphase import *", namespace)
    assert set(ggphase.__all__) <= set(namespace)


def _tracer_names() -> list[tuple[str, str]]:
    """(module, name) of every callable perfbench/tracer.py patches; the
    tracer imports only the standard library at load time."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(modname, fname) for modname, fnames in tracer.FUNCTIONS.values() for fname in fnames]
    names += [(modname, cname) for modname, cnames in tracer.CONSTRUCTORS.values() for cname in cnames]
    return names + list(tracer.COUNTED.values())


def test_every_name_the_benchmark_tracer_patches_exists():
    # the tracer looks each traced name up with a bare getattr, so a deleted
    # or renamed name breaks the traced benchmark run
    missing = [f"{modname}.{name}" for modname, name in _tracer_names()
               if not hasattr(importlib.import_module(modname), name)]
    assert not missing


def test_importing_the_cli_loads_every_module_the_benchmark_tracer_patches():
    # Tracer.install lists the loaded ggphase modules right after
    # `import ggphase.cli`, and patches a traced function only in those. A
    # module that import leaves unloaded keeps its spans unrecorded, and the
    # traced run still reads correct. The fresh interpreter imports this
    # ggphase, installed or not.
    wanted = {modname for modname, _ in _tracer_names() if modname.startswith("ggphase")}
    program = "import sys, ggphase.cli; print(*sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(ggphase.__file__).resolve().parents[1])}
    loaded = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True, text=True,
                            check=True).stdout.split()
    assert sorted(wanted - set(loaded)) == []


def test_exit_status_follows_the_error_class():
    # InvalidArgument (exit 1) stays a ValueError for library callers;
    # Overflow (exit 2) is a domain error and no ValueError.
    assert issubclass(ggphase.InvalidArgument, ValueError)
    assert not issubclass(ggphase.InvalidArgument, ggphase.DomainError)
    assert issubclass(ggphase.Overflow, ggphase.DomainError)
    assert not issubclass(ggphase.Overflow, ValueError)
