"""The benchmark's traced mode wraps weakseg functions by name, so renaming or
deleting one breaks it. These tests install every probe on the package as the
benchmark does, check that restoring puts every binding back, and run the
examples in perfbench/README.md.

perfbench/run.py is not imported: it pins the BLAS thread count at import.
"""

import doctest
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from layers import LAYER_MODULES, Probes  # noqa: E402
from tracer import Tracer  # noqa: E402


def weakseg_namespace() -> SimpleNamespace:
    """The namespace perfbench/run.py's import_weakseg returns."""
    mods = {m: importlib.import_module(f"weakseg.{m}") for m in LAYER_MODULES}
    return SimpleNamespace(package=importlib.import_module("weakseg"), **mods)


def test_probes_install_and_restore():
    ns = weakseg_namespace()
    modules = [ns.package] + [getattr(ns, m) for m in LAYER_MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    try:
        # a probe whose function no module binds raises LookupError
        assert Probes(tracer, ns).install() > 0
        assert getattr(ns.model.forward, "__wrapped_by_tracer__", False)
    finally:
        tracer.restore()
    for module, attrs in zip(modules, before):
        changed = [k for k, v in attrs.items() if vars(module)[k] is not v]
        assert not changed, f"{module.__name__}: {changed} not restored"


def test_readme_examples():
    result = doctest.testfile(str(PERFBENCH / "README.md"),
                              module_relative=False)
    assert result.attempted > 0 and result.failed == 0
