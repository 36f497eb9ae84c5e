"""The benchmark's hold on the program, checked in the ordinary test run.

``verifybench`` reaches the program by name: its tracer rebinds module
functions and ring methods, and its workloads call module attributes.  A
renamed or deleted name breaks the benchmark, so these tests install the
tracer on the already imported package, run the first op of every workload
section under it, and check that uninstalling restores every binding.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "verifybench"
SECTIONS = ("symbolic", "specialized", "unit-circle", "permanent")


@pytest.fixture
def bench(monkeypatch):
    """The benchmark's modules, and the program's modules named as
    ``worker.import_program`` names them."""
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    hp = SimpleNamespace(**{m: importlib.import_module(f"huckelpascal.{m}")
                            for m in worker.MODULES})
    return SimpleNamespace(tracer=importlib.import_module("tracer"),
                           workloads=importlib.import_module("workloads"), hp=hp)


def _bindings() -> dict:
    """Every binding the tracer may patch: each package module's globals
    and the own attributes of the classes defined in it."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or name.partition(".")[0] != "huckelpascal":
            continue
        for attr, value in vars(mod).items():
            found[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                found.update({(name, attr, a): v for a, v in vars(value).items()})
    return found


def test_tracer_rebinds_every_named_layer_and_restores_it(bench):
    before = _bindings()
    tracer = bench.tracer.Tracer(bench.hp)
    try:
        tracer.install()
        for mod, attr, _ in bench.tracer._FUNCTIONS:
            original = before[f"huckelpascal.{mod}", attr]
            assert getattr(getattr(bench.hp, mod), attr) is not original, attr
        for mod, cls, _, _ in bench.tracer._RING_OPS:
            for attr in ("__mul__", "exact_div"):
                original = before[f"huckelpascal.{mod}", cls, attr]
                assert vars(getattr(getattr(bench.hp, mod), cls))[attr] is not original, attr
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("section", SECTIONS)
def test_first_op_of_each_section_passes_its_check_traced(bench, section):
    workload = next(w for w, sections in bench.workloads.WORKLOADS.items()
                    if section in sections)
    op = next(op for op in bench.workloads.build_ops(workload, 1, bench.hp)
              if op.section == section)
    tracer = bench.tracer.Tracer(bench.hp)
    try:
        tracer.install()
        op.check(op.run())
    finally:
        tracer.uninstall()
    assert tracer.stats, f"{op.label} ran no traced layer"
