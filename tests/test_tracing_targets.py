"""Every name that the benchmark's tracer wraps still exists in the library.

`bench/tracing.py` wraps the functions its `TARGETS` table names: a method
is looked up in its class `__dict__`, a module function as an attribute of
its module.  A library change that deletes or renames one of them would
break `bench/run.py --trace 1`, so the table is read here (the module is
loaded from its file; its tracer is never installed).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pytest.param(modname, attr, id=name) for name, modname, attr, _ in module.TARGETS]


@pytest.mark.parametrize("modname,attr", _targets())
def test_tracer_target_resolves(modname, attr):
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        target = vars(getattr(owner, cls_name)).get(meth)
    else:
        target = getattr(owner, attr, None)
    assert callable(target), f"{modname}.{attr} is gone"
