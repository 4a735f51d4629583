"""The traced benchmark run (``bench/run.py --trace 1``) wraps functions
and methods of ``pltlf`` by name; every name it lists must still exist."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("modname, attr", [entry[:2] for entry in spans.FUNCTIONS])
def test_traced_function_exists(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("modname, cls_name, method", [entry[:3] for entry in spans.METHODS])
def test_traced_method_exists(modname, cls_name, method):
    cls = getattr(importlib.import_module(modname), cls_name)
    assert callable(getattr(cls, method, None)), f"{cls_name}.{method}"
