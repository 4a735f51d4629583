"""The traced benchmark run (``bench/run.py --trace 1``) wraps functions
and methods of ``pltlf`` by name; every name it lists must still exist,
and its counters must still read what the wrapped calls return."""

import importlib
import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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


def test_weighted_build_is_one_function_in_both_modules():
    # the tracer replaces every binding of the object it finds under
    # pltlf.weighted, so TreeAutomaton.weighted, which calls its own
    # module's binding, is traced only while both are the same function
    automaton = importlib.import_module("pltlf.automaton")
    weighted = importlib.import_module("pltlf.weighted")
    assert weighted.build_weighted is automaton.build_weighted


@pytest.mark.parametrize("workload", ["flat-ladder", "tree-3bound", "monitor-stream"])
def test_traced_run_reports_every_layer_metric(workload):
    # one round of each engine's workload under the tracer; the flat
    # commands of flat-ladder never step an acceptor, so they build no
    # weighted automaton, tree-3bound's counters are read off real ones,
    # and the monitor's scenario acceptors share one weighted automaton
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True,
    )
    (ROOT / "bench" / "out" / f"spans-{workload}-1.json").unlink(missing_ok=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert metric["value"] >= 0, m["name"]
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    if workload == "flat-ladder":
        assert metrics["weighted.builds"] == metrics["weighted.edges"] == 0
        assert metrics["fragment.acceptors"] > 0
    elif workload == "monitor-stream":
        assert metrics["weighted.builds"] == 1
    else:
        assert metrics["weighted.builds"] > 0
        assert metrics["weighted.edges"] > 0
