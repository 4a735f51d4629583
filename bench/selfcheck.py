"""Quick self-check of the benchmark's checkers, in a few seconds.

    python3 bench/selfcheck.py

Runs the engine on tiny inputs, confirms that each checker accepts the
answers, then perturbs each answer and confirms that the checker rejects
it: a scenario maximum raised by 1/100, a witness with one child's mass
changed, a monitor record whose probability rises, a mined support off by
one case, and a CLI envelope with a filled ``timing_ms``.  Exits 1 if any
checker misses a perturbation or rejects a correct answer.
"""

from __future__ import annotations

import copy
import json
import pathlib
import sys
import tempfile
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import pltlf  # noqa: E402
import pltlf.cli  # noqa: E402
import oracles  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import logic  # noqa: E402
from workloads import _cli  # noqa: E402

results = []


def expect(label: str, problems: list, should_fail: bool) -> None:
    ok = bool(problems) == should_fail
    results.append(ok)
    verdict = "ok  " if ok else "MISS"
    shown = f" ({problems[0]})" if problems else ""
    print(f"{verdict} {'rejects' if should_fail else 'accepts'} {label}{shown}")


def scenario_maxima() -> None:
    cs = gen.ladder_set(gen.rng_for("selfcheck", 0), 3)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "set.p0"
        path.write_text(cs.text)
        code, out, _ = _cli(pltlf, ["p0-scenarios", str(path)])
    data, problems = checks.envelope(code, out, "p0-scenarios")
    args = (cs.formulas, cs.cmps, cs.bounds, cs.names, cs.scenario_mass(), oracles, pltlf.linsolve)
    expect("the n=3 scenario table", problems + checks.scenario_table(data["payload"], *args), False)
    raised = copy.deepcopy(data["payload"])
    row = next(r for r in raised["scenarios"] if 0 < Fraction(r["max"]) < 1)
    row["max"] = str(Fraction(row["max"]) + Fraction(1, 100))
    expect("a maximum raised by 1/100", checks.scenario_table(raised, *args), True)
    bad = json.loads(out)
    bad["timing_ms"] = 1.0
    expect("an envelope with timing_ms filled", checks.envelope(code, json.dumps(bad), "p0-scenarios")[1], True)
    expect("an unsat status with exit code 0", checks.envelope(0, out.replace('"sat"', '"unsat"'), "p0-scenarios")[1], True)


def witness() -> None:
    text = "P<=0.5[a] & P>=0.6[X b]"
    formula = logic.parse(text)
    model = pltlf.witness_model(pltlf.parse_formula(text)).to_dict()
    expect("the witness tree", checks.witness(model, formula), False)
    changed = copy.deepcopy(model)
    child = changed["children"][0]
    child["probability"] = str(Fraction(child["probability"]) + Fraction(1, 10))
    expect("a witness with one child's mass changed", checks.witness(changed, formula), True)
    blank = copy.deepcopy(model)
    for c in blank["children"]:
        c["valuation"] = ["a"]
    expect("a witness whose children all see a", checks.witness(blank, formula), True)


def monitor() -> None:
    events = ["-\n", "a\n", "a\n"]
    code, out, _ = _cli(pltlf, ["p0-monitor", str(ROOT / "data" / "psi1.p0")], stdin=iter(events))
    lines = out.splitlines()
    expect("the psi1 monitor records", checks.monitor_records(lines, len(events), Fraction(0)), False)
    records = [json.loads(line) for line in lines]
    records[-1]["probability"] = str(Fraction(records[-2]["probability"]) + Fraction(1, 100))
    risen = [json.dumps(r) for r in records]
    expect("a monitor record whose probability rises", checks.monitor_records(risen, len(events), Fraction(0)), True)
    expect("a missing monitor record", checks.monitor_records(lines[:-1], len(events), Fraction(0)), True)


def mining() -> None:
    log = gen.event_log(gen.rng_for("selfcheck", 0))
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "log.csv"
        path.write_text(log.text)
        code, out, _ = _cli(pltlf, ["mine", "--log", str(path), "--min-support", str(log.min_support),
                                    "--templates", "existence,response"])
    data, problems = checks.envelope(code, out, "mine")
    expect("the mined constraints", problems + checks.mining(data["payload"], log.cases, log.min_support), False)
    off = copy.deepcopy(data["payload"])
    m = off["mined"][-1]
    m["support"] = str(Fraction(m["support"]) - Fraction(1, len(log.cases)))
    expect("a mined support off by one case", checks.mining(off, log.cases, log.min_support), True)


def main() -> int:
    scenario_maxima()
    witness()
    monitor()
    mining()
    print(f"{sum(results)}/{len(results)} checker verdicts as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
