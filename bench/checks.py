"""Checkers for the engine's answers.

Each checker returns a list of problems, empty when the answer passes.
They rely on ``logic`` (independent semantics), on what the generators
know by construction, and on the Fourier-Motzkin oracle in
``tests/oracles.py`` for scenario systems of at most ``FM_MAX_VARS``
variables.  ``selfcheck.py`` shows that each one rejects a wrong answer.
"""

from __future__ import annotations

import json
from fractions import Fraction

import logic

FM_MAX_VARS = 8
ENVELOPE_KEYS = ["command", "status", "payload", "timing_ms"]
RECORD_KEYS = ["step", "scenario_index", "scenario_description", "probability", "violated"]
EXIT_FOR_STATUS = {"sat": 0, "ok": 0, "unsat": 1}


def envelope(code: int, out: str, command: str) -> tuple:
    """Parse one CLI envelope; returns (payload or None, problems)."""
    try:
        data = json.loads(out)
    except ValueError:
        return None, [f"{command}: output is not one JSON envelope: {out[:200]!r}"]
    problems = []
    if list(data) != ENVELOPE_KEYS:
        problems.append(f"{command}: envelope keys {list(data)}")
    if data.get("command") != command:
        problems.append(f"{command}: envelope names command {data.get('command')!r}")
    if data.get("timing_ms") is not None:
        problems.append(f"{command}: timing_ms is {data.get('timing_ms')!r}, not null")
    expected = EXIT_FOR_STATUS.get(data.get("status"))
    if expected is None or code != expected:
        problems.append(f"{command}: status {data.get('status')!r} with exit code {code}")
    return data, problems


def scenario_system(formulas, cmps, bounds, patterns, linsolve):
    """The scenario mass system written from the README: one variable per
    sign pattern (first constraint most significant), pinned to zero when
    no trace realises the pattern, total mass one, one row per
    constraint."""
    n = len(formulas)
    Rel = linsolve.Rel
    labels = [format(i, f"0{n}b") for i in range(1 << n)]
    names = ["x" + label for label in labels]
    rows = []
    for name, label in zip(names, labels):
        realised = tuple(ch == "1" for ch in label) in patterns
        rows.append(({name: 1}, Rel.GE if realised else Rel.EQ, 0))
    rows.append(({name: 1 for name in names}, Rel.EQ, 1))
    for j, (cmp, bound) in enumerate(zip(cmps, bounds)):
        rows.append(({names[i]: 1 for i, label in enumerate(labels) if label[j] == "1"}, Rel(cmp), bound))
    return linsolve.LinearSystem.from_rows(names, rows)


def scenario_table(payload: dict, formulas, cmps, bounds, names, scenario_mass=None, oracle=None, linsolve=None) -> list:
    """Check a ``p0-scenarios`` payload of a satisfiable set.

    Flags must match the patterns that finite traces realise; every
    maximum lies in [0, 1], is 0 on an unrealisable scenario and at least
    the constructing distribution's mass; ``most_likely`` is the first
    largest positive maximum; with an oracle, every maximum equals the
    Fourier-Motzkin supremum of the independently written system.
    """
    n = len(formulas)
    patterns = logic.realizable_patterns(formulas, names)
    problems = []
    rows = payload.get("scenarios", [])
    if len(rows) != 1 << n:
        return [f"{len(rows)} scenarios for {n} constraints"]
    maxima = []
    for i, row in enumerate(rows):
        label = format(i, f"0{n}b")
        realised = tuple(ch == "1" for ch in label) in patterns
        value = Fraction(row["max"])
        maxima.append(value)
        if row["index"] != i or row["label"] != label:
            problems.append(f"scenario {i} listed as {row['index']}/{row['label']}")
        if row["satisfiable"] != realised:
            problems.append(f"scenario {label}: satisfiable={row['satisfiable']}, traces say {realised}")
        if not 0 <= value <= 1:
            problems.append(f"scenario {label}: maximum {value} outside [0, 1]")
        if not realised and value != 0:
            problems.append(f"scenario {label}: unsatisfiable but maximum {value}")
        if scenario_mass is not None and value < scenario_mass.get(i, 0):
            problems.append(f"scenario {label}: maximum {value} below constructing mass {scenario_mass[i]}")
    best = max(maxima)
    expected = maxima.index(best) if best > 0 else -1
    if payload.get("most_likely") != expected:
        problems.append(f"most_likely {payload.get('most_likely')} but largest maximum at {expected}")
    if oracle is not None and (1 << n) <= FM_MAX_VARS:
        system = scenario_system(formulas, cmps, bounds, patterns, linsolve)
        for i, value in enumerate(maxima):
            sup = oracle.fm_supremum(system, system.variables[i])
            if sup != value:
                problems.append(f"scenario {i}: maximum {value}, Fourier-Motzkin gives {sup}")
    return problems


def fm_verdict(formulas, cmps, bounds, names, oracle, linsolve):
    """Satisfiability by Fourier-Motzkin, or None above the size limit."""
    if (1 << len(formulas)) > FM_MAX_VARS:
        return None
    patterns = logic.realizable_patterns(formulas, names)
    return oracle.fm_feasible(scenario_system(formulas, cmps, bounds, patterns, linsolve))


def witness(model, formula) -> list:
    """A witness tree must be well formed and satisfy its formula."""
    if model is None:
        return ["no witness for a satisfiable formula"]
    try:
        if not logic.tree_holds(formula, model):
            return [f"witness does not satisfy {logic.render(formula)}"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed witness: {exc}"]
    return []


def monitor_records(lines, events: int, floor: Fraction) -> list:
    """One record per event, steps counting up, probability never rising
    and never below the kept scenario's maximum, no violation."""
    problems = []
    if len(lines) != events:
        problems.append(f"{len(lines)} records for {events} events")
    previous = Fraction(1)
    for k, line in enumerate(lines, start=1):
        record = json.loads(line)
        if list(record) != RECORD_KEYS:
            problems.append(f"record {k}: keys {list(record)}")
            break
        p = Fraction(record["probability"])
        if record["step"] != k:
            problems.append(f"record {k}: step {record['step']}")
        if p > previous:
            problems.append(f"record {k}: probability rose from {previous} to {p}")
        if p < floor:
            problems.append(f"record {k}: probability {p} below the kept scenario's maximum {floor}")
        if record["violated"]:
            problems.append(f"record {k}: violated while the kept scenario is alive")
        previous = p
        if len(problems) > 5:
            break
    return problems


def expected_mining(cases, min_support: Fraction) -> list:
    """(template, args, support) of every existence and response instance
    over frequent activities (and frequent pairs, for response) whose
    support clears the threshold, in the miner's order."""
    total = len(cases)
    traces = [tuple(frozenset((act,)) for act in case) for case in cases]

    def support(formula) -> Fraction:
        hits = sum(1 for t in traces if logic.holds_on_trace((formula,), t)[0])
        return Fraction(hits, total)

    def contains(items) -> Fraction:
        return Fraction(sum(1 for case in cases if set(items) <= set(case)), total)

    acts = sorted({act for case in cases for act in case})
    frequent = [a for a in acts if contains((a,)) >= min_support]
    out = []
    for a in frequent:
        s = support(("F", ("p", a)))
        if s >= min_support:
            out.append(("existence", (a,), s))
    for a in frequent:
        for b in frequent:
            if a != b and contains((a, b)) >= min_support:
                s = support(("G", ("->", ("p", a), ("F", ("p", b)))))
                if s >= min_support:
                    out.append(("response", (a, b), s))
    return out


def mining(payload: dict, cases, min_support: Fraction) -> list:
    """Mined instances and supports must equal those computed from the log."""
    problems = []
    if payload.get("cases") != len(cases):
        problems.append(f"mine reports {payload.get('cases')} cases, log has {len(cases)}")
    got = [(m["template"], tuple(m["args"]), Fraction(m["support"])) for m in payload.get("mined", [])]
    want = expected_mining(cases, min_support)
    if got != want:
        problems.append(f"mined {got}, the log gives {want}")
    return problems
