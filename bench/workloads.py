"""The four workloads.

Each workload has ``generate`` (seeded inputs, written under its work
directory), ``parse`` (the program reads them), ``round`` (the timed
operations, one after another from one client) and ``check`` (the answers
of every round against ``checks``).  Operations run through
``Runner.op``, which enforces the per-operation cap.
"""

from __future__ import annotations

import io
import pathlib
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import checks
import gen
import logic

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _cli(pl, argv, stdin=None):
    """Run ``pltlf.cli.main`` in this process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = stdin
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = pl.cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


class TreeQueries:
    """README quick-start queries on the two-bound formulas, through the
    library: every query rebuilds its automata."""

    name = "tree-queries"
    FORMULAS = (
        "P<=0.5[a] & P>=0.6[X b]",
        "X !b & P<=0.7[a U b] & P<=0.6[X(!a & !b)]",
        "P<=0.8[F a] & P<=0.7[G(a -> F b)]",
        "P<=0.5[F a] & P<=0.6[G(a -> F b)]",
        "P>=0.5[a] & P>=0.6[!a]",
    )
    # the last formula needs children with mass >= 1/2 on a and >= 3/5 off it
    SATISFIABLE = (True, True, True, True, False)
    CAP = 30.0
    MLT_COUNT = 4
    MAX_LEN = 8

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        rng = gen.rng_for(self.name, self.seed)
        self.inputs = []
        for text in self.FORMULAS:
            names = sorted(logic.names_of(logic.parse(text)))
            trace = gen.random_trace(rng, names, 4)
            prefix = gen.random_trace(rng, names, 3)
            self.inputs.append({
                "text": text,
                "trace": logic.trace_text(trace),
                "prefix": logic.trace_text(prefix),
                "pick": rng.randrange(1000),
            })

    def parse(self, pl) -> None:
        self.pl = pl
        self.parsed = [
            (pl.parse_formula(i["text"]), pl.parse_trace(i["trace"]), pl.parse_trace(i["prefix"]))
            for i in self.inputs
        ]

    def _mlt(self, f):
        pl = self.pl
        wa = pl.build_weighted(f)
        value = pl.behaviour(wa)
        acceptor = pl.mlt_acceptor(wa)
        traces = pl.enumerate_mlts(acceptor, self.MLT_COUNT, self.MAX_LEN) if value > 0 else []
        return value, traces, wa

    def _prefix(self, f, prefix):
        value, acceptor = self.pl.prefix_extension_query(f, prefix)
        extensions = self.pl.enumerate_mlts(acceptor, 3, self.MAX_LEN) if value > 0 else []
        return value, extensions

    def _model(self, f):
        model = self.pl.witness_model(f)
        return None if model is None else model.to_dict()

    def round(self, runner) -> None:
        pl = self.pl
        for k, (f, trace, prefix) in enumerate(self.parsed):
            pick = self.inputs[k]["pick"]
            runner.op("sat", self.CAP, pl.is_satisfiable, f)
            runner.op("model", self.CAP, self._model, f)
            mlt = runner.op("mlt", self.CAP, self._mlt, f)
            pre = runner.op("prefix", self.CAP, self._prefix, f, prefix)
            listed = mlt[1][pick % len(mlt[1])] if mlt and mlt[1] else trace
            extension = pre[1][pick % len(pre[1])] if pre and pre[1] else prefix
            for t in (listed, extension, trace):
                runner.op("prob", self.CAP, pl.trace_probability, f, t)
            if mlt and pre:
                # what the check needs from the weighted automaton, taken
                # now so the automaton is not kept alive across operations
                value, traces, wa = mlt
                with runner.aside():
                    probe = {t: pl.behaviour(pl.product(pl.TraceNFA.from_trace(t), wa)) for t in traces + pre[1]}
                runner.ops[-5].value = (value, traces, probe)

    def check(self, ops) -> list:
        pl = self.pl
        problems = []
        per_formula = len(ops) // len(self.parsed)
        for k, (f, trace, prefix) in enumerate(self.parsed):
            text = self.inputs[k]["text"]
            group = ops[k * per_formula:(k + 1) * per_formula]
            if not all(o.ok for o in group):
                continue  # counted in failed
            sat, model, mlt, pre, p_listed, p_ext, p_trace = group
            formula = logic.parse(text)
            where = f"{text}: "
            if sat.value != self.SATISFIABLE[k]:
                problems.append(where + f"sat says {sat.value}")
            if self.SATISFIABLE[k]:
                problems += [where + p for p in checks.witness(model.value, formula)]
            elif model.value is not None:
                problems.append(where + "witness for an unsatisfiable formula")
            value, traces, probe = mlt.value
            ext_value, extensions = pre.value
            if not 0 <= value <= 1 or (value > 0) != self.SATISFIABLE[k]:
                problems.append(where + f"mlt value {value}")
            for t in traces:
                if probe[t] != value:
                    problems.append(where + f"listed trace {pl.format_trace(t)} does not reach {value}")
            if traces and p_listed.value != value:
                problems.append(where + f"trace_probability of a listed trace is {p_listed.value}, mlt {value}")
            if not 0 <= ext_value <= value:
                problems.append(where + f"prefix value {ext_value} outside [0, {value}]")
            for t in extensions:
                if t[:len(prefix)] != prefix or probe[t] != ext_value:
                    problems.append(where + f"extension {pl.format_trace(t)} misses prefix value {ext_value}")
            if extensions and p_ext.value != ext_value:
                problems.append(where + f"trace_probability of an extension is {p_ext.value}, prefix {ext_value}")
            if not extensions and not 0 <= p_ext.value <= ext_value:
                problems.append(where + f"prefix itself has probability {p_ext.value} > {ext_value}")
            if not 0 <= p_trace.value <= value:
                problems.append(where + f"trace probability {p_trace.value} above mlt {value}")
        return problems


class TreeThreeBound:
    """Three probability bounds: 2^(2^3) - 1 family LPs per signature."""

    name = "tree-3bound"
    SAT = "P<=0.5[a] & P>=0.6[X b] & P>0.2[F c]"
    # a and !a need masses adding up to at least 11/10
    UNSAT = "P>=0.5[a] & P>=0.6[!a] & P>0.2[b]"
    CAP = 45.0
    # mlt on SAT takes minutes: build_weighted runs one maximize, with its
    # lexicographic witness, per enumerated family and child subset
    MLT_CAP = 10.0

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed

    def generate(self) -> None:
        # the inputs are the fixed formulas above; the seed is not needed
        self.texts = (self.SAT, self.UNSAT)

    def parse(self, pl) -> None:
        self.pl = pl
        self.sat_f, self.unsat_f = (pl.parse_formula(t) for t in self.texts)

    def _model(self, f):
        model = self.pl.witness_model(f)
        return None if model is None else model.to_dict()

    def _mlt(self, f):
        pl = self.pl
        wa = pl.build_weighted(f)
        value = pl.behaviour(wa)
        traces = pl.enumerate_mlts(pl.mlt_acceptor(wa), 4, 8) if value > 0 else []
        return value, traces

    def round(self, runner) -> None:
        # no separate sat on SAT: witness_model runs the same good-state
        # fixpoint and answers it, and the run stays short enough for the
        # benchmark's time budget
        runner.op("model", self.CAP, self._model, self.sat_f)
        runner.op("sat", self.CAP, self.pl.is_satisfiable, self.unsat_f)
        runner.op("mlt", self.MLT_CAP, self._mlt, self.sat_f)

    def check(self, ops) -> list:
        model, unsat, mlt = ops
        problems = checks.witness(model.value, logic.parse(self.SAT))
        if unsat.value is not False:
            problems.append(f"{self.UNSAT}: sat says {unsat.value}")
        if mlt.ok and not 0 < mlt.value[0] <= 1:
            problems.append(f"{self.SAT}: mlt value {mlt.value[0]}")
        return problems


class FlatLadder:
    """CLI commands over constraint sets with n = 2..6 and a mined set."""

    name = "flat-ladder"
    CAP = 60.0
    # p0-scenarios on the set mined from data/sample_log.csv runs for more
    # than 15 minutes: maximize runs its lexicographic witness (one LP per
    # variable) for every scenario, and 59 of 64 variables are pinned to 0
    MINED_CAP = 5.0
    DATA = ("phi0", "phi1", "psi1")
    # (set, command) in round order; "log" is the event log
    PLAN = tuple((name, command) for name in DATA + ("ladder3", "ladder4", "unsat")
                 for command in ("p0-sat", "p0-scenarios")) + (
        ("ladder5", "p0-sat"), ("ladder6", "p0-sat"), ("log", "mine"), ("mined", "p0-sat"),
        ("sample", "p0-scenarios"))

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        rng = gen.rng_for(self.name, self.seed)
        self.sets = {f"ladder{n}": gen.ladder_set(rng, n) for n in (3, 4, 5, 6)}
        self.sets["unsat"] = gen.unsat_set(rng)
        self.log = gen.event_log(rng)
        sample = [line.split(",") for line in (ROOT / "data" / "sample_log.csv").read_text().splitlines()[1:]]
        cases = {}
        for case_id, act, _ in sample:
            cases.setdefault(case_id, []).append(act)
        self.sets["sample"] = _mined_set(tuple(tuple(c) for c in cases.values()), Fraction(4, 5))
        self.files = {}
        for name in self.DATA:
            self.files[name] = self._write(f"{name}.p0", (ROOT / "data" / f"{name}.p0").read_text())
        for name, cs in self.sets.items():
            self.files[name] = self._write(f"{name}.p0", cs.text)
        self.files["log"] = self._write("log.csv", self.log.text)
        self.files["mined"] = str(self.workdir / "mined.p0")

    def _write(self, name: str, text: str) -> str:
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def parse(self, pl) -> None:
        self.pl = pl
        for name in self.DATA + tuple(self.sets):
            pl.parse_pltlf0(pathlib.Path(self.files[name]).read_text(encoding="utf-8"))

    def _run(self, *argv):
        return _cli(self.pl, list(argv))

    def round(self, runner) -> None:
        files = self.files
        for name, command in self.PLAN:
            cap = self.MINED_CAP if name == "sample" else self.CAP
            if command == "mine":
                argv = ("mine", "--log", files["log"], "--min-support", str(self.log.min_support),
                        "--templates", "existence,response", "--out", files["mined"])
            else:
                argv = (command, files[name])
            runner.op(command.replace("-", "_"), cap, self._run, *argv)

    def check(self, ops) -> list:
        import oracles

        linsolve = self.pl.linsolve
        known = dict(self.sets)
        for name in self.DATA:
            known[name] = _data_set(pathlib.Path(self.files[name]).read_text())
        problems = []
        for (name, command), record in zip(self.PLAN, ops):
            if not record.ok:
                if name != "sample":
                    problems.append(f"{command} {name}: failed")
                continue
            code, out, err = record.value
            data, found = checks.envelope(code, out, command)
            problems += [f"{name}: {p}" for p in found]
            if data is None:
                continue
            payload = data["payload"]
            if command == "mine":
                problems += checks.mining(payload, self.log.cases, self.log.min_support)
                continue
            if name == "mined":
                if data["status"] != "sat":
                    problems.append("mined set reported unsatisfiable")
                continue
            cs = known[name]
            args = (cs.formulas, cs.cmps, cs.bounds, cs.names)
            fm = checks.fm_verdict(*args, oracles, linsolve)
            expected = fm if cs.satisfiable is None else cs.satisfiable
            if fm is not None and fm != expected:
                problems.append(f"{name}: Fourier-Motzkin says satisfiable={fm}")
            if (data["status"] == "sat") != expected:
                problems.append(f"{command} {name}: status {data['status']}, expected satisfiable={expected}")
            if command == "p0-scenarios" and expected:
                mass = cs.scenario_mass() if cs.traces else None
                problems += [f"{name}: {p}" for p in checks.scenario_table(payload, *args, mass, oracles, linsolve)]
        return problems


def _template(name: str, args) -> tuple:
    if name == "existence":
        return ("F", ("p", args[0]))
    return ("G", ("->", ("p", args[0]), ("F", ("p", args[1]))))


def _mined_set(cases, min_support: Fraction) -> gen.ConstraintSet:
    """The bound pairs ``mine`` reports for a log, with the log's cases as
    the constructing distribution."""
    mined = checks.expected_mining(cases, min_support)
    formulas = tuple(_template(t, args) for t, args, _ in mined for _ in (0, 1))
    cmps = (">=", "<=") * len(mined)
    bounds = tuple(s for *_, s in mined for _ in (0, 1))
    lines = [f"P{c}{b} : {logic.render(f)}" for f, c, b in zip(formulas, cmps, bounds)]
    traces = tuple(tuple(frozenset((act,)) for act in case) for case in cases)
    names = tuple(sorted({act for case in cases for act in case}))
    return gen.ConstraintSet("\n".join(lines) + "\n", formulas, cmps, bounds, names,
                             traces, (Fraction(1, len(cases)),) * len(cases))


def _data_set(text: str) -> gen.ConstraintSet:
    """A bundled ``.p0`` file; its verdict comes from Fourier-Motzkin."""
    formulas, cmps, bounds = [], [], []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            head, body = line.split(":", 1)
            cmp = head[1:3] if head[2] == "=" else head[1]
            cmps.append(cmp)
            bounds.append(Fraction(head[1 + len(cmp):].strip()))
            formulas.append(logic.parse(body))
    names = tuple(sorted(set().union(*(logic.names_of(f) for f in formulas))))
    return gen.ConstraintSet(text, tuple(formulas), tuple(cmps), tuple(bounds), names, satisfiable=None)


class _Feeder:
    """stdin for ``p0-monitor``: hands out one line per request and stamps
    when it did, so the next event is sent only after the previous one was
    answered."""

    def __init__(self, lines):
        self.lines = lines
        self.sent = []

    def __iter__(self):
        return self

    def __next__(self):
        k = len(self.sent)
        if k == len(self.lines):
            raise StopIteration
        self.sent.append(time.perf_counter())
        return self.lines[k]


class _Recorder(io.StringIO):
    """stdout for ``p0-monitor``: stamps every flushed record."""

    def __init__(self):
        super().__init__()
        self.done = []

    def flush(self):
        self.done.append(time.perf_counter())


class MonitorStream:
    """``p0-monitor`` on a long stream that keeps one scenario alive."""

    name = "monitor-stream"
    CAP = 60.0
    EVENTS = 50000

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        rng = gen.rng_for(self.name, self.seed)
        self.cs = gen.ladder_set(rng, 4)
        self.stream = gen.monitor_stream(rng, self.cs, self.EVENTS)
        self.path = self.workdir / "monitor.p0"
        self.path.write_text(self.cs.text, encoding="utf-8")
        self.lines = [logic.trace_text((v,)) + "\n" for v in self.stream.events]

    def parse(self, pl) -> None:
        self.pl = pl
        pl.parse_pltlf0(self.path.read_text(encoding="utf-8"))

    def _monitor(self):
        feeder, recorder = _Feeder(self.lines), _Recorder()
        saved_in, saved_out = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = feeder, recorder
        called = time.perf_counter()
        try:
            code = self.pl.cli.main(["p0-monitor", str(self.path)])
        finally:
            sys.stdin, sys.stdout = saved_in, saved_out
        return code, recorder.getvalue(), called, feeder.sent, recorder.done

    def round(self, runner) -> None:
        result = runner.op("p0_monitor", self.CAP, self._monitor)
        if result is None:
            return
        code, out, called, sent, done = result
        runner.note("monitor_start_s", runner.pace.scaled(called, sent[0])[1])
        runner.note("monitor_events_per_s", len(done) / runner.pace.scaled(sent[0], done[-1])[1])
        runner.answers([d - s for s, d in zip(sent, done)])

    def check(self, ops) -> list:
        (record,) = ops
        if not record.ok:
            return ["p0-monitor failed"]
        code, out, *_ = record.value
        problems = []
        if code != 0:
            problems.append(f"p0-monitor exit code {code}")
        table = self.pl.scenario_maxima(self.pl.parse_pltlf0(self.cs.text))
        mass = self.cs.scenario_mass()
        patterns = logic.realizable_patterns(self.cs.formulas, self.cs.names)
        live = sum(1 for m in table.maxima if m > 0)
        if live != len(patterns):
            problems.append(f"{live} live scenarios, {len(patterns)} satisfiable")
        for i, m in enumerate(table.maxima):
            if m < mass.get(i, 0):
                problems.append(f"scenario {i}: maximum {m} below constructing mass {mass[i]}")
        target = self.stream.target
        pattern = tuple(ch == "1" for ch in format(target, "04b"))
        if logic.holds_on_trace(self.cs.formulas, self.stream.events + self.stream.completion) != pattern:
            problems.append("the stream does not keep its target scenario alive")
        problems += checks.monitor_records(out.splitlines(), self.EVENTS, table.maxima[target])
        return problems


WORKLOADS = {w.name: w for w in (TreeQueries, TreeThreeBound, FlatLadder, MonitorStream)}
