"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process, from one client, as a closed loop: each
operation starts when the previous one has returned.  Set-up (importing
``pltlf``, generating the seeded inputs and parsing them) is repeated
``SETUP_REPS`` times and its median reported.  Rounds of the workload's
operations then repeat until ``--seconds`` have passed; every round runs
the same operations, so the share of failed operations does not depend on
the run length.  Time metrics are medians over rounds.  Every answer is
checked after its round, outside the timed part.  The last line of
standard output is the result object; the line before it holds the
detail: the time of each query kind and, with ``--trace 1``, every
per-layer metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import pathlib
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass

from pace import Pace

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 9



class OpTimeout(BaseException):
    """An operation ran past its cap.  Not an ``Exception``, so a handler
    in the program that maps unexpected errors to an exit code does not
    turn a capped operation into an answer."""


@dataclass
class Op:
    kind: str
    seconds: float  # at the reference pace
    wall: float
    ok: bool
    value: object


class Runner:
    """Runs operations under a cap and keeps what each round measured."""

    def __init__(self, pace: Pace, tracer=None):
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)
        self.rounds = []
        self.pace = pace
        self.tracer = tracer

    @contextlib.contextmanager
    def aside(self):
        """Engine calls a workload makes for its checks: neither timed nor
        traced."""
        if self.tracer:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer:
                self.tracer.enabled = True

    def _alarm(self, signum, frame):
        if self.armed:
            raise OpTimeout()

    def begin_round(self) -> None:
        self.ops, self.latencies, self.notes = [], [], {}
        self.attempted = self.failed = 0
        self.pace.mark()

    def end_round(self) -> None:
        self.rounds.append({
            "total_s": sum(o.seconds for o in self.ops),
            "wall_total_s": sum(o.wall for o in self.ops),
            "ops": self.ops,
            "answer_p50_s": statistics.median(self.latencies),
            "notes": self.notes,
            "attempted": self.attempted,
            "failed": self.failed,
        })

    def op(self, kind: str, cap: float, fn, *args):
        """Run one operation; past ``cap`` seconds it is stopped, counted as
        failed, timed at the cap, and left out of the traced run's layers.
        Each operation starts from a collected heap, so garbage left by the
        one before it does not land in its time, and is followed by a pace
        mark."""
        gc.collect()
        checkpoint = self.tracer.checkpoint() if self.tracer else None
        started = time.perf_counter()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            value = fn(*args)
            self.armed = False
            ok = True
        except OpTimeout:
            value, ok = None, False
        except Exception as exc:  # an operation that raises counts as failed
            self.armed = False
            print(f"{kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            value, ok = None, False
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        ended = time.perf_counter()
        if self.tracer and not ok:
            self.tracer.discard(checkpoint)
        self.pace.mark()
        wall, seconds = self.pace.scaled(started, ended) if ok else (cap, cap)
        self.ops.append(Op(kind, seconds, wall, ok, value))
        self.latencies.append(wall)
        self.attempted += 1
        self.failed += not ok
        return value

    def answers(self, latencies) -> None:
        """The last operation answered once per element of ``latencies``:
        count those answers as the operations."""
        self.latencies.pop()
        self.latencies.extend(latencies)
        self.attempted += len(latencies) - 1

    def note(self, key: str, value: float) -> None:
        self.notes[key] = value


def _import_pltlf():
    for name in [n for n in sys.modules if n == "pltlf" or n.startswith("pltlf.")]:
        del sys.modules[name]
    pl = importlib.import_module("pltlf")
    importlib.import_module("pltlf.cli")
    return pl


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pltlf" / "__init__.py").is_file():
        print(f"error: no pltlf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        pace = Pace()
        setup = []
        for _ in range(SETUP_REPS):
            pace.mark()
            started = time.perf_counter()
            pl = _import_pltlf()
            workload.generate()
            workload.parse(pl)
            ended = time.perf_counter()
            pace.mark()
            setup.append(pace.scaled(started, ended))

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            pace.observer = tracer.mark_taken
            tracer.begin_round()  # the set-up parse, once more under the tracer
            workload.parse(pl)
        runner = Runner(pace, tracer)
        problems = []
        measured = 0.0
        while True:
            began = time.perf_counter()
            if tracer:
                tracer.begin_round()
            runner.begin_round()
            with pace.sample():
                workload.round(runner)
            runner.end_round()
            measured += time.perf_counter() - began
            # checked between rounds, and the answers dropped, so that
            # memory does not grow with the number of rounds
            ops = runner.rounds[-1]["ops"]
            with runner.aside():
                problems += workload.check(ops)
            if [(o.kind, o.ok) for o in ops] != [(o.kind, o.ok) for o in runner.rounds[0]["ops"]]:
                problems.append("rounds ran different operations")
            for o in ops:
                o.value = None
            if measured >= args.seconds:
                break
        if tracer:
            tracer.enabled = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = runner.rounds
    kinds = {}
    for r in rounds:
        sums = {}
        for o in r["ops"]:
            sums[o.kind + "_s"] = sums.get(o.kind + "_s", 0.0) + o.seconds
        for key, value in sums.items():
            kinds.setdefault(key, []).append(value)
    end_to_end = {
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "total_s": (_median(rounds, "total_s"), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "wall_setup_s": statistics.median(w for w, _ in setup),
        "wall_total_s": _median(rounds, "wall_total_s"),
        "pace_marks_s": statistics.quantiles(
            [e - s for s, e in zip(pace.starts, pace.ends)], n=4) if len(pace.starts) > 1 else [],
        "kinds": {k: statistics.median(v) for k, v in kinds.items()},
        "answer_p50_ms": _median(rounds, "answer_p50_s") * 1000,
        "first_round_ops": [[o.kind, o.seconds, o.ok] for o in rounds[0]["ops"]],
        "notes": {k: statistics.median(r["notes"][k] for r in rounds) for k in rounds[0]["notes"]},
        "problems": problems[:20],
    }
    if tracer:
        setup_layers, *layers = tracer.round_metrics()
        detail["layers"] = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        detail["layers"]["syntax.parse_s"] += setup_layers["syntax.parse_s"]
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.json")
        # the per-layer metrics BENCHMARK.json lists; the layer times that
        # are zero on workloads that do not reach their layer are only in
        # the detail line
        listed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        metrics = {m["name"]: {"value": detail["layers"][m["name"]], "unit": m["unit"]} for m in listed}
    else:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in end_to_end.items()}
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
