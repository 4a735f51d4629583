"""Command-line front end.

Every subcommand (except the line-oriented monitor protocol) prints one
JSON envelope with fixed key order: command, status, payload, timing_ms.
Probabilities appear as exact "num/den" strings next to a decimal
approximation field.  Exit codes: 0 success/yes, 1 no/unsat/violation,
2 usage or input error, or an internal error (reported on stderr without
a traceback).  timing_ms stays null unless --timings is given,
so outputs are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from fractions import Fraction

from .automaton import check_model, is_satisfiable, witness_model
from .fragment import (
    build_lphi,
    is_satisfiable0,
    most_likely_scenario,
    parse_pltlf0,
    scenario_maxima,
    start_monitor,
    monitor_step,
)
from .linsolve import InfeasibleSystemError
from .mining import default_catalog, load_log, mine_constraints, render_mined
from .syntax import ParseError, formula_text, format_trace, parse_formula, parse_number, parse_trace
from .weighted import (
    build_weighted,
    enumerate_mlts,
    mlt_acceptor,
    prefix_extension_query,
    trace_probability,
)

log = logging.getLogger("pltlf")


def _rational(value: Fraction) -> str:
    return str(Fraction(value))


def _exact(key: str, value: Fraction) -> dict:
    """The payload fields of a value: its exact "num/den" string under
    ``key``, then its float under ``key`` + "_approx"."""
    return {key: _rational(value), f"{key}_approx": float(value)}


def _positive_int(text: str) -> int:
    """Argument type for counts and lengths: an integer of at least 1,
    written in ASCII digits."""
    if not (text.isascii() and text.strip().isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _emit(args, command: str, status: str, payload: dict, started: float) -> None:
    envelope = {
        "command": command,
        "status": status,
        "payload": payload,
        "timing_ms": round((time.monotonic() - started) * 1000, 3) if args.timings else None,
    }
    if args.pretty:
        text = json.dumps(envelope, indent=2)
    else:
        text = json.dumps(envelope, separators=(",", ":"))
    print(text)


def _read_p0(path: str):
    with open(path, encoding="utf-8-sig") as handle:
        return parse_pltlf0(handle.read())


def _cmd_sat(args, started) -> int:
    f = parse_formula(args.formula)
    sat = is_satisfiable(f)
    _emit(args, "sat", "sat" if sat else "unsat",
          {"formula": formula_text(f), "satisfiable": sat}, started)
    return 0 if sat else 1


def _cmd_model(args, started) -> int:
    f = parse_formula(args.formula)
    model = witness_model(f)
    if model is None:
        _emit(args, "model", "unsat", {"formula": formula_text(f)}, started)
        return 1
    if not check_model(model, f):
        raise RuntimeError("extracted witness model failed verification")
    _emit(args, "model", "sat",
          {"formula": formula_text(f), "model": model.to_dict()}, started)
    return 0


def _cmd_mlt(args, started) -> int:
    f = parse_formula(args.formula)
    acceptor = mlt_acceptor(build_weighted(f))
    value = acceptor.value
    traces = enumerate_mlts(acceptor, args.count, args.max_len) if value > 0 else []
    _emit(args, "mlt", "sat" if value > 0 else "unsat",
          {
              "formula": formula_text(f),
              **_exact("probability", value),
              "traces": [format_trace(t) for t in traces],
          }, started)
    return 0 if value > 0 else 1


def _cmd_prob(args, started) -> int:
    f = parse_formula(args.formula)
    trace = parse_trace(args.trace)
    value = trace_probability(f, trace)
    _emit(args, "prob", "ok",
          {
              "formula": formula_text(f),
              "trace": format_trace(trace),
              **_exact("probability", value),
          }, started)
    return 0


def _cmd_prefix(args, started) -> int:
    f = parse_formula(args.formula)
    prefix = parse_trace(args.prefix)
    value, acceptor = prefix_extension_query(f, prefix)
    extensions = enumerate_mlts(acceptor, args.count, args.max_len) if value > 0 else []
    _emit(args, "prefix", "ok",
          {
              "formula": formula_text(f),
              "prefix": format_trace(prefix),
              **_exact("probability", value),
              "extensions": [format_trace(t) for t in extensions],
          }, started)
    return 0


def _cmd_p0_sat(args, started) -> int:
    phi = _read_p0(args.file)
    sat = is_satisfiable0(phi)
    _emit(args, "p0-sat", "sat" if sat else "unsat",
          {"file": args.file, "constraints": len(phi), "satisfiable": sat}, started)
    return 0 if sat else 1


def _cmd_p0_scenarios(args, started) -> int:
    phi = _read_p0(args.file)
    table = build_lphi(phi)
    scenarios = [
        {
            "index": s.index,
            "label": s.label,
            "members": s.describe(),
            "satisfiable": acceptor.satisfiable,
        }
        for s, acceptor in zip(table.scenarios, table.acceptors)
    ]
    payload = {
        "file": args.file,
        "constraints": [c.text() for c in phi.constraints],
        "system": table.rows_text(),
        "scenarios": scenarios,
    }
    try:
        scenario_maxima(table)
    except InfeasibleSystemError:
        _emit(args, "p0-scenarios", "unsat", payload, started)
        return 1
    for i, entry in enumerate(scenarios):
        entry.update(_exact("max", table.maxima[i]))
    payload["most_likely"] = most_likely_scenario(table, ())
    _emit(args, "p0-scenarios", "sat", payload, started)
    return 0


def _cmd_p0_monitor(args, started) -> int:
    phi = _read_p0(args.file)
    try:
        state = start_monitor(phi)
    except InfeasibleSystemError:
        print(f"error: constraint set in {args.file} is unsatisfiable", file=sys.stderr)
        return 2
    # each distinct input line is parsed once (None for a blank one), and a
    # record's text after "step" is rendered once per best index
    valuations = {}
    records = {}
    step = 0
    for raw in sys.stdin:
        try:
            valuation = valuations[raw]
        except KeyError:
            valuation = valuations[raw] = _monitor_valuation(raw)
        if valuation is None:
            continue
        state = monitor_step(state, valuation)
        step += 1
        rest = records.get(state.best_index)
        if rest is None:
            record = {
                "scenario_index": state.best_index,
                "scenario_description": state.describe_best(),
                "probability": _rational(state.probability),
                "violated": state.violated,
            }
            rest = records[state.best_index] = json.dumps(record, separators=(",", ":"))[1:]
        print(f'{{"step":{step},{rest}', flush=True)
    return 1 if state.violated else 0


def _monitor_valuation(raw: str):
    """The one valuation on a monitor input line, or None for a blank line."""
    line = raw.strip()
    if not line:
        return None
    positions = parse_trace(line)
    if len(positions) != 1:
        raise ValueError(f"monitor input must be one valuation per line, got {line!r}")
    return positions[0]


def _cmd_mine(args, started) -> int:
    event_log = load_log(args.log)
    try:
        min_support = parse_number(args.min_support)
    except ValueError as exc:
        raise ValueError(f"--min-support: {exc}") from None
    catalog = default_catalog()
    if args.templates:
        wanted = [name.strip() for name in args.templates.split(",") if name.strip()]
        if not wanted:
            raise ValueError(f"--templates names no template: {args.templates!r}")
        known = {t.name for t in catalog}
        unknown = [name for name in wanted if name not in known]
        if unknown:
            raise ValueError(f"unknown templates: {', '.join(unknown)}")
        catalog = tuple(t for t in catalog if t.name in wanted)
    mined = mine_constraints(event_log, min_support, catalog)
    text = render_mined(mined)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    _emit(args, "mine", "ok",
          {
              "log": args.log,
              "cases": len(event_log),
              "min_support": _rational(min_support),
              "mined": [
                  {
                      "template": m.template,
                      "args": list(m.args),
                      "formula": formula_text(m.formula),
                      **_exact("support", m.support),
                  }
                  for m in mined
              ],
              "p0": text,
          }, started)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pltlf",
        description="Reasoner for probability-bounded linear temporal logic on finite traces.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    parser.add_argument("--timings", action="store_true",
                        help="fill timing_ms (off by default to keep output byte-stable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sat", help="decide satisfiability of a formula")
    p.add_argument("formula")
    p.set_defaults(run=_cmd_sat)

    p = sub.add_parser("model", help="extract a witness interpretation")
    p.add_argument("formula")
    p.set_defaults(run=_cmd_model)

    p = sub.add_parser("mlt", help="probability of the most likely traces, and the traces")
    p.add_argument("formula")
    p.add_argument("--count", type=_positive_int, default=5)
    p.add_argument("--max-len", type=_positive_int, default=8)
    p.set_defaults(run=_cmd_mlt)

    p = sub.add_parser("prob", help="highest probability of one trace")
    p.add_argument("formula")
    p.add_argument("--trace", required=True)
    p.set_defaults(run=_cmd_prob)

    p = sub.add_parser("prefix", help="highest probability of extending a prefix")
    p.add_argument("formula")
    p.add_argument("--prefix", required=True)
    p.add_argument("--count", type=_positive_int, default=5)
    p.add_argument("--max-len", type=_positive_int, default=8)
    p.set_defaults(run=_cmd_prefix)

    p = sub.add_parser("p0-sat", help="satisfiability of a constraint-set file")
    p.add_argument("file")
    p.set_defaults(run=_cmd_p0_sat)

    p = sub.add_parser("p0-scenarios", help="scenario table and maxima of a constraint set")
    p.add_argument("file")
    p.set_defaults(run=_cmd_p0_scenarios)

    p = sub.add_parser("p0-monitor", help="monitor a valuation stream against a constraint set")
    p.add_argument("file")
    p.set_defaults(run=_cmd_p0_monitor)

    p = sub.add_parser("mine", help="discover constraints from an event log")
    p.add_argument("--log", required=True)
    p.add_argument("--min-support", required=True)
    p.add_argument("--templates", help="comma-separated template names (default: all)")
    p.add_argument("--out", help="also write the mined constraints to this file")
    p.set_defaults(run=_cmd_mine)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call."""
    return build_parser()


def main(argv=None) -> int:
    level = os.environ.get("PLTLF_LOG")
    if level:
        logging.basicConfig(level=level.upper())
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    log.debug("running subcommand %s", args.command)
    try:
        return args.run(args, started)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, InfeasibleSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 1 means "no", so an internal failure must not reach it
        log.debug("internal error", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
