#!/usr/bin/env python3
"""Digest of the command line's output on a fixed list of commands.

Runs every command in-process through ``pltlf.cli.main`` and prints, per
command, a sha256 over its argv, exit code, stdout and stderr.  A running
total over them is printed after the commands that answer, again after
the malformed files, after the edge cases and after the ``mine``
commands, so the last line is the total over all of them.  Two
checkouts give the same total exactly when every command answers byte for
byte the same, so comparing the last line checks that a change keeps the
CLI output:

    python3 scripts/cli_digest.py | tail -1

The script puts its own checkout's ``src/`` first on the import path, so
it digests that checkout's code whatever else is installed.

The commands are ``sat``, ``model``, ``mlt``, ``prob`` and ``prefix`` on
the formulas below, and ``p0-sat``, ``p0-scenarios`` and ``p0-monitor``
(a fixed 300-event stream) on every ``data/*.p0`` file and on four more
sets: the existence/response set mined from ``data/sample_log.csv``, the
fixed set ``SHAPES``, the fixed set ``LADDER`` and the seven-formula fixed
set ``SEVEN``, whose shared automaton has 4 096 atoms.  The mined set and
``LADDER`` are also monitored on a fixed 2 000-event stream with repeated
lines, blank lines and whitespace variants; the mined set's stream names
an unknown proposition halfway, so every scenario dies there.  Last come
``sat``, ``model`` and ``prob`` on the four-bound formula ``FOUR_BOUNDS``
and ``sat`` and ``model`` on the next chain ``NEXT_CHAIN``, whose automata
are larger than any above, and ``sat`` on the longer chain ``LONG_CHAIN``
(2 048 atoms).  After the first total, ``p0-sat`` runs on the
constraint-set files of ``MALFORMED``, which the reader rejects, so their
error text is pinned too.  After the second total come the ``prob`` and
``prefix`` edge cases of ``EDGE_QUERIES``: one-letter prefixes, a prefix
ending in a final state, the walkthrough's long prefix, a prefix and a
trace of probability 0, an unsatisfiable formula and a two-letter prefix
on ``FOUR_BOUNDS``.  After the third total, ``mine`` runs on
``data/sample_log.csv`` with the default catalog and with
``--templates existence,response``, then on the logs of
``MALFORMED_LOGS``, which the reader rejects.  Data paths are printed relative to the
repository root, and the extra sets are written to a temporary directory
and named relative to it, so the digest does not depend on where the
checkout lives.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
# this checkout's sources, ahead of any installed pltlf
sys.path.insert(0, str(ROOT / "src"))

from pltlf.cli import main  # noqa: E402
from pltlf.mining import default_catalog, load_log, mine_constraints, render_mined  # noqa: E402

FORMULAS = (
    # the README's formulas and the three-bound formula
    "P<=0.5[a] & P>=0.6[X b]",
    "X !b & P<=0.7[a U b] & P<=0.6[X(!a & !b)]",
    "P<=0.5[a] & P>=0.6[X b] & P>0.2[F c]",
    # the constraint sets of data/*.p0 as tree formulas, and an unsat pair
    "P<=0.8[F a] & P<=0.7[G(a -> F b)]",
    "P<=0.5[F a] & P<=0.6[G(a -> F b)]",
    "P>=0.5[a & b] & P>=0.6[!a]",
    # one bound
    "P>=0.5[a U b]",
    "P<1/2[X b] & a",
    "P>0.3[F (a & b)]",
    "P<=0[b] & F a",
    "P>=1[X a] & G !b",
    "P>=0.7[G a] | F b",
    "X X b & P<=1/4[a]",
    # two bounds
    "P>0.5[a] & P>0.5[b]",
    "P<0.5[a] & P<0.5[b]",
    "P>=0.6[X a] & P>=0.6[X !b]",
    "P>=0.6[X a] & P>=0.6[X !a]",
    "P<=0.3[F b] & P>=0.2[a U b]",
    "P>0[a & b] & P<1[a | b]",
    "G(a -> X b) & P>=1/2[a] & P<=3/5[b]",
    "(P<=0.5[a] | P>=0.9[b]) & X a",
    "P>=0.25[!a] & P<0.75[X X b]",
    "a U (b & P>=0.5[X a]) & P<=0.7[b]",
    "P>=1/2[a] & P>=1/2[!a & b]",
    "!(P<=0.5[a] & P<=0.5[b])",
    # nested bounds, and three bounds that cannot all hold
    "P>0.3[X P<0.5[a]] & P>=0.4[F b]",
    "P>0.5[P>0.5[a] U b]",
    "P>=0.5[a] & P>=0.6[!a] & P>0.2[b]",
)

# a conjunction, both constants, a duplicate formula and a formula next
# to its negation
SHAPES = (
    "P>=1/5 : a & X b\n"
    "P>=9/10 : true\n"
    "P>1/10 : F a\n"
    "P<4/5 : F a\n"
    "P<=1/2 : !F a\n"
    "P<=2/5 : false\n"
)

# the first four formulas of the benchmark's ladder sets
LADDER = (
    "P<=2/5 : F a\n"
    "P<=9/10 : G(a -> F b)\n"
    "P>1/10 : X b\n"
    "P<=9/10 : a U c\n"
)

# seven formulas over four propositions, bounds of every comparison
SEVEN = (
    "P>=1/2 : F a\n"
    "P<=9/10 : F b\n"
    "P>1/5 : G(a -> F b)\n"
    "P<=3/4 : a U b\n"
    "P>=1/10 : X c\n"
    "P<4/5 : F(c & X d)\n"
    "P>=1/4 : G !d\n"
)

# 2 048 atoms in 128 classes of 16, and 2 atoms per class
FOUR_BOUNDS = "P<=0.5[a] & P>=0.6[X b] & P>0.2[F c] & P<0.7[G d]"
NEXT_CHAIN = "X X X X X X X X a"
LONG_CHAIN = "X X X X X X X X X X a"

# one fault per file: a line without its P bound, a zero denominator, a
# bound outside [0, 1], a non-ASCII digit, a ':' inside the formula and a
# formula nested deeper than the parser's limit
MALFORMED = (
    ("prefix.p0", "P<=0.5 : F a\nQ<=0.5 : F b\n"),
    ("zero.p0", "P<=1/0 : F a\n"),
    ("range.p0", "P>=1.5 : F a\n"),
    ("digit.p0", "P>=\u0660.5 : F a\n"),
    ("colon.p0", "P<=0.5 : a : b\n"),
    ("deep.p0", "P<=0.5 : " + "!" * 101 + "a\n"),
)

# event logs the reader rejects: a blank line 3 before an empty activity
# on line 5, and order values in Arabic-Indic digits
MALFORMED_LOGS = (
    ("blank.csv", "case_id,activity,order\nc1,a,1\n\nc1,b,2\nc2,,1\n"),
    ("digits.csv", "case_id,activity,order\nc1,a,\u0661\nc1,b,\u0662\n"),
)

TRACE = "-;a;b"
PREFIX = "-;a"

WALKTHROUGH = FORMULAS[1]
# (command, formula, query) after the malformed files: a one-letter
# prefix, one whose own end is final, the walkthrough's prefix whose
# probability is 1, a prefix and trace of probability 0, and an
# unsatisfiable formula
EDGE_QUERIES = (
    ("prefix", FORMULAS[0], "a"),
    ("prefix", WALKTHROUGH, "a"),
    ("prefix", "F a", "a"),
    ("prob", "F a", "a"),
    ("prefix", WALKTHROUGH, "-;a;a;a,b"),
    ("prob", WALKTHROUGH, "-;a;a;a,b"),
    ("prefix", WALKTHROUGH, "-;b"),
    ("prob", WALKTHROUGH, "-;b"),
    ("prefix", "P>=0.5[a] & P>=0.6[!a]", "-"),
    ("prob", "P>=0.5[a] & P>=0.6[!a]", "a"),
)


def stream(events: int = 300) -> str:
    valuations = ("-", "a", "b", "a,b")
    return "".join(valuations[(i * i + 3 * i) // 2 % 4] + "\n" for i in range(events))


def long_stream(names, events: int = 2000, death=None) -> str:
    """Every valuation over ``names``, in a fixed irregular order, written
    in several spellings, with blank lines between some events; event
    number ``death`` (if given) is ``z``, which no constraint mentions."""
    valuations = [
        ",".join(n for k, n in enumerate(names) if mask >> k & 1) or "-"
        for mask in range(1 << len(names))
    ]
    lines = []
    for i in range(events):
        text = "z" if i == death else valuations[(i * i // 3 + i // 5) % len(valuations)]
        spelling = i % 5
        if spelling == 1:
            text = f"  {text}\t"
        elif spelling == 3:
            text = text.replace(",", " , ")
        lines.append(text + "\n")
        if i % 9 == 4:
            lines.append("\n" if i % 2 else "   \n")
    return "".join(lines)


def mined_set() -> str:
    """The existence/response set mined from the sample log, as ``mine``
    with ``--min-support 0.8 --templates existence,response`` writes it."""
    catalog = tuple(t for t in default_catalog() if t.name in ("existence", "response"))
    log = load_log(ROOT / "data" / "sample_log.csv")
    return render_mined(mine_constraints(log, Fraction(4, 5), catalog))


def p0_commands(name: str):
    yield ("p0-sat", name), ""
    yield ("p0-scenarios", name), ""
    yield ("p0-monitor", name), stream()


def commands():
    for text in FORMULAS:
        yield ("sat", text), ""
        yield ("model", text), ""
        yield ("mlt", text, "--count", "4"), ""
        yield ("prob", text, f"--trace={TRACE}"), ""
        yield ("prefix", text, f"--prefix={PREFIX}", "--count", "3"), ""
    for path in sorted((ROOT / "data").glob("*.p0")):
        yield from p0_commands(str(path.relative_to(ROOT)))
    # each command runs before the next is drawn, so these run in tmp
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in (("mined.p0", mined_set()), ("shapes.p0", SHAPES)):
                pathlib.Path(name).write_text(text, encoding="utf-8")
                yield from p0_commands(name)
            pathlib.Path("ladder.p0").write_text(LADDER, encoding="utf-8")
            yield from p0_commands("ladder.p0")
            pathlib.Path("seven.p0").write_text(SEVEN, encoding="utf-8")
            yield from p0_commands("seven.p0")
            yield ("p0-monitor", "mined.p0"), long_stream(("a", "b"), death=1000)
            yield ("p0-monitor", "ladder.p0"), long_stream(("a", "b", "c"))
        finally:
            os.chdir(ROOT)
    yield ("sat", FOUR_BOUNDS), ""
    yield ("model", FOUR_BOUNDS), ""
    yield ("prob", FOUR_BOUNDS, f"--trace={TRACE}"), ""
    yield ("sat", NEXT_CHAIN), ""
    yield ("model", NEXT_CHAIN), ""
    yield ("sat", LONG_CHAIN), ""


def malformed_commands():
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in MALFORMED:
                pathlib.Path(name).write_text(text, encoding="utf-8")
                yield ("p0-sat", name), ""
        finally:
            os.chdir(ROOT)


def edge_commands():
    for command, text, query in EDGE_QUERIES:
        yield (command, text, f"--{'trace' if command == 'prob' else 'prefix'}={query}"), ""
    yield ("prefix", FOUR_BOUNDS, "--prefix=a;b", "--count", "3"), ""


def mine_commands():
    log = ("--log", "data/sample_log.csv", "--min-support", "0.8")
    yield ("mine", *log), ""
    yield ("mine", *log, "--templates", "existence,response"), ""
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in MALFORMED_LOGS:
                pathlib.Path(name).write_text(text, encoding="utf-8")
                yield ("mine", "--log", name, "--min-support", "0.8"), ""
        finally:
            os.chdir(ROOT)


def run(argv, stdin_text: str):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def digest(argv, code: int, out: str, err: str) -> str:
    h = hashlib.sha256()
    for part in ("\0".join(argv), str(code), out, err):
        h.update(part.encode())
        h.update(b"\1")
    return h.hexdigest()


def main_digest() -> int:
    os.chdir(ROOT)
    total = hashlib.sha256()
    count = 0
    for group in (commands(), malformed_commands(), edge_commands(), mine_commands()):
        for argv, stdin_text in group:
            line = digest(argv, *run(argv, stdin_text))
            total.update(line.encode())
            count += 1
            print(f"{line}  {' '.join(argv)}")
        print(f"{total.hexdigest()}  total over {count} commands")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
