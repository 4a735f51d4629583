"""Seeded inputs for the workloads.

Every constraint set is built from an explicit distribution over a few
finite traces, so it is satisfiable by construction and the distribution's
mass on each scenario is a known lower bound for that scenario's maximum;
the one unsatisfiable set bounds a formula and its negation above one in
total.  Event logs and monitor streams are built the same way: from case
kinds and valuations whose effect on the answer is known in advance.

The template shapes and the constructing distributions are fixed and the
seed renames propositions and draws the unsatisfiable bounds, the event
log, the monitor stream and the query traces, so every seed asks the
engine for the same amount of work and the run-to-run spread stays small.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import logic

NAMES = ("a", "b", "c", "d", "e", "h", "k", "m", "n", "q", "r", "s", "t", "u", "v", "w", "y", "z")
GRID = 20

# One shape per ladder rung: the n-th set uses the first n templates over
# three renamed propositions.  The strict row keeps ``maximize`` on its
# single pinned-feasibility path; the lexicographic-witness path is left to
# the bundled data files and the mined set.
LADDER = (
    ("F a", ">="),
    ("G(a -> F b)", "<="),
    ("X b", ">"),
    ("a U c", "<="),
    ("F c", ">="),
    ("G !b", "<="),
)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def rename(text: str, mapping: dict) -> str:
    return logic.render(_rename(logic.parse(text), mapping))


def _rename(f, mapping):
    if f[0] == "p":
        return ("p", mapping[f[1]])
    if f[0] == "P":
        return ("P", f[1], f[2], _rename(f[3], mapping))
    if f[0] in ("true", "false"):
        return f
    return (f[0], *(_rename(g, mapping) for g in f[1:]))


@dataclass(frozen=True)
class ConstraintSet:
    """A ``.p0`` text together with what is known about it."""

    text: str
    formulas: tuple  # logic tuples, in file order
    cmps: tuple
    bounds: tuple
    names: tuple
    traces: tuple = ()  # the constructing distribution's support
    masses: tuple = ()  # and its masses
    satisfiable: bool | None = True  # None: decided by Fourier-Motzkin

    def scenario_mass(self) -> dict:
        """Mass of the constructing distribution on each scenario index
        (most significant bit = first constraint)."""
        out = {}
        for trace, mass in zip(self.traces, self.masses):
            index = 0
            for bit in logic.holds_on_trace(self.formulas, trace):
                index = index << 1 | bit
            out[index] = out.get(index, Fraction(0)) + mass
        return out


def _p0_text(formulas, cmps, bounds, header: str) -> str:
    lines = [f"# {header}"]
    lines += [f"P{c}{b} : {logic.render(f)}" for f, c, b in zip(formulas, cmps, bounds)]
    return "\n".join(lines) + "\n"


def random_trace(rng: random.Random, names, max_len: int) -> tuple:
    return tuple(
        frozenset(n for n in names if rng.random() < 0.5)
        for _ in range(rng.randint(1, max_len))
    )


def ladder_set(rng: random.Random, n: int) -> ConstraintSet:
    """The first n ladder templates over three names drawn by ``rng``,
    bounded with slack around the masses of a five-trace distribution.

    The distribution is the same for every seed (drawn from a fixed seed,
    then renamed), so the mass system and its LPs are the same and only
    the names differ.
    """
    names = tuple(rng.sample(NAMES, 3))
    mapping = dict(zip("abc", names))
    formulas = tuple(logic.parse(rename(t, mapping)) for t, _ in LADDER[:n])
    cmps = tuple(c for _, c in LADDER[:n])
    fixed = random.Random(f"ladder:{n}")
    while True:
        traces = tuple(
            tuple(frozenset(mapping[x] for x in v) for v in random_trace(fixed, "abc", 4))
            for _ in range(5)
        )
        weights = [fixed.randint(1, 4) for _ in traces]
        masses = tuple(Fraction(w, sum(weights)) for w in weights)
        totals = [Fraction(0)] * n
        for trace, mass in zip(traces, masses):
            for j, bit in enumerate(logic.holds_on_trace(formulas, trace)):
                if bit:
                    totals[j] += mass
        # every row strictly slack, so every satisfiable scenario is live
        if all(0 < t < 1 for t in totals):
            break
    bounds = tuple(
        Fraction(math.ceil(t * GRID) - 1, GRID) if c in (">=", ">") else Fraction(math.floor(t * GRID) + 1, GRID)
        for t, c in zip(totals, cmps)
    )
    text = _p0_text(formulas, cmps, bounds, f"ladder n={n}, satisfiable by construction")
    return ConstraintSet(text, formulas, cmps, bounds, names, traces, masses)


def unsat_set(rng: random.Random) -> ConstraintSet:
    """``F x`` and ``G !x`` exclude each other, and their lower bounds add
    up to more than one."""
    x, y = rng.sample(NAMES, 2)
    k = rng.randint(11, 16)
    p, q = Fraction(k, GRID), Fraction(rng.randint(GRID + 1 - k, 14), GRID)
    formulas = (
        logic.parse(f"F {x}"),
        logic.parse(f"G !{x}"),
        logic.parse(f"X {y}"),
    )
    cmps = (">=", ">=", "<=")
    bounds = (p, q, Fraction(rng.randint(5, 15), GRID))
    text = _p0_text(formulas, cmps, bounds, "unsatisfiable by construction")
    return ConstraintSet(text, formulas, cmps, bounds, (x, y), satisfiable=False)


@dataclass(frozen=True)
class EventLog:
    text: str  # CSV
    cases: tuple  # activity tuples
    first: str  # present in every case
    second: str
    min_support: Fraction


def event_log(rng: random.Random) -> EventLog:
    """Cases over two activities u, v mixed from four kinds so that
    existence(u), existence(v) and response(u, v) clear the threshold and
    response(v, u) does not: u,v | u | v,u,v | u,v,u."""
    u, v = rng.sample(NAMES, 2)
    total = rng.randint(16, 24)
    only_u = rng.randint(1, total // 5)
    v_u_v = rng.randint(1, 3)
    u_v_u = rng.randint(0, 2)
    kinds = [(u, v)] * (total - only_u - v_u_v - u_v_u)
    kinds += [(u,)] * only_u + [(v, u, v)] * v_u_v + [(u, v, u)] * u_v_u
    rng.shuffle(kinds)
    rows = ["case_id,activity,order"]
    for i, acts in enumerate(kinds):
        rows += [f"c{i:03d},{act},{k + 1}" for k, act in enumerate(acts)]
    return EventLog("\n".join(rows) + "\n", tuple(kinds), u, v, Fraction(3, 5))


@dataclass(frozen=True)
class Stream:
    events: tuple  # valuations
    completion: tuple  # appended, the whole trace satisfies the target
    target: int  # scenario index the stream keeps alive


def monitor_stream(rng: random.Random, cs: ConstraintSet, length: int) -> Stream:
    """Random valuations that keep one scenario alive throughout.

    The target keeps the first two ladder formulas (``F a`` and
    ``G(a -> F b)``) and draws the other two, so exactly the target and the
    sibling that drops ``G(a -> F b)`` survive the opening steps on every
    seed.  A closing ``b`` then satisfies the target, which proves that
    every prefix of the stream extends to a trace of the target.  Drawing
    looks only at the opening steps, where ``X b`` and ``a U c`` are
    decided; the workload's check evaluates the whole stream.
    """
    b = cs.names[1]
    patterns = logic.realizable_patterns(cs.formulas, cs.names)
    choices = sorted(p for p in patterns if p[0] and p[1])
    pattern = choices[rng.randrange(len(choices))]
    target = int("".join("1" if bit else "0" for bit in pattern), 2)
    completion = (frozenset((b,)),)

    def draw(count):
        return tuple(frozenset(n for n in cs.names if rng.random() < 0.5) for _ in range(count))

    while True:
        head = draw(16)
        if logic.holds_on_trace(cs.formulas, head + completion) == pattern:
            return Stream(head + draw(length - len(head)), completion, target)
