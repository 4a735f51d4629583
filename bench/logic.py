"""Independent semantics for checking the engine's answers.

Nothing here calls into ``pltlf``.  Formulas are parsed into plain tuples
and evaluated straight from the definitions in the project README:

* on a finite trace, ``X f`` needs a next position, ``f U g`` needs ``g``
  at some position with ``f`` at every earlier one, ``F f`` is ``true U f``
  and ``G f`` is ``!F !f``;
* on a tree, a node carries a valuation and its children carry masses
  summing to one; ``X f`` holds when the node has children and all of them
  satisfy ``f``, ``f U g`` holds when ``g`` holds or ``f`` holds and every
  child satisfies ``f U g``, and ``P~p[f]`` compares the children's mass on
  ``f`` with ``p``.

Tuples: ``("true",)``, ``("false",)``, ``("p", name)``, ``("!", f)``,
``("&", f, g, ...)``, ``("|", f, g, ...)``, ``("->", f, g)``, ``("X", f)``,
``("F", f)``, ``("G", f)``, ``("U", f, g)`` and ``("P", cmp, bound, f)``.
"""

from __future__ import annotations

import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(->|<=|>=|<|>|\d+(?:\.\d+)?(?:/\d+)?|[A-Za-z_][A-Za-z0-9_]*|[()\[\]!&|])")
_UNARY = {"!", "X", "F", "G"}
_CMP = {
    "<=": lambda x, p: x <= p,
    ">=": lambda x, p: x >= p,
    "<": lambda x, p: x < p,
    ">": lambda x, p: x > p,
}


def parse(text: str) -> tuple:
    """Parse surface syntax with the README's precedence: unary, ``U``
    (right), ``&``, ``|``, ``->`` (right)."""
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append("")
    at = [0]

    def peek():
        return tokens[at[0]]

    def take(expected=None):
        tok = tokens[at[0]]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r} in {text!r}")
        at[0] += 1
        return tok

    def implies():
        left = disjunction()
        if peek() == "->":
            take()
            return ("->", left, implies())
        return left

    def nary(op, sub):
        parts = [sub()]
        while peek() == op:
            take()
            parts.append(sub())
        return parts[0] if len(parts) == 1 else (op, *parts)

    def disjunction():
        return nary("|", conjunction)

    def conjunction():
        return nary("&", until)

    def until():
        left = unary()
        if peek() == "U":
            take()
            return ("U", left, until())
        return left

    def unary():
        if peek() in _UNARY:
            return (take(), unary())
        tok = take()
        if tok == "(":
            inner = implies()
            take(")")
            return inner
        if tok in ("true", "false"):
            return (tok,)
        if tok == "P":
            cmp = take()
            bound = Fraction(take())
            take("[")
            inner = implies()
            take("]")
            return ("P", cmp, bound, inner)
        if not re.fullmatch(r"[a-z_][A-Za-z0-9_]*", tok):
            raise ValueError(f"unexpected token {tok!r} in {text!r}")
        return ("p", tok)

    result = implies()
    take("")
    return result


def render(f: tuple) -> str:
    """Text the engine's parser reads back as the same formula."""
    op = f[0]
    if op in ("true", "false"):
        return op
    if op == "p":
        return f[1]
    if op in _UNARY:
        return f"{op}({render(f[1])})" if op != "!" else f"!({render(f[1])})"
    if op == "P":
        return f"P{f[1]}{f[2]}[{render(f[3])}]"
    return "(" + f" {op} ".join(render(g) for g in f[1:]) + ")"


def subformulas(formulas) -> tuple:
    """Distinct subformulas, children before parents."""
    seen, order = set(), []

    def walk(g):
        if g in seen:
            return
        if g[0] == "P":
            walk(g[3])
        elif g[0] not in ("true", "false", "p"):
            for h in g[1:]:
                walk(h)
        seen.add(g)
        order.append(g)

    for f in formulas:
        walk(f)
    return tuple(order)


def _step(subs, index, valuation, later):
    """Truth of every subformula at a position with this valuation, given
    the truth vector of the next position (None at the last position)."""
    vec = [False] * len(subs)
    for i, g in enumerate(subs):
        op = g[0]
        if op == "true":
            t = True
        elif op == "false":
            t = False
        elif op == "p":
            t = g[1] in valuation
        elif op == "!":
            t = not vec[index[g[1]]]
        elif op == "&":
            t = all(vec[index[h]] for h in g[1:])
        elif op == "|":
            t = any(vec[index[h]] for h in g[1:])
        elif op == "->":
            t = not vec[index[g[1]]] or vec[index[g[2]]]
        elif op == "X":
            t = later is not None and later[index[g[1]]]
        elif op == "F":
            t = vec[index[g[1]]] or (later is not None and later[i])
        elif op == "G":
            t = vec[index[g[1]]] and (later is None or later[i])
        elif op == "U":
            t = vec[index[g[2]]] or (
                vec[index[g[1]]] and later is not None and later[i]
            )
        else:
            raise ValueError(f"not a trace formula: {g!r}")
        vec[i] = t
    return tuple(vec)


def holds_on_trace(formulas, trace) -> tuple:
    """Truth of each formula at the first position of a nonempty trace of
    valuations (sets of names); one backward pass, linear in its length."""
    if not trace:
        raise ValueError("traces are nonempty")
    subs = subformulas(formulas)
    index = {g: i for i, g in enumerate(subs)}
    later = None
    for valuation in reversed(trace):
        later = _step(subs, index, valuation, later)
    return tuple(later[index[f]] for f in formulas)


def realizable_patterns(formulas, names) -> frozenset:
    """Every truth pattern of the formulas that some finite trace over the
    given names realises at its first position.

    The truth vector of all subformulas at a position depends only on that
    position's valuation and the vector at the next one, so the realisable
    vectors are the least set closed under prepending a valuation to a
    realisable suffix; this is exact, with no bound on trace length.
    """
    names = sorted(names)
    subs = subformulas(formulas)
    index = {g: i for i, g in enumerate(subs)}
    valuations = [
        frozenset(n for k, n in enumerate(names) if mask >> k & 1)
        for mask in range(1 << len(names))
    ]
    frontier = {_step(subs, index, v, None) for v in valuations}
    seen = set(frontier)
    while frontier:
        grown = {_step(subs, index, v, s) for s in frontier for v in valuations}
        frontier = grown - seen
        seen |= frontier
    return frozenset(tuple(vec[index[f]] for f in formulas) for vec in seen)


def names_of(f: tuple) -> frozenset:
    if f[0] == "p":
        return frozenset((f[1],))
    if f[0] in ("true", "false"):
        return frozenset()
    if f[0] == "P":
        return names_of(f[3])
    return frozenset().union(*(names_of(g) for g in f[1:]))


def tree_holds(f: tuple, node: dict) -> bool:
    """Truth at the root of a tree in the engine's JSON shape: ``valuation``
    (names), ``probability`` (``"n/d"``, None at the root) and
    ``children``.  Raises ValueError when the tree is malformed."""
    _check_shape(node, True)
    memo = {}

    def truth(g, n):
        key = (g, id(n))
        if key in memo:
            return memo[key]
        op, kids = g[0], n["children"]
        if op == "true":
            t = True
        elif op == "false":
            t = False
        elif op == "p":
            t = g[1] in n["valuation"]
        elif op == "!":
            t = not truth(g[1], n)
        elif op == "&":
            t = all(truth(h, n) for h in g[1:])
        elif op == "|":
            t = any(truth(h, n) for h in g[1:])
        elif op == "->":
            t = not truth(g[1], n) or truth(g[2], n)
        elif op == "X":
            t = bool(kids) and all(truth(g[1], c) for c in kids)
        elif op == "U":
            t = truth(g[2], n) or (
                truth(g[1], n) and bool(kids) and all(truth(g, c) for c in kids)
            )
        elif op == "F":
            t = truth(("U", ("true",), g[1]), n)
        elif op == "G":
            t = not truth(("F", ("!", g[1])), n)
        elif op == "P":
            mass = sum(
                (Fraction(c["probability"]) for c in kids if truth(g[3], c)),
                start=Fraction(0),
            )
            t = _CMP[g[1]](mass, g[2])
        else:
            raise ValueError(f"not a formula: {g!r}")
        memo[key] = t
        return t

    return truth(f, node)


def _check_shape(node: dict, is_root: bool) -> None:
    prob = node.get("probability")
    if is_root != (prob is None):
        raise ValueError("only the root may lack a probability")
    if prob is not None and not 0 <= Fraction(prob) <= 1:
        raise ValueError(f"probability {prob} outside [0, 1]")
    kids = node["children"]
    if kids and sum(Fraction(c["probability"]) for c in kids) != 1:
        raise ValueError("children masses do not sum to one")
    for c in kids:
        _check_shape(c, False)


def parse_trace(text: str) -> tuple:
    """``-;a;a,b`` into a tuple of frozensets."""
    return tuple(
        frozenset() if step.strip() == "-" else frozenset(x.strip() for x in step.split(","))
        for step in text.split(";")
    )


def trace_text(trace) -> str:
    return ";".join(",".join(sorted(v)) if v else "-" for v in trace)
