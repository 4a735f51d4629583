"""Syntax of probabilistic linear temporal formulas over finite traces.

Surface connectives: ``true``, ``false``, propositions, ``!``, ``&``, ``|``,
``->``, ``X``, ``F``, ``G``, ``U`` and the probability bound
``P<cmp><number>[phi]``.  :func:`normalize` rewrites a surface formula into
the core fragment (constants, propositions, negation, n-ary conjunction,
``X``, ``U``, ``P``) that the closure and automaton constructions expect.

:func:`children` is the one place that knows which subformulas a node has,
and :func:`subformulas` walks a tree through it without recursion; size,
depth, propositions, bound occurrence, core-fragment membership and the
closure are read off that walk, so they accept a tree of any depth.
How tightly each binary connective binds is written once, in the table
``_BINARY``: the parser reads its connectives from it, and the printer
its precedences and separators.

A bound ``P <cmp> <number>`` is read by one parser method, with its
position and its range check, both inside a formula and at the head of a
constraint line ``P<cmp><number> : <formula>``, which
:func:`parse_constraint` reads for the ``.p0`` format.  Numbers are
written in ASCII digits.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, is_
from typing import Iterator, NamedTuple, Union

Valuation = frozenset
Trace = tuple


class Comparison(enum.Enum):
    """Comparison of a probability bound or of a linear row.

    ``EQ`` appears only in linear rows: a bound's negation must be a bound
    again, and ``=`` has no inverse comparison.
    """

    LE = "<="
    GE = ">="
    LT = "<"
    GT = ">"
    EQ = "="

    @property
    def inverse(self) -> "Comparison":
        """Comparison expressing the negation of ``P <cmp> p``."""
        return _INVERSE[self]

    @property
    def strict(self) -> bool:
        return self in (Comparison.LT, Comparison.GT)

    @property
    def relaxed(self) -> "Comparison":
        """The non-strict closure: ``<`` becomes ``<=``, ``>`` becomes ``>=``."""
        return _RELAXED.get(self, self)

    def holds(self, lhs: Fraction, rhs: Fraction) -> bool:
        if self is Comparison.LE:
            return lhs <= rhs
        if self is Comparison.GE:
            return lhs >= rhs
        if self is Comparison.LT:
            return lhs < rhs
        if self is Comparison.GT:
            return lhs > rhs
        return lhs == rhs


_INVERSE = {
    Comparison.LE: Comparison.GT,
    Comparison.GT: Comparison.LE,
    Comparison.GE: Comparison.LT,
    Comparison.LT: Comparison.GE,
}
_RELAXED = {Comparison.LT: Comparison.LE, Comparison.GT: Comparison.GE}


class Formula:
    """Base class for formula nodes.  All nodes are immutable.  A node
    stores its structural hash when it is built, and equality is
    structural."""

    __slots__ = ()
    __hash__ = object.__hash__  # defining __eq__ would unset it

    def __post_init__(self):
        # the hash of the node type and its fields, whose nodes hold their
        # own already: building a node hashes it once, and no hash walks
        # a subtree, so a tree of any depth hashes
        self.__dict__["_hash"] = hash((self.__class__, self._fields(self)))

    def __reduce__(self):
        # rebuilt by its constructor: a string's hash differs between
        # processes, so an unpickled node must not keep the hash it stored
        return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        # over an explicit stack of node pairs, so trees of any depth
        # compare; a pair of one node twice is equal at once, and a pair
        # with different stored hashes differs at once
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            names = _FIELDS.get(a.__class__)
            if names is None or b.__class__ is not a.__class__:
                if isinstance(a, Formula) or a != b:
                    return False
                continue
            if a._hash != b._hash:
                return False
            for name in names:
                x, y = getattr(a, name), getattr(b, name)
                if type(x) is tuple and type(y) is tuple:
                    if len(x) != len(y):
                        return False
                    stack += zip(x, y)
                else:
                    stack.append((x, y))
        return True

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)

    def __str__(self) -> str:
        return formula_text(self)

    def __repr__(self) -> str:
        # a node type the library does not know has no text, and the error
        # that says so names the node through this repr
        name = type(self).__name__
        if not isinstance(self, _NODES):
            return f"<{name}>"
        try:
            return f"<{name} {formula_text(self)}>"
        except TypeError:
            return f"<{name}>"


def _stored_hash(node: Formula) -> int:
    return node._hash


def _node(cls):
    """A node type: a frozen dataclass whose hash is the one it stored
    when built.  Its equality is Formula's, so none is generated."""
    cls = dataclass(frozen=True, repr=False, eq=False)(cls)
    cls.__hash__ = _stored_hash
    names = cls.__match_args__
    cls._fields = staticmethod(attrgetter(*names) if names else lambda node: ())
    return cls


@_node
class TrueConst(Formula):
    pass


@_node
class FalseConst(Formula):
    pass


TRUE = TrueConst()
FALSE = FalseConst()

# Reserved words of the grammar; propositions may not shadow them.
KEYWORDS = frozenset({"true", "false", "X", "F", "G", "U", "P"})

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def is_proposition_name(name: str) -> bool:
    return bool(_IDENT_RE.match(name)) and name not in KEYWORDS


@_node
class Prop(Formula):
    name: str

    def __post_init__(self):
        if not is_proposition_name(self.name):
            raise ValueError(f"invalid proposition name {self.name!r}")
        super().__post_init__()


@_node
class Not(Formula):
    operand: Formula


@_node
class And(Formula):
    operands: tuple

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("conjunction needs at least two operands")
        super().__post_init__()


@_node
class Or(Formula):
    operands: tuple

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ValueError("disjunction needs at least two operands")
        super().__post_init__()


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Next(Formula):
    operand: Formula


@_node
class Eventually(Formula):
    operand: Formula


@_node
class Always(Formula):
    operand: Formula


@_node
class Until(Formula):
    left: Formula
    right: Formula


@_node
class Prob(Formula):
    """Probability bound ``P <cmp> bound [operand]`` on the children of a node."""

    cmp: Comparison
    bound: Fraction
    operand: Formula

    def __post_init__(self):
        if self.cmp is Comparison.EQ:
            raise ValueError("a probability bound cannot use '=': it has no inverse")
        bound = self.bound
        if not isinstance(bound, Fraction):
            bound = Fraction(bound)
            object.__setattr__(self, "bound", bound)
        if not 0 <= bound <= 1:
            raise ValueError(f"probability bound {bound} outside [0, 1]")
        super().__post_init__()


def children(f: Formula) -> tuple:
    """Immediate subformulas of a node, left to right."""
    match f:
        case TrueConst() | FalseConst() | Prop():
            return ()
        case Not(x) | Next(x) | Eventually(x) | Always(x) | Prob(_, _, x):
            return (x,)
        case And(ops) | Or(ops):
            return ops
        case Implies(l, r) | Until(l, r):
            return (l, r)
    raise TypeError(f"not a formula: {f!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every node of the tree of ``f`` in pre-order, ``f`` first; a node is
    yielded before its children are read.  Iterative, so any depth walks."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack += reversed(children(g))


# Prefix operators: the parser reads and the printer spells them here.
_UNARY = {"!": Not, "X": Next, "F": Eventually, "G": Always}
_SPELLING = {node: op for op, node in _UNARY.items()}

# Binary connectives, loosest first: (token, node, right-nested).  A
# right-nested connective has two operands and groups to the right; the
# others collect any number into one node.  The parser reads them here,
# and the printer reads each one's precedence (its place, counted from 1)
# and separator.  Prefix operators bind tighter than all of them.
_BINARY = (("->", Implies, True), ("|", Or, False), ("&", And, False), ("U", Until, True))
_P_UNARY = len(_BINARY) + 1
_PRECEDENCE = {
    **{node: level for level, (_, node, _) in enumerate(_BINARY, 1)},
    **dict.fromkeys(_SPELLING, _P_UNARY),
}
_SEPARATOR = {node: f" {token} " for token, node, _ in _BINARY}


def _precedence(f: Formula) -> int:
    return _PRECEDENCE.get(type(f), _P_UNARY + 1)


def _text_pieces(f: Formula) -> list:
    """A non-proposition node's text in order: literal strings, and
    (subformula, least precedence it shows without parentheses) pairs still
    to render."""
    match f:
        case TrueConst():
            return ["true"]
        case FalseConst():
            return ["false"]
        case Not(x) | Next(x) | Eventually(x) | Always(x):
            op = _SPELLING[type(f)]
            # a letter operator is spaced from an operand not in parentheses
            if op.isalpha() and _precedence(x) >= _P_UNARY:
                op += " "
            return [op, (x, _P_UNARY)]
        case Until(l, r) | Implies(l, r):
            # right-nested: only the left operand must bind tighter
            level = _PRECEDENCE[type(f)]
            return [(l, level + 1), _SEPARATOR[type(f)], (r, level)]
        case And(ops) | Or(ops):
            level, sep = _PRECEDENCE[type(f)] + 1, _SEPARATOR[type(f)]
            pieces = []
            for o in ops:
                pieces += [sep, (o, level)]
            return pieces[1:]
        case Prob(cmp, bound, x):
            return [f"P{cmp.value}{bound}[", (x, 0), "]"]
    raise TypeError(f"not a formula: {f!r}")


def formula_text(f: Formula) -> str:
    """Render with minimal parentheses; reparsing yields an equal formula.

    Iterative over an explicit stack of pending pieces, so a formula of
    any depth renders."""
    out = []
    stack = [(f, 0)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        g, minimum = item
        if type(g) is Prop:
            out.append(g.name)
        elif _precedence(g) < minimum:
            stack += [")", (g, 0), "("]
        else:
            stack += reversed(_text_pieces(g))
    return "".join(out)


def size_and_text(formulas) -> list:
    """``(size, formula_text(g))`` for each of the formulas, where the
    size is the node count (the comparison and bound of a P node do not
    add to it), rendering every node once: its text is joined from its
    :func:`_text_pieces` and its children's texts.  The memo is keyed by
    ``id`` within the call, as keying it by node would compare an equal
    but distinct subtree node by node on every lookup that meets it; the
    formulas keep each node alive.  Iterative, so any depth works."""
    memo = {}
    for top in formulas:
        stack = [top]
        while stack:
            g = stack.pop()
            if id(g) in memo:
                continue
            if type(g) is Prop:
                memo[id(g)] = (1, g.name)
                continue
            # a node with children still to render waits under them
            pieces = _text_pieces(g)
            pending = [p[0] for p in pieces if type(p) is tuple and id(p[0]) not in memo]
            if pending:
                stack.append(g)
                stack += pending
                continue
            size, parts = 1, []
            for piece in pieces:
                if type(piece) is str:
                    parts.append(piece)
                    continue
                x, minimum = piece
                count, text = memo[id(x)]
                size += count
                parts.append(f"({text})" if _precedence(x) < minimum else text)
            memo[id(g)] = (size, "".join(parts))
    return [memo[id(g)] for g in formulas]


def negate(f: Formula) -> Formula:
    """Negation of a normalized formula, kept in normal form.

    Never stacks two negations and never wraps a probability bound or a
    constant in one; bounds flip their comparison instead.
    """
    match f:
        case TrueConst():
            return FALSE
        case FalseConst():
            return TRUE
        case Not(x):
            return x
        case Prob(cmp, bound, x):
            return Prob(cmp.inverse, bound, x)
        case _:
            return Not(f)


def conj(*parts: Formula) -> Formula:
    """Flattened conjunction of already-normalized formulas."""
    flat = []
    for p in parts:
        if isinstance(p, And):
            flat.extend(p.operands)
        else:
            flat.append(p)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


# Deepest formula tree, before and after normalisation, that normalize
# accepts.  Normalising and trace evaluation recurse up to three frames
# per level, so at this depth they still leave callers over 100 of the
# interpreter's default 1000.  Hashing reads stored hashes, and comparing,
# the walks over subformulas and printing are iterative.  A parsed formula
# within MAX_NESTING can still go deeper when connectives alternate
# without parentheses, as in
# ``a & (b | a & (b | ...))``.
MAX_DEPTH = 250


def check_depth(f: Formula) -> None:
    """Raise ValueError when the tree of ``f`` is deeper than
    :data:`MAX_DEPTH`.  Walks one level of the tree at a time, so any depth
    is safe to check; a non-formula node is left for the caller to reject."""
    level = [f]
    for _ in range(MAX_DEPTH):
        level = [x for g in level if isinstance(g, Formula) for x in children(g)]
        if not level:
            return
    raise ValueError(f"formula tree deeper than {MAX_DEPTH} levels")


def normalize(f: Formula) -> Formula:
    """Rewrite into the core fragment.  Idempotent.

    F x becomes true U x, G x becomes !(true U !x), disjunction and
    implication are pushed into conjunction and negation, and negations are
    reduced so that they never wrap another negation, a constant or a
    probability bound.  Raises ValueError when the formula or its normal
    form is deeper than :data:`MAX_DEPTH`.
    """
    check_depth(f)
    g = _normalize(f)
    check_depth(g)
    return g


def _normalize(f: Formula) -> Formula:
    # a core node that would be rebuilt from the same children as they
    # are is returned itself
    match f:
        case TrueConst() | FalseConst() | Prop():
            return f
        case Not(x):
            y = _normalize(x)
            return f if y is x and isinstance(x, (Prop, And, Next, Until)) else negate(y)
        case And(ops):
            parts = [_normalize(o) for o in ops]
            same = all(map(is_, parts, ops)) and not any(isinstance(p, And) for p in parts)
            return f if same else conj(*parts)
        case Or(ops):
            return negate(conj(*(negate(_normalize(o)) for o in ops)))
        case Implies(l, r):
            return negate(conj(_normalize(l), negate(_normalize(r))))
        case Next(x):
            y = _normalize(x)
            return f if y is x else Next(y)
        case Eventually(x):
            return Until(TRUE, _normalize(x))
        case Always(x):
            return negate(Until(TRUE, negate(_normalize(x))))
        case Until(l, r):
            a, b = _normalize(l), _normalize(r)
            return f if a is l and b is r else Until(a, b)
        case Prob(cmp, bound, x):
            y = _normalize(x)
            return f if y is x else Prob(cmp, bound, y)
    raise TypeError(f"not a formula: {f!r}")


# Every node type.
_NODES = (TrueConst, FalseConst, Prop, Not, And, Next, Until, Prob, Or, Implies, Eventually, Always)
# The fields Formula.__eq__ compares, per node type.
_FIELDS = {node: node.__match_args__ for node in _NODES}


def vars_of(f: Formula) -> frozenset:
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Prop))


def has_prob(f: Formula) -> bool:
    return any(isinstance(g, Prob) for g in subformulas(f))


def eval_trace(f: Formula, trace: Trace, pos: int = 0) -> bool:
    """Classical finite-trace truth of a probability-free formula.

    Until reduces to its right argument on the last step; X is false there.
    Raises ValueError when the tree of ``f`` is deeper than :data:`MAX_DEPTH`.
    """
    if not trace:
        raise ValueError("trace must be nonempty")
    if not 0 <= pos < len(trace):
        raise ValueError(f"position {pos} outside trace of length {len(trace)}")
    check_depth(f)
    return _eval(f, trace, pos)


def _eval(f: Formula, trace: Trace, pos: int) -> bool:
    match f:
        case TrueConst():
            return True
        case FalseConst():
            return False
        case Prop(name):
            return name in trace[pos]
        case Not(x):
            return not _eval(x, trace, pos)
        case And(ops):
            return all(_eval(o, trace, pos) for o in ops)
        case Or(ops):
            return any(_eval(o, trace, pos) for o in ops)
        case Implies(l, r):
            return not _eval(l, trace, pos) or _eval(r, trace, pos)
        case Next(x):
            return pos + 1 < len(trace) and _eval(x, trace, pos + 1)
        case Eventually(x):
            return any(_eval(x, trace, i) for i in range(pos, len(trace)))
        case Always(x):
            return all(_eval(x, trace, i) for i in range(pos, len(trace)))
        case Until(l, r):
            for i in range(pos, len(trace)):
                if _eval(r, trace, i):
                    return True
                if not _eval(l, trace, i):
                    return False
            return False
        case Prob():
            raise ValueError(
                f"cannot evaluate probabilistic operator on a trace: {formula_text(f)}"
            )
    raise TypeError(f"not a formula: {f!r}")


class ParseError(ValueError):
    """Syntax error with a 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<arrow>->)
      | (?P<cmp><=|>=|<|>)
      | (?P<number>[0-9]+(?:\.[0-9]+)?(?:/[0-9]+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[()\[\]!&|:])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list:
    """The tokens of ``text`` with their line and column, then an "end"
    token.  Only whitespace holds newlines, so only it moves the line."""
    tokens = []
    line, start = 1, 0  # the current line and the index it starts at
    i = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != i:
            break
        i = m.end()
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), line, m.start() - start + 1))
        elif "\n" in (chunk := m.group()):
            line += chunk.count("\n")
            start = m.start() + chunk.rfind("\n") + 1
    if i < len(text):
        raise ParseError(f"unexpected character {text[i]!r}", line, i - start + 1)
    tokens.append(_Token("end", "", line, i - start + 1))
    return tokens


_NUMBER_RE = re.compile(r"[0-9]*\.[0-9]+|[0-9]+(?:/[0-9]+)?")


def parse_number(text: str) -> Fraction:
    """Exact rational from an ASCII literal ``digits[.digits]``,
    ``.digits`` or ``digits/digits``.  Any other text, signs, exponents,
    underscores and blanks included, or a zero denominator is a ValueError
    that names the literal."""
    if not text.isascii():
        raise ValueError(f"non-ASCII character in number {text!r}")
    if not _NUMBER_RE.fullmatch(text):
        raise ValueError(f"malformed number {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text}") from None


# Deepest subformula nesting the parser accepts.  Normalisation recurses
# at least once per level, and a bracketed level costs the parser eight
# frames, so at this depth every shape still leaves callers over 150 of
# the interpreter's default 1000.
MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = iter(_tokenize(text))
        self.current = next(self.tokens)
        self.depth = 0

    def error(self, message: str):
        tok = self.current
        what = f"{tok.text!r}" if tok.kind != "end" else "end of input"
        raise ParseError(f"{message}, found {what}", tok.line, tok.col)

    def advance(self) -> _Token:
        tok = self.current
        self.current = next(self.tokens)
        return tok

    def expect(self, text: str) -> _Token:
        if self.current.text != text:
            self.error(f"expected {text!r}")
        return self.advance()

    def nested(self, parse, *args) -> Formula:
        """Parse a subformula one nesting level down."""
        if self.depth == MAX_NESTING:
            self.error(f"formula nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        f = parse(*args)
        self.depth -= 1
        return f

    def parse(self) -> Formula:
        f = self.binary()
        if self.current.kind != "end":
            self.error("trailing input")
        return f

    def binary(self, level: int = 0) -> Formula:
        """The connective ``_BINARY[level]`` and all that bind tighter: a
        right-nested one reads its right operand one nesting level down,
        the others collect their operands into one node."""
        token, node, right_nested = _BINARY[level]
        tighter = level + 1 < len(_BINARY)
        parts = [self.binary(level + 1) if tighter else self.unary()]
        while self.current.text == token:
            self.advance()
            if right_nested:
                return node(parts[0], self.nested(self.binary, level))
            parts.append(self.binary(level + 1) if tighter else self.unary())
        return parts[0] if len(parts) == 1 else node(tuple(parts))

    def unary(self) -> Formula:
        node = _UNARY.get(self.current.text)
        if node is None:
            return self.atom()
        self.advance()
        return node(self.nested(self.unary))

    def atom(self) -> Formula:
        tok = self.current
        if tok.text == "(":
            self.advance()
            f = self.nested(self.binary)
            self.expect(")")
            return f
        if tok.text == "true":
            self.advance()
            return TRUE
        if tok.text == "false":
            self.advance()
            return FALSE
        if tok.text == "P":
            return self.probability()
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.advance()
            return Prop(tok.text)
        self.error("expected a formula")

    def bound(self) -> tuple:
        """``P <cmp> <number>``, read by formulas and constraint lines
        alike: the comparison and the exact bound, which must lie in
        [0, 1]."""
        self.expect("P")
        if self.current.kind != "cmp":
            self.error("expected a comparison after P")
        cmp = Comparison(self.advance().text)
        if self.current.kind != "number":
            self.error("expected a probability bound")
        tok = self.advance()
        try:
            bound = parse_number(tok.text)
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.col) from None
        if not 0 <= bound <= 1:
            raise ParseError(f"probability bound {tok.text} outside [0, 1]", tok.line, tok.col)
        return cmp, bound

    def probability(self) -> Formula:
        cmp, bound = self.bound()
        self.expect("[")
        operand = self.nested(self.binary)
        self.expect("]")
        return Prob(cmp, bound, operand)


def parse_formula(text: str) -> Formula:
    """Parse surface syntax.  Raises :class:`ParseError` with a position,
    also for subformulas nested deeper than :data:`MAX_NESTING` levels."""
    return _Parser(text).parse()


def parse_constraint(line: str) -> tuple:
    """Parse one constraint ``P<cmp><number> : <formula>`` to the end of
    ``line`` into ``(cmp, bound, formula)``.  The bound is read as in a
    formula's ``P``; a :class:`ParseError` counts its column from the
    start of ``line``."""
    parser = _Parser(line)
    cmp, bound = parser.bound()
    parser.expect(":")
    return cmp, bound, parser.parse()


def parse_trace(text: str) -> Trace:
    """Parse a trace: steps separated by ';', variables by ',', '-' is empty."""
    steps = []
    for raw in text.split(";"):
        step = raw.strip()
        if not step:
            raise ValueError(f"empty trace step in {text!r}")
        if step == "-":
            steps.append(frozenset())
            continue
        names = []
        for name in step.split(","):
            name = name.strip()
            if not is_proposition_name(name):
                raise ValueError(f"invalid variable name {name!r} in trace step {step!r}")
            names.append(name)
        steps.append(frozenset(names))
    return tuple(steps)


def format_trace(trace: Trace) -> str:
    return ";".join("-" if not step else ",".join(sorted(step)) for step in trace)


def all_valuations(names) -> tuple:
    """Every subset of the given variable names, lexicographically ordered."""
    ordered = sorted(names)
    out = []
    for mask in range(1 << len(ordered)):
        out.append(frozenset(n for i, n in enumerate(ordered) if mask >> i & 1))
    return tuple(sorted(out, key=lambda v: tuple(sorted(v))))
