"""Signatures and formulas.

The language is relational: atomic formulas apply a relation symbol to
variables, connectives combine formulas, and three quantifiers bind a
variable over the structure's universe:

    sup x. body     largest value of a real-valued body
    inf x. body     smallest value
    Q x. body       the *set* of all values the body takes, a point of the
                    body space's hyperspace

Concrete syntax (also produced by str()):

    formula := quant | apply | atom
    quant   := ("sup" | "inf" | "Q") IDENT "." formula
    apply   := IDENT "(" formula ("," formula)* ")"
    atom    := IDENT "(" IDENT ("," IDENT)* ")"

A node is typed when built.  Its text and its error bound fold bottom-up
over one walk of the nodes below it.  The parser yields where it reads a
subformula and is sent the node parsed there; one loop drives it on an
explicit stack.  So no depth overflows the stack.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Callable, Generator as Steps, Iterable, Mapping, Sequence, Union

from .connective import Connective
from .errors import EvalError, ParseError, TypeCheckError, ValidationError
from .hyperspace import hyper
from .valuespace import Rational, ValueSpace, frac, tolerance

KEYWORDS = ("sup", "inf", "Q")


@dataclass(frozen=True)
class Relation:
    """A relation symbol: a name, an arity, and the space its values live in."""

    name: str
    arity: int
    space: ValueSpace

    def __post_init__(self):
        if type(self.arity) is not int:  # a bool is refused too
            raise ValidationError(f"arity of {self.name!r} must be an integer")
        if self.arity < 1:
            raise ValidationError(f"relation {self.name} needs arity >= 1")
        _check_name(self.name)
        if not isinstance(self.space, ValueSpace):
            raise ValidationError(f"space of {self.name!r} must be a ValueSpace, "
                                  f"got {type(self.space).__name__}")

    @classmethod
    def _unchecked(cls, name: str, arity: int, space: ValueSpace) -> Relation:
        """A relation built unchecked: its name and arity are known valid."""
        rel = object.__new__(cls)
        vars(rel).update(name=name, arity=arity, space=space)
        return rel


def _check_name(name) -> None:
    """Refuse a relation name that is not an identifier or is a keyword."""
    if not isinstance(name, str) or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise ValidationError(f"relation name {name!r} is not an identifier")
    if name in KEYWORDS:
        raise ValidationError(f"relation name {name!r} is a reserved keyword")


@dataclass(frozen=True, eq=True)
class Signature:
    """Relation symbols, optionally one of them designated as a distance.

    When a distance symbol is present, every other symbol carries a modulus:
    the Lipschitz constant it is promised to respect with respect to the
    distance.  The moduli map exists exactly when the distance does.
    """

    relations: tuple[Relation, ...]
    distance_symbol: str | None = None
    moduli: tuple[tuple[str, Fraction], ...] = ()

    def __post_init__(self):
        if not all(map(isinstance, self.relations, repeat(Relation))):  # no bytecode per entry
            bad = next(r for r in self.relations if not isinstance(r, Relation))
            raise ValidationError(f"signature entry {bad!r} is not a Relation")
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate relation names in signature")
        if self.distance_symbol is not None:
            # a name that is not a string, such as a JSON list, names no relation
            d = isinstance(self.distance_symbol, str) and self.by_name.get(self.distance_symbol)
            if not d:
                raise ValidationError(f"distance symbol {self.distance_symbol!r} is not a relation")
            if d.arity != 2 or not d.space.real_valued:
                raise ValidationError("the distance symbol must be binary and real-valued")
            expected = {n for n in names if n != self.distance_symbol}
            got = {n for n, _ in self.moduli}
            if got != expected:
                raise ValidationError(
                    f"moduli must cover exactly the non-distance symbols; "
                    f"missing {sorted(expected - got)}, extra {sorted(got - expected)}"
                )
            for _, m in self.moduli:
                if m < 0:
                    raise ValidationError("moduli must be nonnegative")
        elif self.moduli:
            raise ValidationError("moduli are only meaningful with a distance symbol")

    @cached_property
    def by_name(self) -> dict[str, Relation]:
        return {r.name: r for r in self.relations}

    @cached_property
    def moduli_map(self) -> dict[str, Fraction]:
        return dict(self.moduli)

    def modulus(self, name: str) -> Fraction:
        return self.moduli_map[name]


def signature(relations: Sequence[Relation], distance_symbol: str | None = None,
              moduli: Mapping[str, Rational] | None = None) -> Signature:
    """Convenience constructor normalizing the moduli mapping."""
    if moduli is not None and not isinstance(moduli, Mapping):
        raise ValidationError(f"moduli must be a mapping of symbols to constants, "
                              f"got {type(moduli).__name__}")
    if not isinstance(relations, Iterable):
        raise ValidationError(f"relations must be a sequence of Relations, "
                              f"got {type(relations).__name__}")
    pairs = tuple(sorted((k, frac(v)) for k, v in (moduli or {}).items()))
    return Signature(tuple(relations), distance_symbol, pairs)


class QuantKind(enum.Enum):
    SUP = "sup"
    INF = "inf"
    SET = "Q"

    @property
    def keyword(self) -> str:
        return self.value


_EXTREMA = (QuantKind.SUP, QuantKind.INF)


def _postorder(roots: Sequence[Formula]) -> list[Formula]:
    """Every node under the roots once, children first and the leftmost
    subtree first, without recursion.  A node with no `children` is a leaf,
    listed when reached.  The one walk of a formula DAG: `str()`,
    `error_bound` and `semantics.tabulate` all take their nodes from it."""
    order: list[Formula] = []
    seen: set[Formula] = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        # each entry is a node and the iterator over its children not yet walked
        stack = [(root, iter(root.children))]
        while stack:
            node, kids = stack[-1]
            for child in kids:
                if child not in seen:
                    seen.add(child)
                    grandchildren = child.children
                    if grandchildren:
                        stack.append((child, iter(grandchildren)))
                        break
                    order.append(child)
            else:
                stack.pop()
                order.append(node)
    return order


class Formula:
    """Base class; concrete nodes are Atomic, Apply, Quant and CauchyLimit.

    Each concrete node has `children`, its direct subformulas in order, and
    is typed when built, from children typed already: its value space and
    free variables are filled then, and an ill-typed node, or one of no
    known kind, is refused.  `str()` and `error_bound` fold bottom-up
    (`_fold`), so nothing recurses.
    """

    children: tuple[Formula, ...] = ()

    def __init__(self):  # a node kind with no dataclass constructor
        self.__post_init__()

    def __post_init__(self):
        self.__dict__.update(value_space=self._space(), free_vars=self._free())

    @cached_property
    def error_bound(self) -> Fraction:
        """Worst-case drift of the computed value under net refinement: zero
        whenever every value space in the formula has resolution zero.
        Derived on first read by one walk of the nodes below, and kept on
        this node only."""
        return self._fold("_error_bound")

    def _fold(self, method: str):
        """This node's `method(values)`, each node below it called first in one walk."""
        values: dict[Formula, object] = {}
        for node in _postorder((self,)):
            values[node] = getattr(node, method)(values)
        return values[self]

    def _unknown(self, *_):
        raise EvalError(f"unknown formula node {type(self).__name__}")

    _space = _free = _error_bound = _unknown

    def __str__(self) -> str:
        return self._fold("_render")

    def _render(self, text: Mapping[Formula, str]) -> str:
        """The node's concrete syntax, given its children's in `text`."""
        return repr(self)


@dataclass(frozen=True, eq=False)
class Atomic(Formula):
    symbol: str
    args: tuple[str, ...]
    space: ValueSpace

    def _space(self) -> ValueSpace:
        if type(self.symbol) is not str:
            raise ValidationError(f"atomic symbol must be a string, got {type(self.symbol).__name__}")
        if type(self.args) is not tuple or not all(map(isinstance, self.args, repeat(str))):
            raise ValidationError(f"arguments of {self.symbol} must be a tuple of variable "
                                  f"names, got {self.args!r}")
        if not isinstance(self.space, ValueSpace):
            raise ValidationError(f"space of {self.symbol} must be a ValueSpace, "
                                  f"got {type(self.space).__name__}")
        return self.space

    def _free(self) -> frozenset[str]:
        return frozenset(self.args)

    def _error_bound(self, bounds: Mapping[Formula, Fraction]) -> Fraction:
        return self.space.resolution

    def _render(self, text: Mapping[Formula, str]) -> str:
        return f"{self.symbol}({', '.join(self.args)})"


@dataclass(frozen=True, eq=False)
class Apply(Formula):
    conn: Connective
    children: tuple[Formula, ...]

    def _space(self) -> ValueSpace:
        if not isinstance(self.conn, Connective):
            raise ValidationError(f"an Apply needs a Connective, got {type(self.conn).__name__}")
        if type(self.children) is not tuple:
            raise ValidationError(f"children of {self.conn.name} must be a tuple of formulas, "
                                  f"got {type(self.children).__name__}")
        if not all(map(isinstance, self.children, repeat(Formula))):
            bad = next(c for c in self.children if not isinstance(c, Formula))
            raise ValidationError(f"child of {self.conn.name} must be a Formula, "
                                  f"got {type(bad).__name__}")
        if len(self.children) != self.conn.arity:
            raise TypeCheckError(
                f"{self.conn.name} expects {self.conn.arity} arguments, "
                f"got {len(self.children)}"
            )
        for i, (child, want) in enumerate(zip(self.children, self.conn.domain)):
            got = child.value_space
            if got is not want and got != want:
                raise TypeCheckError(
                    f"argument {i} of {self.conn.name} has value space {got.label} "
                    f"(dim {got.dimension}), expected {want.label} (dim {want.dimension})"
                )
        return self.conn.codomain

    def _free(self) -> frozenset[str]:
        return frozenset().union(*[c.free_vars for c in self.children])

    def _error_bound(self, bounds: Mapping[Formula, Fraction]) -> Fraction:
        total = sum([bounds[c] for c in self.children], start=Fraction(0))
        return self.conn.lipschitz * total + self.conn.codomain.resolution

    def _render(self, text: Mapping[Formula, str]) -> str:
        return f"{self.conn.name}({', '.join([text[c] for c in self.children])})"


@dataclass(frozen=True, eq=False)
class Quant(Formula):
    kind: QuantKind
    var: str
    body: Formula
    children: tuple[Formula, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "children", (self.body,))
        super().__post_init__()

    def _space(self) -> ValueSpace:
        if type(self.var) is not str:
            raise ValidationError(f"quantifier variable must be a string, "
                                  f"got {type(self.var).__name__}")
        if not isinstance(self.body, Formula):
            raise ValidationError(f"quantifier body must be a Formula, "
                                  f"got {type(self.body).__name__}")
        inner = self.body.value_space
        if self.kind is QuantKind.SET:
            return hyper(inner)
        if self.kind not in _EXTREMA:  # by identity first, so a member costs no call
            raise ValidationError(f"quantifier kind {self.kind!r} is not a QuantKind")
        if not inner.real_valued:
            raise TypeCheckError(
                f"{self.kind.keyword} needs a real-valued body, got {inner.label}"
            )
        return inner

    def _free(self) -> frozenset[str]:
        return self.body.free_vars - {self.var}

    def _error_bound(self, bounds: Mapping[Formula, Fraction]) -> Fraction:
        if self.kind is QuantKind.SET:
            return bounds[self.body] + self.body.value_space.resolution
        return bounds[self.body]

    def _render(self, text: Mapping[Formula, str]) -> str:
        return f"{self.kind.keyword} {self.var}. {text[self.body]}"


@dataclass(frozen=True, eq=False)
class CauchyLimit(Formula):
    """Marker for a truncated uniformly Cauchy sequence of formulas.

    Evaluates as its body (the chosen truncation); records the index it was
    cut at, the declared rate there, and the tolerance that was requested.
    """

    body: Formula
    index: int
    rate_at_index: Fraction
    tol: Fraction
    children: tuple[Formula, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "children", (self.body,))
        super().__post_init__()

    def _space(self) -> ValueSpace:
        return self.body.value_space

    def _free(self) -> frozenset[str]:
        return self.body.free_vars

    def _error_bound(self, bounds: Mapping[Formula, Fraction]) -> Fraction:
        return bounds[self.body]

    def _render(self, text: Mapping[Formula, str]) -> str:
        return text[self.body]


def atom(sig: Signature, name: str, *variables: str) -> Atomic:
    """Atomic formula over a signature, with arity checked."""
    if not isinstance(sig, Signature):
        raise ValidationError(f"signature must be a Signature, got {type(sig).__name__}")
    rel = sig.by_name.get(name)
    if rel is None:
        raise TypeCheckError(f"unknown relation {name!r}")
    if len(variables) != rel.arity:
        raise TypeCheckError(f"{name} has arity {rel.arity}, got {len(variables)} variables")
    return Atomic(name, tuple(variables), rel.space)


RateLike = Union[Callable[[int], Fraction], Sequence[Rational], Mapping[int, Rational]]


def cauchy_limit(rate: RateLike, formulas: Sequence[Formula], tol: Rational) -> CauchyLimit:
    """Truncate a uniformly Cauchy sequence of formulas at certified accuracy.

    rate(n) bounds the distance from the n-th formula to the limit and must be
    nonincreasing.  Picks the least N with rate(N) <= tol and wraps formulas[N]
    in a marker carrying the certificate.  Fails if no such N exists within
    the provided list.
    """
    tol = tolerance(tol)
    if not formulas:
        raise ValidationError("cauchy_limit needs at least one formula")
    if not all(map(isinstance, formulas, repeat(Formula))):
        bad = next(phi for phi in formulas if not isinstance(phi, Formula))
        raise ValidationError(f"cauchy_limit needs formulas, got {type(bad).__name__}")

    if callable(rate):
        rate_fn = lambda n: frac(rate(n))  # noqa: E731
    elif isinstance(rate, Mapping):
        def rate_fn(n):
            if n not in rate:
                raise ValidationError(f"rate has no value at {n}")
            return frac(rate[n])
    else:
        seq = [frac(r) for r in rate]
        if len(seq) < len(formulas):
            raise ValidationError("rate sequence shorter than the formula list")
        rate_fn = lambda n: seq[n]  # noqa: E731

    if not all(phi.value_space.real_valued for phi in formulas):
        raise TypeCheckError("cauchy_limit needs real-valued formulas")

    prev = None
    for n in range(len(formulas)):
        r = rate_fn(n)
        if r < 0:
            raise ValidationError(f"rate({n}) = {r} is negative")
        if prev is not None and r > prev:
            raise ValidationError(f"rate is not nonincreasing at {n}: {prev} then {r}")
        if r <= tol:
            return CauchyLimit(formulas[n], n, r, tol)
        prev = r
    raise ValidationError(
        f"rate never reaches tolerance {tol} within the {len(formulas)} provided formulas"
    )


# ---------------------------------------------------------------------------
# Parsing

_TOKEN = re.compile(r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[(),.]))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at, text)
        if m.group("ident"):
            out.append(("ident", m.group("ident"), m.start("ident")))
        else:
            out.append((m.group("punct"), m.group("punct"), m.start("punct")))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, sig: Signature, library: Mapping[str, Connective]):
        self.text = text
        self.sig = sig
        self.library = dict(library)
        overlap = set(self.library) & set(sig.by_name)
        if overlap:
            raise ValidationError(
                f"names defined as both relation and connective: {sorted(overlap)}"
            )
        for bad in set(self.library) & set(KEYWORDS):
            raise ValidationError(f"connective name {bad!r} is a reserved keyword")
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind: str, what: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {what}", tok[2], self.text)
        self.i += 1
        return tok

    def formula(self) -> Steps[None, Formula, Formula]:
        """The node that starts at the next token; it yields where it reads a
        subformula and is sent that node, parsed by `run`."""
        kind, value, pos = self.peek()
        if kind == "ident" and value in KEYWORDS:
            self.i += 1
            var = self.take("ident", "a variable")[1]
            if var in KEYWORDS:
                raise ParseError(f"{var!r} cannot be used as a variable", pos, self.text)
            self.take(".", "'.'")
            return self._typed(pos, Quant, QuantKind(value), var, (yield))
        if kind == "ident":
            self.i += 1
            self.take("(", "'('")
            if value in self.sig.by_name:
                args = [self.take("ident", "a variable")[1]]
                while self.peek()[0] == ",":
                    self.i += 1
                    args.append(self.take("ident", "a variable")[1])
                self.take(")", "')' or ','")
                return self._typed(pos, atom, self.sig, value, *args)
            if value in self.library:
                children = [(yield)]
                while self.peek()[0] == ",":
                    self.i += 1
                    children.append((yield))
                self.take(")", "')' or ','")
                return self._typed(pos, Apply, self.library[value], tuple(children))
            raise ParseError(f"unknown symbol {value!r}", pos, self.text)
        raise ParseError("expected a formula", pos, self.text)

    def _typed(self, pos: int, build: Callable[..., Formula], *args) -> Formula:
        """The node build(*args), typed as it is built; a TypeCheckError
        becomes a ParseError at the node's position pos."""
        try:
            return build(*args)
        except TypeCheckError as err:
            raise ParseError(str(err), pos, self.text) from None

    def run(self) -> Formula:
        """Parse the whole text in one loop: the top parse on the stack is sent
        the node last finished; when it yields, a new parse is pushed for
        the subformula it reads, and when it returns, its node is finished."""
        stack, node = [self.formula()], None
        while stack:
            try:
                stack[-1].send(node)
            except StopIteration as finished:
                stack.pop()
                node = finished.value
            else:
                stack.append(self.formula())
                node = None
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError("trailing input after formula", tok[2], self.text)
        return node


def parse(text: str, sig: Signature, library: Mapping[str, Connective] | None = None) -> Formula:
    """Parse and typecheck formula text against a signature and connective library."""
    if not isinstance(text, str):
        raise ValidationError(f"formula text must be a string, got {type(text).__name__}")
    if not isinstance(sig, Signature):
        raise ValidationError(f"signature must be a Signature, got {type(sig).__name__}")
    if library is not None and not isinstance(library, Mapping):
        raise ValidationError(f"connective library must be a mapping of names to connectives, "
                              f"got {type(library).__name__}")
    for name, conn in (library or {}).items():
        if not isinstance(conn, Connective):
            raise ValidationError(f"library entry {name!r} is not a Connective")
    return _Parser(text, sig, library or {}).run()
