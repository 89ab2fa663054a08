"""Foot-contact propositions and the guard formulas evaluated over them.

A guard is a propositional formula over the four foot-in-air symbols
FL, FR, BL, BR. Guards label automaton transitions; they carry no
temporal operators (all temporal structure lives in the automaton).

Concrete syntax (whitespace insignificant, precedence NOT > AND > OR):

    expr  := or
    or    := and ("|" and)*
    and   := unary ("&" unary)*
    unary := "!" unary | "(" expr ")" | ident
    ident := "FL" | "FR" | "BL" | "BR"

A literal is one level deep, and each "!", "&", "|" or pair of
parentheses adds a level above what it encloses; the parser rejects a
guard deeper than MAX_GUARD_DEPTH levels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator


class Prop(enum.Enum):
    """One foot-in-air proposition. The value is the foot's bit position."""

    FL = 0
    FR = 1
    BL = 2
    BR = 3


PROP_ORDER = (Prop.FL, Prop.FR, Prop.BL, Prop.BR)

NUM_LABEL_SETS = 16


@dataclass(frozen=True, slots=True)
class LabelSet:
    """A truth assignment over the four propositions, packed into 4 bits.

    Bit i of ``code`` is set iff PROP_ORDER[i] is true (that foot is in
    the air). There are exactly 16 distinct values.
    """

    code: int

    def __post_init__(self) -> None:
        if not 0 <= self.code < NUM_LABEL_SETS:
            raise ValueError(f"label code must be in [0, 16), got {self.code}")

    @classmethod
    def of(cls, *props: Prop) -> "LabelSet":
        code = 0
        for p in props:
            code |= 1 << p.value
        return ALL_LABEL_SETS[code]

    def __contains__(self, prop: Prop) -> bool:
        return bool(self.code >> prop.value & 1)

    def __iter__(self) -> Iterator[Prop]:
        return (p for p in PROP_ORDER if p in self)

    def bits(self) -> tuple[int, int, int, int]:
        """Per-foot membership flags in (FL, FR, BL, BR) order."""
        return _BITS[self.code]

    def __len__(self) -> int:
        return self.code.bit_count()

    def __str__(self) -> str:
        members = ",".join(p.name for p in self)
        return "{" + members + "}"


ALL_LABEL_SETS = tuple(
    object.__new__(LabelSet) for _ in range(NUM_LABEL_SETS)
)
for _code, _ls in enumerate(ALL_LABEL_SETS):
    object.__setattr__(_ls, "code", _code)
del _code, _ls

EMPTY_LABEL_SET = ALL_LABEL_SETS[0]

_BITS = tuple(
    tuple(code >> i & 1 for i in range(4)) for code in range(NUM_LABEL_SETS)
)


class Guard:
    """Base class for guard formula AST nodes. Nodes are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return render_guard(self)


@dataclass(frozen=True, slots=True)
class Lit(Guard):
    prop: Prop


@dataclass(frozen=True, slots=True)
class Not(Guard):
    operand: Guard


@dataclass(frozen=True, slots=True)
class And(Guard):
    left: Guard
    right: Guard


@dataclass(frozen=True, slots=True)
class Or(Guard):
    left: Guard
    right: Guard


def eval_guard(guard: Guard, labels: LabelSet) -> bool:
    """Evaluate ``guard`` under standard propositional semantics.

    A literal is true iff its proposition is a member of ``labels``.
    """
    if type(guard) is Lit:
        return guard.prop in labels
    if type(guard) is Not:
        return not eval_guard(guard.operand, labels)
    if type(guard) is And:
        return eval_guard(guard.left, labels) and eval_guard(guard.right, labels)
    if type(guard) is Or:
        return eval_guard(guard.left, labels) or eval_guard(guard.right, labels)
    raise TypeError(f"not a guard node: {guard!r}")


def truth_table(guard: Guard) -> int:
    """16-bit mask with bit c set iff the guard holds for label code c."""
    mask = 0
    for labels in ALL_LABEL_SETS:
        if eval_guard(guard, labels):
            mask |= 1 << labels.code
    return mask


# Rendering. Parentheses are inserted only where a child binds looser
# than its parent, so output stays minimal and re-parses to an
# equivalent formula.

_PRECEDENCE = {Or: 1, And: 2, Not: 3, Lit: 4}


def render_guard(guard: Guard) -> str:
    return _render(guard)


def _render(guard: Guard) -> str:
    if type(guard) is Lit:
        return guard.prop.name
    if type(guard) is Not:
        return "!" + _render_child(guard.operand, _PRECEDENCE[Not])
    if type(guard) is And:
        return (
            _render_child(guard.left, _PRECEDENCE[And])
            + " & "
            + _render_child(guard.right, _PRECEDENCE[And])
        )
    if type(guard) is Or:
        return (
            _render_child(guard.left, _PRECEDENCE[Or])
            + " | "
            + _render_child(guard.right, _PRECEDENCE[Or])
        )
    raise TypeError(f"not a guard node: {guard!r}")


def _render_child(child: Guard, parent_prec: int) -> str:
    text = _render(child)
    if _PRECEDENCE[type(child)] < parent_prec:
        return "(" + text + ")"
    return text


class GuardSyntaxError(ValueError):
    """Malformed guard expression; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownPropositionError(GuardSyntaxError):
    """An identifier that is not one of FL, FR, BL, BR."""


# Every recursive walk of an accepted guard (parse, eval, render, hash)
# stays well inside Python's default recursion limit of 1000 frames.
MAX_GUARD_DEPTH = 100

_TokenKind = str  # "ident" | "!" | "&" | "|" | "(" | ")" | "end"


def _tokenize(text: str) -> list[tuple[_TokenKind, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "!&|()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise GuardSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent; each parse method returns a node and its depth."""

    def __init__(self, tokens: list[tuple[_TokenKind, str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.open = 0  # "!" and "(" levels enclosing the current token

    def peek(self) -> tuple[_TokenKind, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[_TokenKind, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    @staticmethod
    def bounded(depth: int, pos: int) -> int:
        if depth > MAX_GUARD_DEPTH:
            raise GuardSyntaxError(
                f"guard nested deeper than {MAX_GUARD_DEPTH} levels", pos
            )
        return depth

    def parse_expr(self) -> tuple[Guard, int]:
        node, depth = self.parse_and()
        while self.peek()[0] == "|":
            pos = self.advance()[2]
            right, right_depth = self.parse_and()
            node, depth = Or(node, right), self.bounded(max(depth, right_depth) + 1, pos)
        return node, depth

    def parse_and(self) -> tuple[Guard, int]:
        node, depth = self.parse_unary()
        while self.peek()[0] == "&":
            pos = self.advance()[2]
            right, right_depth = self.parse_unary()
            node, depth = And(node, right), self.bounded(max(depth, right_depth) + 1, pos)
        return node, depth

    def parse_unary(self) -> tuple[Guard, int]:
        kind, value, pos = self.peek()
        if kind in ("!", "("):
            # Refuse before recursing: what this level encloses is at
            # least one level deep.
            self.open += 1
            self.bounded(self.open + 1, pos)
            self.advance()
            if kind == "!":
                operand, depth = self.parse_unary()
                node: Guard = Not(operand)
            else:
                node, depth = self.parse_expr()
                kind, _, close = self.peek()
                if kind != ")":
                    raise GuardSyntaxError("expected ')'", close)
                self.advance()
            self.open -= 1
            return node, self.bounded(depth + 1, pos)
        if kind == "ident":
            self.advance()
            try:
                prop = Prop[value]
            except KeyError:
                raise UnknownPropositionError(
                    f"unknown proposition {value!r}; expected one of FL, FR, BL, BR",
                    pos,
                ) from None
            return Lit(prop), 1
        raise GuardSyntaxError(
            f"expected a proposition, '!' or '(', found {value or 'end of input'!r}",
            pos,
        )


def parse_guard(text: str) -> Guard:
    """Parse a guard expression; raises GuardSyntaxError on bad input."""
    if not text.strip():
        raise GuardSyntaxError("empty guard expression", 0)
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_expr()
    kind, value, pos = parser.peek()
    if kind != "end":
        raise GuardSyntaxError(f"unexpected {value!r} after expression", pos)
    return node


def conjunction_for(pose: LabelSet) -> Guard:
    """The guard satisfied by exactly ``pose``: a conjunction asserting
    each foot's membership, in (FL, FR, BL, BR) order."""
    node: Guard | None = None
    for prop in PROP_ORDER:
        term: Guard = Lit(prop) if prop in pose else Not(Lit(prop))
        node = term if node is None else And(node, term)
    assert node is not None
    return node
