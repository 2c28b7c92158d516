"""Symbolic expressions over jet variables.

A "jet variable" is the amplitude field R or one of its spatial partial
derivatives (R_x, R_xx, R_xy, ...), treated as an independent coordinate.
Candidate quantum-potential forms Q are expressions in these coordinates,
e.g. ``A2 * lap(R) / R``.  This module provides the expression tree, a small
infix parser for the grammar documented in the README, one evaluator
(:func:`evaluate_exact`, :func:`evaluate`) for exact-rational, float and
array inputs, where each array element gets the bits of the float result at
its point, and the two derivative operations everything downstream needs:

* :func:`partial_wrt_jet` — differentiate treating jet variables as
  independent coordinates,
* :func:`total_derivative` — the total spatial derivative D_axis, which acts
  on jet variables by promoting them (R -> R_x, R_x -> R_xx, ...).

Expressions are immutable; all operations are pure functions.  Quotients are
represented as products with negative-exponent powers so that the canonical
form collapses cancellations such as R^2 * (A/R) -> A * R.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, Union

import numpy as np

AXIS_LETTERS = "xyz"

Number = Union[int, float, Fraction]


class ExprError(Exception):
    """Base class for expression-layer errors."""


class ExprSyntaxError(ExprError):
    """Parse failure; ``offset`` is the byte offset into the UTF-8 input."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EvaluationError(ExprError):
    """Evaluation failure: unbound name or division by zero at a point."""


@dataclass(frozen=True)
class JetVariable:
    """R or a spatial partial derivative of R, identified by its multi-index.

    ``axes`` lists the differentiation axes (0=x, 1=y, 2=z); it is stored
    sorted because partial derivatives commute.  The empty multi-index is R
    itself.
    """

    axes: tuple[int, ...] = ()

    def __post_init__(self):
        if any(a not in (0, 1, 2) for a in self.axes):
            raise ExprError(f"unsupported derivative axis in {self.axes!r}")
        object.__setattr__(self, "axes", tuple(sorted(self.axes)))

    @property
    def order(self) -> int:
        return len(self.axes)

    @property
    def name(self) -> str:
        if not self.axes:
            return "R"
        return "R_" + "".join(AXIS_LETTERS[a] for a in self.axes)

    def promoted(self, axis: int) -> "JetVariable":
        """The jet variable obtained by one more derivative along ``axis``."""
        return JetVariable(self.axes + (axis,))

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class JetPoint:
    """An evaluation point: values for jet variables, numbers or arrays of one shape."""

    values: Mapping[JetVariable, Number]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))


# --------------------------------------------------------------------------
# Expression nodes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """Exact rational constant."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Sym:
    """Named symbolic constant (A0, A2, C, ...) resolved at evaluation."""

    name: str


@dataclass(frozen=True)
class Jet:
    """A jet-variable leaf."""

    var: JetVariable


@dataclass(frozen=True)
class Sum:
    terms: tuple["Expression", ...]


@dataclass(frozen=True)
class Prod:
    factors: tuple["Expression", ...]


@dataclass(frozen=True)
class Pow:
    """Integer power; negative exponents represent quotients."""

    base: "Expression"
    exponent: int


Expression = Union[Const, Sym, Jet, Sum, Prod, Pow]

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def is_zero(e: Expression) -> bool:
    """Structural test for the constant zero."""
    return isinstance(e, Const) and e.value == 0


def _sort_key(e: Expression):
    if isinstance(e, Const):
        return (0, e.value)
    if isinstance(e, Sym):
        return (1, e.name)
    if isinstance(e, Jet):
        return (2, e.var.axes)
    if isinstance(e, Pow):
        return (3, _sort_key(e.base), e.exponent)
    if isinstance(e, Prod):
        return (4, tuple(_sort_key(f) for f in e.factors))
    return (5, tuple(_sort_key(t) for t in e.terms))


# --------------------------------------------------------------------------
# Smart constructors (light normalization: flatten, fold, merge, sort)
# --------------------------------------------------------------------------


def make_pow(base: Expression, exponent: int) -> Expression:
    if not isinstance(exponent, int):
        raise ExprError(f"exponent must be an integer, got {exponent!r}")
    if is_zero(base):
        if exponent <= 0:
            raise ExprError("zero base with nonpositive exponent")
        return ZERO
    if exponent == 0:
        return ONE
    if isinstance(base, Const):
        if exponent < 0:
            return Const(Fraction(1) / base.value ** (-exponent))
        return Const(base.value**exponent)
    if exponent == 1:
        return base
    if isinstance(base, Pow):
        return make_pow(base.base, base.exponent * exponent)
    if isinstance(base, Prod):
        return make_prod(make_pow(f, exponent) for f in base.factors)
    return Pow(base, exponent)


def make_prod(factors: Iterable[Expression]) -> Expression:
    coeff = Fraction(1)
    merged: dict[tuple, list] = {}  # sort_key(base) -> [base, exponent]
    for f in _flatten(factors, Prod):
        if isinstance(f, Const):
            coeff *= f.value
            continue
        base, exp = (f.base, f.exponent) if isinstance(f, Pow) else (f, 1)
        slot = merged.setdefault(_sort_key(base), [base, 0])
        slot[1] += exp
    if coeff == 0:
        return ZERO
    out: list[Expression] = []
    for base, exp in merged.values():
        piece = make_pow(base, exp)
        if isinstance(piece, Const):
            coeff *= piece.value
        elif not (isinstance(piece, Const) and piece.value == 1):
            out.append(piece)
    out.sort(key=_sort_key)
    if coeff != 1 or not out:
        out.insert(0, Const(coeff))
    if len(out) == 1:
        return out[0]
    return Prod(tuple(out))


def make_sum(terms: Iterable[Expression]) -> Expression:
    constant = Fraction(0)
    collected: dict[tuple, list] = {}  # sort_key(rest) -> [rest, coefficient]
    for t in _flatten(terms, Sum):
        coeff, rest = _split_coefficient(t)
        if rest is None:
            constant += coeff
            continue
        slot = collected.setdefault(_sort_key(rest), [rest, Fraction(0)])
        slot[1] += coeff
    out: list[Expression] = []
    for rest, coeff in collected.values():
        if coeff == 0:
            continue
        out.append(rest if coeff == 1 else make_prod((Const(coeff), rest)))
    if constant != 0:
        out.append(Const(constant))
    out.sort(key=_sort_key)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def _flatten(items: Iterable[Expression], kind) -> Iterable[Expression]:
    for item in items:
        if isinstance(item, kind):
            inner = item.factors if kind is Prod else item.terms
            yield from _flatten(inner, kind)
        else:
            yield item


def _split_coefficient(t: Expression) -> tuple[Fraction, Expression | None]:
    """Split a term into (rational coefficient, non-constant remainder)."""
    if isinstance(t, Const):
        return t.value, None
    if isinstance(t, Prod) and isinstance(t.factors[0], Const):
        rest = t.factors[1:]
        remainder = rest[0] if len(rest) == 1 else Prod(rest)
        return t.factors[0].value, remainder
    return Fraction(1), t


def quotient(numerator: Expression, denominator: Expression) -> Expression:
    if is_zero(denominator):
        raise ExprError("division by structurally zero expression")
    return make_prod((numerator, make_pow(denominator, -1)))


def negate(e: Expression) -> Expression:
    return make_prod((Const(Fraction(-1)), e))


def canonical(e: Expression) -> Expression:
    """Bottom-up normal form: flatten, sort, fold constants, collect terms,
    and merge same-base powers (so R^2 * R^-1 collapses to R).

    This is a light normal form, not a general simplifier: products of sums
    are not expanded.  It is idempotent and sufficient for the structural
    identities used elsewhere (derivative commutation, linearity, and the
    collapse of the stationarity-residual flux terms).
    """
    if isinstance(e, (Const, Sym, Jet)):
        return e
    if isinstance(e, Pow):
        return make_pow(canonical(e.base), e.exponent)
    if isinstance(e, Prod):
        return make_prod(canonical(f) for f in e.factors)
    return make_sum(canonical(t) for t in e.terms)


# --------------------------------------------------------------------------
# Structure queries
# --------------------------------------------------------------------------


def _leaves(e: Expression, kind) -> frozenset:
    """Every leaf of type ``kind`` (Jet or Sym) in the expression."""
    if isinstance(e, kind):
        return frozenset((e,))
    if isinstance(e, Pow):
        return _leaves(e.base, kind)
    if isinstance(e, (Prod, Sum)):
        parts = e.factors if isinstance(e, Prod) else e.terms
        return frozenset().union(*(_leaves(p, kind) for p in parts))
    return frozenset()


def jet_variables(e: Expression) -> frozenset[JetVariable]:
    """All jet variables appearing in the expression."""
    return frozenset(leaf.var for leaf in _leaves(e, Jet))


def symbol_names(e: Expression) -> frozenset[str]:
    """All named constants appearing in the expression."""
    return frozenset(leaf.name for leaf in _leaves(e, Sym))


# --------------------------------------------------------------------------
# Derivatives
# --------------------------------------------------------------------------


def _derive(e: Expression, leaf) -> Expression:
    """Derivative of ``e`` by the sum, product and chain rules, where
    ``leaf(jet)`` is the derivative of one Jet leaf; constants and named
    symbols map to zero."""
    if isinstance(e, (Const, Sym)):
        return ZERO
    if isinstance(e, Jet):
        return leaf(e)
    if isinstance(e, Sum):
        return make_sum(_derive(t, leaf) for t in e.terms)
    if isinstance(e, Prod):
        pieces = []
        for i, f in enumerate(e.factors):
            df = _derive(f, leaf)
            if is_zero(df):
                continue
            pieces.append(make_prod(e.factors[:i] + (df,) + e.factors[i + 1 :]))
        return make_sum(pieces)
    df = _derive(e.base, leaf)
    if is_zero(df):
        return ZERO
    return make_prod(
        (Const(Fraction(e.exponent)), make_pow(e.base, e.exponent - 1), df)
    )


def partial_wrt_jet(e: Expression, v: JetVariable) -> Expression:
    """d(e)/d(v) treating every jet variable as an independent coordinate."""
    return _derive(e, lambda jet: ONE if jet.var == v else ZERO)


def total_derivative(e: Expression, axis: int) -> Expression:
    """Total spatial derivative D_axis via the chain rule over jet variables.

    Jet variables are promoted (R -> R_x, R_x -> R_xx, ...); constants and
    named symbols map to zero.
    """
    if axis not in (0, 1, 2):
        raise ExprError(f"axis must be 0, 1 or 2, got {axis}")
    return _derive(e, lambda jet: Jet(jet.var.promoted(axis)))


def laplacian_expr(e: Expression, dimension: int) -> Expression:
    """Symbolic Laplacian: sum of D_i D_i over the first ``dimension`` axes."""
    return make_sum(
        total_derivative(total_derivative(e, i), i) for i in range(dimension)
    )


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def evaluate_exact(
    e: Expression, point: JetPoint, constants: Mapping[str, Number] | None = None
) -> Number | np.ndarray:
    """Evaluate preserving exactness: Fraction in, Fraction out.

    Mixed Fraction/float inputs follow Python arithmetic promotion, so
    exact-rational subtrees are folded before any float conversion: a sum
    is ``float(prefix) + t_k + ...``, where ``prefix`` is ``Fraction(0)``
    plus the leading exact terms, and later exact terms enter as
    ``float(c)``; a product likewise, from ``Fraction(1)``.  A power is
    :func:`pow_exact` with the integer exponent.

    Jets and constants may also be numpy arrays of one shape, one element
    per point.  A Fraction meets an array as ``float(c)``, as it meets a
    float, so each element is the float result at its point, bit for bit
    (run it under ``np.errstate(all="ignore")`` to keep numpy quiet).  A
    zero base with a negative exponent raises :class:`EvaluationError` at a
    point and ``ZeroDivisionError`` on arrays, where evaluating the points
    one by one finds the point and the worded error.  A subtree object that
    occurs more than once is evaluated once per call.
    """
    constants = constants or {}
    # Keyed on identity: hashing a node hashes its whole subtree, and costs
    # more than evaluating the equal subtrees that are distinct objects.
    memo: dict[int, Number | np.ndarray] = {}

    def walk(node: Expression) -> Number | np.ndarray:
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Const):
            out = node.value
        elif isinstance(node, Sym):
            try:
                out = constants[node.name]
            except KeyError:
                raise EvaluationError(f"unbound constant '{node.name}'") from None
        elif isinstance(node, Jet):
            try:
                out = point.values[node.var]
            except KeyError:
                raise EvaluationError(f"unbound jet variable '{node.var.name}'") from None
        elif isinstance(node, (Sum, Prod)):
            add = isinstance(node, Sum)
            out = Fraction(0) if add else Fraction(1)
            for part in node.terms if add else node.factors:
                value = walk(part)
                if isinstance(value, np.ndarray) and isinstance(out, Fraction):
                    out = float(out)
                elif isinstance(out, np.ndarray) and isinstance(value, Fraction):
                    value = float(value)
                out = out + value if add else out * value
        else:
            base = walk(node.base)
            try:
                out = pow_exact(base, node.exponent)
            except ZeroDivisionError:
                if isinstance(base, np.ndarray):
                    raise
                raise EvaluationError(
                    f"division by zero: base {to_text(node.base)} vanishes at this point"
                ) from None
        memo[key] = out
        return out

    return walk(e)


def evaluate(
    e: Expression, point: JetPoint, constants: Mapping[str, Number] | None = None
) -> float | np.ndarray:
    """Evaluate to an IEEE double (exact subtrees folded first), or to an
    array of them where :func:`evaluate_exact` gives an array."""
    value = evaluate_exact(e, point, constants)
    return value if isinstance(value, np.ndarray) else float(value)


def pow_exact(x, exponent: int):
    """``x ** exponent`` as Python floats compute it, elementwise when ``x``
    is an array: numpy's ``power`` (like its ``exp``) may differ from the C
    library in the last bit.  A zero base with a negative exponent raises
    ``ZeroDivisionError`` and an overflow ``OverflowError``, as on floats."""
    if isinstance(x, np.ndarray):
        return np.array([v**exponent for v in x.ravel().tolist()]).reshape(x.shape)
    return x**exponent


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------


def to_text(e: Expression) -> str:
    """Readable infix rendering; negative powers render as quotients."""
    return _render(e, parent_prec=0)


def _render(e: Expression, parent_prec: int) -> str:
    # precedence: sum=1, product/quotient=2, power=3, atom=4
    if isinstance(e, Const):
        s = str(e.value)
        prec = 2 if e.value < 0 else 4
        return _wrap(s, prec, parent_prec)
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Jet):
        return e.var.name
    if isinstance(e, Pow):
        if e.exponent < 0:
            s = "1 / " + _render_pow(e.base, -e.exponent)
            return _wrap(s, 2, parent_prec)
        return _wrap(_render_pow(e.base, e.exponent), 3, parent_prec)
    if isinstance(e, Prod):
        return _wrap(_render_prod(e), 2, parent_prec)
    parts = [_render(e.terms[0], 1)]
    for t in e.terms[1:]:
        coeff, rest = _split_coefficient(t)
        if coeff < 0:
            flipped = (
                Const(-coeff)
                if rest is None
                else make_prod((Const(-coeff), rest))
            )
            parts.append(" - " + _render(flipped, 2))
        else:
            parts.append(" + " + _render(t, 2))
    return _wrap("".join(parts), 1, parent_prec)


def _render_pow(base: Expression, exponent: int) -> str:
    if exponent == 1:
        return _render(base, 3)
    return f"{_render(base, 4)}^{exponent}"


def _render_prod(e: Prod) -> str:
    num, den = [], []
    for f in e.factors:
        if isinstance(f, Pow) and f.exponent < 0:
            den.append(_render_pow(f.base, -f.exponent))
        else:
            num.append(_render(f, 3))
    if num and num[0] == "-1" and len(num) > 1:
        num = num[1:]
        sign = "-"
    else:
        sign = ""
    text = sign + (" * ".join(num) if num else "1")
    if den:
        dtext = " * ".join(den)
        if len(den) > 1:
            dtext = f"({dtext})"
        text += f" / {dtext}"
    return text


def _wrap(s: str, prec: int, parent_prec: int) -> str:
    return f"({s})" if prec < parent_prec else s


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_TOKEN_TYPES = [
    ("NUMBER", r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("OP", r"[-+*/^()]"),
    ("WS", r"\s+"),
]

_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pat})" for name, pat in _TOKEN_TYPES))

_DERIVATIVE_OPS = {"dx": 0, "dy": 1, "dz": 2}

_JET_NAME_RE = re.compile(r"R_([xyz]+)")


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER, IDENT, OP, EOF
    text: str
    offset: int  # byte offset into the UTF-8 encoding of the input


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        boff = len(text[:pos].encode("utf-8"))
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", boff)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), boff))
        pos = m.end()
    tokens.append(_Token("EOF", "", len(text.encode("utf-8"))))
    return tokens


class _Parser:
    """Recursive-descent parser for the Q-expression grammar.

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := ('+'|'-') unary | power
    power  := atom ('^' ['-'] NUMBER)?
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

    Recognized functions: dx, dy, dz (total derivatives), lap (Laplacian,
    expanded over the problem dimension), lap2 (bi-Laplacian).  The bare
    identifier R is the amplitude jet variable and R_x, R_xy, R_xxz, ...
    name its partial derivatives directly (so printed expressions parse
    back); any other bare identifier is a named constant.
    """

    def __init__(self, text: str, dimension: int):
        if dimension not in (1, 2, 3):
            raise ExprError(f"dimension must be 1, 2 or 3, got {dimension}")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dimension = dimension

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ExprSyntaxError(
                f"expected '{op}', found {self._describe(tok)}", tok.offset
            )
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "EOF" else repr(tok.text)

    def parse(self) -> Expression:
        e = self.parse_expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprSyntaxError(
                f"unexpected trailing input {self._describe(tok)}", tok.offset
            )
        return canonical(e)

    def parse_expr(self) -> Expression:
        terms = [self.parse_term()]
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            term = self.parse_term()
            terms.append(term if op == "+" else negate(term))
        return make_sum(terms)

    def parse_term(self) -> Expression:
        result = self.parse_unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.parse_unary()
            if op == "*":
                result = make_prod((result, rhs))
            else:
                if is_zero(rhs):
                    raise ExprSyntaxError(
                        "division by constant zero", self.tokens[self.pos - 1].offset
                    )
                result = quotient(result, rhs)
        return result

    def parse_unary(self) -> Expression:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            inner = self.parse_unary()
            return inner if tok.text == "+" else negate(inner)
        return self.parse_power()

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        if self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "OP" and self.peek().text == "-":
                self.advance()
                sign = -1
            tok = self.peek()
            if tok.kind != "NUMBER":
                raise ExprSyntaxError(
                    f"expected integer exponent, found {self._describe(tok)}",
                    tok.offset,
                )
            value = _number_value(tok.text)
            if value.denominator != 1:
                raise ExprSyntaxError(
                    f"non-integer exponent {tok.text!r}", tok.offset
                )
            self.advance()
            return make_pow(base, sign * int(value))
        return base

    def parse_atom(self) -> Expression:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return Const(_number_value(tok.text))
        if tok.kind == "IDENT":
            self.advance()
            if self.peek().kind == "OP" and self.peek().text == "(":
                return self.parse_call(tok)
            if tok.text == "R":
                return Jet(JetVariable())
            jet = _JET_NAME_RE.fullmatch(tok.text)
            if jet:
                axes = tuple("xyz".index(ch) for ch in jet.group(1))
                if max(axes) >= self.dimension:
                    raise ExprSyntaxError(
                        f"jet variable '{tok.text}' exceeds dimension "
                        f"{self.dimension}",
                        tok.offset,
                    )
                return Jet(JetVariable(axes))
            return Sym(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(
            f"expected an operand, found {self._describe(tok)}", tok.offset
        )

    def parse_call(self, name_tok: _Token) -> Expression:
        name = name_tok.text
        if name not in _DERIVATIVE_OPS and name not in ("lap", "lap2"):
            raise ExprSyntaxError(
                f"unknown identifier '{name}'", name_tok.offset
            )
        self.expect_op("(")
        arg = self.parse_expr()
        self.expect_op(")")
        if name in _DERIVATIVE_OPS:
            axis = _DERIVATIVE_OPS[name]
            if axis >= self.dimension:
                raise ExprSyntaxError(
                    f"derivative '{name}' exceeds dimension {self.dimension}",
                    name_tok.offset,
                )
            return total_derivative(arg, axis)
        if name == "lap":
            return laplacian_expr(arg, self.dimension)
        return laplacian_expr(laplacian_expr(arg, self.dimension), self.dimension)


def _number_value(text: str) -> Fraction:
    """Exact rational value of a numeric literal (decimals and exponents)."""
    if "." in text or "e" in text or "E" in text:
        return Fraction(Decimal(text))
    return Fraction(int(text))


def parse_q_expression(text: str, dimension: int = 1) -> Expression:
    """Parse a candidate quantum-potential expression.

    ``lap(R)`` expands over the given dimension (sum of second derivatives
    along each axis).  Raises :class:`ExprSyntaxError` with a byte offset on
    malformed input, unknown function identifiers, or non-integer exponents.
    """
    return _Parser(text, dimension).parse()
