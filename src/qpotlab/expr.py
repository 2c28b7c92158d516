"""Candidate potentials as quotients of Laurent polynomials over jet variables.

A "jet variable" is the amplitude field R or one of its spatial partial
derivatives (R_x, R_xx, R_xy, ...), treated as an independent coordinate.
A candidate quantum potential Q, e.g. ``A2 * lap(R) / R``, is held as N/D
(:class:`RationalFunction`): N and D are Laurent polynomials over the
rationals in the named constants (A2, C, ...) and the jet variables.  The
parser builds N/D directly and exactly; a monomial denominator folds into
N as negative exponents, so D is 1 or has at least two terms.  There is no
cancellation of common factors of N and D beyond that.

A polynomial maps each monomial to its nonzero ``int`` or ``Fraction``
coefficient.  A monomial is a tuple of (variable, exponent) pairs with
nonzero exponents, sorted by variable; a variable is a
:class:`JetVariable`, the pair (order, axes), or the pair (-1, name) of a
named constant.  Tuple order is then the canonical variable order:
constants by name, then jet variables by order and axes.  Printing and
evaluation visit monomials in :func:`canonical_order`, so no hash order
reaches an artifact.

The calculus acts on polynomials monomial by monomial: :func:`partial` is
d/dv with the jet variables independent, and :func:`total` the total
derivative D_axis, which promotes each jet factor (R -> R_x, R_x -> R_xx,
...) by the product rule.  The parser's ``dx``, ``lap`` and ``lap2`` apply
D_axis to N/D by the quotient rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Mapping, NamedTuple, Union

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


class JetVariable(tuple):
    """R or a spatial partial derivative of R: the pair (order, axes).

    ``axes`` lists the differentiation axes (0=x, 1=y, 2=z), sorted because
    partial derivatives commute.  The empty multi-index is R itself.
    """

    __slots__ = ()

    def __new__(cls, axes: tuple[int, ...] = ()):
        if any(a not in (0, 1, 2) for a in axes):
            raise ExprError(f"unsupported derivative axis in {axes!r}")
        axes = tuple(sorted(axes))
        return super().__new__(cls, (len(axes), axes))

    @property
    def order(self) -> int:
        return self[0]

    @property
    def axes(self) -> tuple[int, ...]:
        return self[1]

    @property
    def name(self) -> str:
        return "R_" + "".join(AXIS_LETTERS[a] for a in self[1]) if self[1] else "R"

    def promoted(self, axis: int) -> "JetVariable":
        """The jet variable obtained by one more derivative along ``axis``."""
        return JetVariable(self[1] + (axis,))

    def __repr__(self) -> str:
        return self.name


R = JetVariable()


def _symbol(name: str) -> tuple:
    return (-1, name)


def _name(v: tuple) -> str:
    return v[1] if v[0] < 0 else v.name


# --------------------------------------------------------------------------
# Laurent polynomials
# --------------------------------------------------------------------------

Monomial = tuple  # ((variable, exponent), ...), sorted, exponents nonzero
Polynomial = dict  # Monomial -> nonzero int or Fraction

ONE: Polynomial = {(): 1}


def _monomial_product(a: Monomial, b: Monomial) -> Monomial:
    if not b:
        return a
    if not a:
        return b
    exponents = dict(a)
    for v, e in b:
        e += exponents.get(v, 0)
        if e:
            exponents[v] = e
        else:
            del exponents[v]
    return tuple(sorted(exponents.items()))


def canonical_order(p: Polynomial) -> list[Monomial]:
    """The monomials of p in lexicographic order: by variable, higher
    powers first (R^2, R * R_x, R_x^2)."""
    return sorted(p, key=lambda m: tuple((v, -e) for v, e in m))


def _inverse(c):
    """1/c, kept an int where it is one."""
    return c if c in (1, -1) else Fraction(1) / c


def add(p: Polynomial, q: Polynomial, scale=1) -> Polynomial:
    """p + scale * q."""
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    if len(q) == 1 and () in q:  # a constant
        c = q[()]
        return p if c == 1 else {m: c * a for m, a in p.items()}
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = _monomial_product(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def power(p: Polynomial, exponent: int) -> Polynomial:
    """p^exponent by repeated squaring, about 2 log2(exponent) products."""
    if exponent and len(p) == 1:  # a monomial
        ((m, c),) = p.items()
        return {tuple((v, e * exponent) for v, e in m): c**exponent}
    out = ONE
    while exponent:
        if exponent & 1:
            out = multiply(out, p)
        exponent >>= 1
        if exponent:
            p = multiply(p, p)
    return out


def partial(p: Polynomial, v: JetVariable) -> Polynomial:
    """dp/dv, every other variable held fixed."""
    out = {}
    for m, c in p.items():
        for i, (w, e) in enumerate(m):
            if w == v:
                rest = m[:i] + (((v, e - 1),) if e != 1 else ()) + m[i + 1 :]
                out[rest] = c * e  # distinct monomials stay distinct
                break
    return out


def total(p: Polynomial, axis: int) -> Polynomial:
    """The total derivative D_axis: each jet factor v^e gives
    e v^(e-1) v_axis; named constants are constant."""
    out: dict = {}
    for m, c in p.items():
        for v, e in m:
            if v[0] >= 0:
                key = _monomial_product(m, ((v, -1), (v.promoted(axis), 1)))
                out[key] = out.get(key, 0) + c * e
    return {m: c for m, c in out.items() if c}


# --------------------------------------------------------------------------
# N/D
# --------------------------------------------------------------------------


class RationalFunction(NamedTuple):
    """N/D; D is 1 (:data:`ONE`) or has at least two terms."""

    num: Polynomial
    den: Polynomial


def _normal(num: Polynomial, den: Polynomial) -> RationalFunction:
    """Fold a one-term D into N; 0 is 0/1."""
    if not num:
        return RationalFunction({}, ONE)
    if len(den) == 1:
        ((m, c),) = den.items()
        inverse = tuple((v, -e) for v, e in m)
        num = {_monomial_product(a, inverse): b * _inverse(c) for a, b in num.items()}
        den = ONE
    return RationalFunction(num, den)


def _sum(a: RationalFunction, b: RationalFunction, sign: int = 1) -> RationalFunction:
    if a.den == b.den:
        return _normal(add(a.num, b.num, sign), a.den)
    num = add(multiply(a.num, b.den), multiply(b.num, a.den), sign)
    return _normal(num, multiply(a.den, b.den))


def _product(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    return _normal(multiply(a.num, b.num), multiply(a.den, b.den))


def _quotient(a: RationalFunction, b: RationalFunction) -> RationalFunction:
    return _normal(multiply(a.num, b.den), multiply(a.den, b.num))


def _power(a: RationalFunction, exponent: int) -> RationalFunction:
    if exponent < 0:
        a, exponent = _quotient(RationalFunction(ONE, ONE), a), -exponent
    return _normal(power(a.num, exponent), power(a.den, exponent))


def _derivative(a: RationalFunction, axis: int) -> RationalFunction:
    """D_axis(N/D) = (D_axis N * D - N * D_axis D) / D^2."""
    dd = total(a.den, axis)
    if not dd:
        return _normal(total(a.num, axis), a.den)
    num = add(multiply(total(a.num, axis), a.den), multiply(a.num, dd), -1)
    return _normal(num, multiply(a.den, a.den))


def _laplacian(a: RationalFunction, dimension: int) -> RationalFunction:
    out = RationalFunction({}, ONE)
    for axis in range(dimension):
        out = _sum(out, _derivative(_derivative(a, axis), axis))
    return out


def variables(*polynomials: Polynomial) -> tuple[list[JetVariable], list[str]]:
    """The jet variables and the names of the constants of the
    polynomials, each in canonical order."""
    found = {v for p in polynomials for m in p for v, _ in m}
    return sorted(v for v in found if v[0] >= 0), sorted(v[1] for v in found if v[0] < 0)


def jet_variables(q: RationalFunction) -> frozenset[JetVariable]:
    """All jet variables of N and D."""
    return frozenset(variables(*q)[0])


def symbol_names(q: RationalFunction) -> frozenset[str]:
    """All named constants of N and D."""
    return frozenset(variables(*q)[1])


# --------------------------------------------------------------------------
# Evaluation
# --------------------------------------------------------------------------


def point(
    jets: Mapping[JetVariable, Number], constants: Mapping[str, Number] | None = None
) -> dict:
    """The values of the jet variables and the named constants, as one
    mapping from variables for :func:`polynomial_value`."""
    return {**{_symbol(n): x for n, x in (constants or {}).items()}, **jets}


def polynomial_value(p: Polynomial, values: Mapping):
    """p at a :func:`point` that gives every variable an exact rational
    (``int`` or ``Fraction``), or every one a float or an array of floats
    (one element per point).

    The terms are added in canonical order, from the first.  A term is its
    coefficient times its positive-exponent factors, one multiplication per
    unit of exponent in canonical order, divided by the product of its
    negative-exponent factors formed the same way.  Only +, * and / are
    used, so each array element has the bits of the float value at its
    point.  Exact inputs give an exact value; anything else is a float, and
    each rational coefficient enters as ``float(c)``.  A factor that is 0
    in a denominator raises :class:`EvaluationError` at a point and gives
    IEEE inf or NaN on arrays.  The zero polynomial is 0.
    """
    exact = all(isinstance(x, (int, Fraction)) for x in values.values())
    out = 0 if exact else 0.0
    for i, m in enumerate(canonical_order(p)):
        num, den = Fraction(p[m]) if exact else float(p[m]), None
        for v, e in m:
            try:
                x = values[v]
            except KeyError:
                kind = "constant" if v[0] < 0 else "jet variable"
                raise EvaluationError(f"unbound {kind} '{_name(v)}'") from None
            for _ in range(abs(e)):
                if e > 0:
                    num = num * x
                else:
                    den = x if den is None else den * x
        if den is not None:
            try:
                num = num / den
            except ZeroDivisionError:
                zero = next((_name(v) for v, e in m if e < 0 and values[v] == 0), "a denominator")
                raise EvaluationError(
                    f"division by zero: {zero} vanishes at this point"
                ) from None
        out = num if i == 0 else out + num
    return out


def value_at(
    q: RationalFunction,
    jets: Mapping[JetVariable, Number],
    constants: Mapping[str, Number] | None = None,
):
    """N/D at a point, by :func:`polynomial_value`: exact for exact
    inputs, else a float, or an array of them where inputs are arrays."""
    values = point(jets, constants)
    if not all(isinstance(x, (int, Fraction)) for x in values.values()):
        values = {v: float(x) if isinstance(x, (int, Fraction)) else x for v, x in values.items()}
    num = polynomial_value(q.num, values)
    if q.den == ONE:
        return num
    den = polynomial_value(q.den, values)
    try:
        return num / den
    except ZeroDivisionError:
        raise EvaluationError("division by zero: D vanishes at this point") from None


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------


def _factors(m: Monomial, sign: int) -> list[str]:
    """The factors v^e of m with sign * e > 0, as text."""
    powers = ((_name(v), sign * e) for v, e in m if sign * e > 0)
    return [name if e == 1 else f"{name}^{e}" for name, e in powers]


def _polynomial_text(p: Polynomial) -> str:
    """Terms in :func:`canonical_order`; negative exponents print as
    quotients."""
    if not p:
        return "0"
    parts = []
    for m in canonical_order(p):
        c = p[m]
        num, den = _factors(m, 1), _factors(m, -1)
        text = " * ".join(([str(abs(c))] if abs(c) != 1 or not num else []) + num)
        if den:
            text += " / " + (den[0] if len(den) == 1 else "(" + " * ".join(den) + ")")
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        parts.append(text)
    return "".join(parts)


def to_text(q: RationalFunction) -> str:
    """N, or N / (D); the text parses back to the same N/D."""
    num = _polynomial_text(q.num)
    if q.den == ONE:
        return num
    if len(q.num) > 1:
        num = f"({num})"
    return f"{num} / ({_polynomial_text(q.den)})"


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


def _variable(v: tuple) -> RationalFunction:
    return RationalFunction({((v, 1),): 1}, ONE)


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

    def at_op(self, ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in ops

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

    def parse(self) -> RationalFunction:
        e = self.parse_expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprSyntaxError(
                f"unexpected trailing input {self._describe(tok)}", tok.offset
            )
        return e

    def parse_expr(self) -> RationalFunction:
        result = self.parse_term()
        while self.at_op("+-"):
            op = self.advance().text
            result = _sum(result, self.parse_term(), 1 if op == "+" else -1)
        return result

    def parse_term(self) -> RationalFunction:
        result = self.parse_unary()
        while self.at_op("*/"):
            op = self.advance()
            rhs = self.parse_unary()
            if op.text == "*":
                result = _product(result, rhs)
            elif not rhs.num:
                raise ExprSyntaxError("division by constant zero", op.offset)
            else:
                result = _quotient(result, rhs)
        return result

    def parse_unary(self) -> RationalFunction:
        if self.at_op("+-"):
            sign = self.advance().text
            inner = self.parse_unary()
            return inner if sign == "+" else _sum(RationalFunction({}, ONE), inner, -1)
        return self.parse_power()

    def parse_power(self) -> RationalFunction:
        base = self.parse_atom()
        if not self.at_op("^"):
            return base
        caret = self.advance()
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "NUMBER":
            raise ExprSyntaxError(
                f"expected integer exponent, found {self._describe(tok)}", tok.offset
            )
        value = _number_value(tok.text)
        if not isinstance(value, int):
            raise ExprSyntaxError(f"non-integer exponent {tok.text!r}", tok.offset)
        self.advance()
        if not base.num and sign * value <= 0:
            raise ExprSyntaxError("zero base with nonpositive exponent", caret.offset)
        return _power(base, sign * value)

    def parse_atom(self) -> RationalFunction:
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            value = _number_value(tok.text)
            return RationalFunction({(): value} if value else {}, ONE)
        if tok.kind == "IDENT":
            self.advance()
            if self.at_op("("):
                return self.parse_call(tok)
            if tok.text == "R":
                return _variable(R)
            jet = _JET_NAME_RE.fullmatch(tok.text)
            if jet:
                axes = tuple(AXIS_LETTERS.index(ch) for ch in jet.group(1))
                if max(axes) >= self.dimension:
                    raise ExprSyntaxError(
                        f"jet variable '{tok.text}' exceeds dimension "
                        f"{self.dimension}",
                        tok.offset,
                    )
                return _variable(JetVariable(axes))
            return _variable(_symbol(tok.text))
        if self.at_op("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError(
            f"expected an operand, found {self._describe(tok)}", tok.offset
        )

    def parse_call(self, name_tok: _Token) -> RationalFunction:
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
            return _derivative(arg, axis)
        if name == "lap":
            return _laplacian(arg, self.dimension)
        return _laplacian(_laplacian(arg, self.dimension), self.dimension)


def _number_value(text: str) -> int | Fraction:
    """Exact rational value of a numeric literal (decimals and exponents);
    an int where it is one."""
    value = Fraction(Decimal(text)) if "." in text or "e" in text or "E" in text else int(text)
    return value.numerator if value.denominator == 1 else value


def parse_q_expression(text: str, dimension: int = 1) -> RationalFunction:
    """Parse a candidate quantum-potential expression to N/D.

    ``lap(R)`` expands over the given dimension (sum of second derivatives
    along each axis).  Raises :class:`ExprSyntaxError` with a byte offset on
    malformed input, unknown function identifiers, non-integer exponents,
    a division by an expression that is identically 0 (at the ``/``) and a
    zero base with a nonpositive exponent (at the ``^``).
    """
    return _Parser(text, dimension).parse()
