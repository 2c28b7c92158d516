"""An independent oracle for the verdicts: sympy derives the Euler-Lagrange
residual of each candidate with R = R(x, y, z) an undetermined function.

For every candidate the residual that sympy forms cancels to 0 iff
``certify`` says ``passes``; for a failing one, the residual N / D^k of
``euler_lagrange`` equals sympy's at three rational jet points, exactly.
"""

import random
import re
from fractions import Fraction

import pytest

from qpotlab.elcheck import PASSES, certify, euler_lagrange
from qpotlab.expr import (
    JetVariable,
    RationalFunction,
    jet_variables,
    parse_q_expression,
    power,
    value_at,
)

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x y z")
RF = sympy.Function("R")(*X)

CANDIDATES = [
    (text, dim)
    for text in (
        "A0",
        "A2 * lap(R) / R",
        "A4 * lap2(R) / R",
        "A6 * lap(lap2(R)) / R",
        "A8 * lap2(lap2(R)) / R",
        "A2 * lap(R) / R + A4 * lap2(R) / R",
        "C * dx(R)",
        "C * dx(R)^2 / R",
    )
    for dim in (1, 2, 3)
] + [
    ("A2 * lap(R) / R + 0.000000000000001 * C * dx(R)", 1),
    ("1 / (R + dx(R))", 1),
    ("A * dx(R)^2 / (R + dy(R))^2", 2),
    ("lap(R)^3 / R^2", 1),
    ("A12 * lap2(lap2(lap2(R))) / R", 3),
    ("C * dx(R) / R", 1),
    ("C * dx(R)^2 / R^2", 1),
]


def _sympy_candidate(text, dim):
    def lap(e):
        return sum(sympy.diff(e, X[i], 2) for i in range(dim))

    names = {n: sympy.Symbol(n) for n in re.findall(r"[A-Za-z_]\w*", text)}
    names.update(
        R=RF,
        dx=lambda e: sympy.diff(e, X[0]),
        dy=lambda e: sympy.diff(e, X[1]),
        dz=lambda e: sympy.diff(e, X[2]),
        lap=lap,
        lap2=lambda e: lap(lap(e)),
    )
    return sympy.sympify(text, locals=names, rational=True)


def _jets(e):
    """Each jet of e (R and its derivatives) with its sorted axes."""
    jets = {RF: ()}
    for d in e.atoms(sympy.Derivative):
        jets[d] = tuple(sorted(i for v, n in d.variable_count for i in [X.index(v)] * n))
    return jets


def _sympy_residual(q):
    """sum_J (-1)^|J| D_J(R^2 dq/dR_J), each jet held as a plain symbol
    while q is differentiated by it."""
    jets = _jets(q)
    plain = {j: sympy.Dummy() for j in jets}
    back = {s: j for j, s in plain.items()}
    flat = q.xreplace(plain)
    out = sympy.Integer(0)
    for j, axes in jets.items():
        term = RF**2 * sympy.diff(flat, plain[j]).xreplace(back)
        for axis in axes:
            term = sympy.diff(term, X[axis])
        out += (-1) ** len(axes) * term
    return out


def _points(variables, seed):
    rng = random.Random(seed)
    for _ in range(3):
        yield {
            v: Fraction(rng.choice((-1, 1)) * rng.randint(1, 97), rng.randint(1, 13))
            for v in variables
        }


@pytest.mark.parametrize("text, dim", CANDIDATES)
def test_sympy_agrees_with_the_verdict_and_the_residual(text, dim):
    q = parse_q_expression(text, dim)
    report = certify(q, dim, trials=3)
    residual = _sympy_residual(_sympy_candidate(text, dim))
    jets = _jets(residual)
    names = {j: sympy.Symbol("jet_" + "".join("xyz"[a] for a in axes)) for j, axes in jets.items()}
    flat = residual.xreplace(names)
    assert (sympy.cancel(sympy.together(flat)) == 0) == (report.verdict == PASSES)
    if report.passed():
        return
    res = euler_lagrange(q, dim)
    ours = RationalFunction(res.num, power(res.den, res.power))
    constants = sorted(s.name for s in flat.free_symbols - set(names.values()))
    axes = sorted(set(jets.values()) | {v.axes for v in jet_variables(ours)})
    for point in _points([*axes, *constants], seed=sum(map(ord, text)) + dim):
        exact = {k: sympy.Rational(x.numerator, x.denominator) for k, x in point.items()}
        want = flat.xreplace(
            {names[j]: exact[a] for j, a in jets.items()}
            | {sympy.Symbol(c): exact[c] for c in constants}
        )
        got = value_at(
            ours,
            {JetVariable(a): point[a] for a in axes},
            {c: point[c] for c in constants},
        )
        assert got == Fraction(int(want.p), int(want.q)), (text, dim, point)
