"""Inequality reports: lists of checked clauses with a shared tolerance.

Every inequality family in this package reports its result as an
InequalityReport, a flat list of clauses ``lhs <= rhs`` with the slack
``rhs - lhs``.  A clause passes when its slack is at least -SLACK_TOL times
the inputs' total |e0| (1 for correlations), so boundary cases count as
satisfied and floating-point dust cannot produce false violations at any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

SLACK_TOL = 1e-12


@dataclass(frozen=True)
class Clause:
    description: str
    lhs: float
    rhs: float
    satisfied: bool
    slack: float

    def to_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass(frozen=True)
class InequalityReport:
    family: str
    clauses: tuple[Clause, ...]
    all_satisfied: bool

    def violated_clauses(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if not c.satisfied)

    def worst_clause(self) -> Clause:
        return min(self.clauses, key=lambda c: c.slack)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "clauses": [c.to_dict() for c in self.clauses],
            "all_satisfied": self.all_satisfied,
        }


class NonFiniteClauseError(ValueError):
    """A clause whose slack is not finite; the message names the clause."""


def make_clause(description: str, lhs: float, rhs: float, total: float = 1.0) -> Clause:
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    if not math.isfinite(slack):   # so lhs and rhs are finite too
        raise NonFiniteClauseError(
            f"clause {description!r} is not finite: lhs={lhs}, rhs={rhs}")
    return Clause(description, lhs, rhs, slack >= -SLACK_TOL * abs(float(total)), slack)


def make_report(family: str, clauses: Iterable[Clause]) -> InequalityReport:
    clauses = tuple(clauses)
    return InequalityReport(family, clauses, all(c.satisfied for c in clauses))


@dataclass(frozen=True)
class ClauseFamily:
    """A clause family written once.  ``terms(*inputs)`` returns one
    ``(lhs, rhs)`` pair per description, built from abs, +, - and * only, so
    the same IEEE operations run on floats (``report``) and elementwise on
    numpy arrays of points (``grid_sweep``, no ``Clause``)."""

    name: str
    descriptions: tuple[str, ...]
    terms: Callable
    e0: int | None = None   # the position of the inputs' total; None: it is 1

    def report(self, *inputs) -> InequalityReport:
        total = 1.0 if self.e0 is None else inputs[self.e0]
        return make_report(self.name, [
            make_clause(d, lhs, rhs, total)
            for d, (lhs, rhs) in zip(self.descriptions, self.terms(*inputs))])


BOOLE_ORDER = ((1, 2, 3), (3, 1, 2), (2, 3, 1))


def six_descriptions(template: str, triples) -> tuple[str, ...]:
    """``template`` formatted with each (i, j, k) of ``triples`` and the sign
    s, + before -; t is the opposite of s."""
    return tuple(template.format(i=i, j=j, k=k, s=s, t=t)
                 for i, j, k in triples for s, t in (("+", "-"), ("-", "+")))


def boole_terms(x12, x13, x23, bound):
    """|x_ij +- x_ik| <= bound +- x_jk for (i, j, k) in BOOLE_ORDER."""
    return ((abs(x12 + x13), bound + x23), (abs(x12 - x13), bound - x23),
            (abs(x13 + x23), bound + x12), (abs(x13 - x23), bound - x12),
            (abs(x23 + x12), bound + x13), (abs(x23 - x12), bound - x13))


def weak_terms(x, y, z, bound):
    """|x +- y| <= bound - |z|, |x +- z| <= bound - |y|, |z +- y| <= bound - |x|:
    the bound left for three pair values from unrelated runs."""
    return ((abs(x + y), bound - abs(z)), (abs(x - y), bound - abs(z)),
            (abs(x + z), bound - abs(y)), (abs(x - z), bound - abs(y)),
            (abs(z + y), bound - abs(x)), (abs(z - y), bound - abs(x)))


@dataclass(frozen=True)
class GridSweep:
    """A clause family over a grid: points, points with a violated clause,
    and the slack, point index and clause index of the worst clause."""

    points: int
    violations: int
    worst_slack: float
    worst_point: int
    worst_clause: int


GRID_BLOCK = 1 << 15   # points per slack block: bounds a grid sweep's memory


def product_axes(x: np.ndarray, y: np.ndarray, points: slice):
    """x[p // len(y)] and y[p % len(y)] for the flat indices p in ``points``;
    repeating and tiling the rows it touches costs less than dividing p."""
    first, skip = divmod(points.start, len(y))
    rows = x[first:-(-points.stop // len(y))]
    stop = skip + points.stop - points.start
    return np.repeat(rows, len(y))[skip:stop], np.tile(y, len(rows))[skip:stop]


def require_finite_span(angles: np.ndarray) -> None:
    """Refuses a grid of angles holding a NaN or infinite angle or difference,
    any of which makes the span NaN or infinite; an empty grid passes."""
    if angles.size and not math.isfinite(float(angles.max()) - float(angles.min())):
        raise ValueError(f"the angles and their differences must be finite, got "
                         f"angles from {angles.min()} to {angles.max()}")


def grid_sweep(family: ClauseFamily, inputs, points: int) -> GridSweep:
    """Summary of ``family`` over ``points`` points, GRID_BLOCK at a time,
    ``inputs(point_slice)`` giving its inputs; slacks are reduced one clause
    at a time, with no N x k matrix.  The worst clause is the first of
    minimal slack in (point, clause) order, the sign of a zero kept.  Slacks
    must not be NaN; an empty grid is an error."""
    if points == 0:
        raise ValueError("grid must contain at least one point")
    violations, worst = 0, (math.inf, 0, 0)
    for start in range(0, points, GRID_BLOCK):
        ok, args = True, inputs(slice(start, min(start + GRID_BLOCK, points)))
        floor = -SLACK_TOL * (1.0 if family.e0 is None else abs(args[family.e0]))
        for k, (lhs, rhs) in enumerate(family.terms(*args)):
            slack = rhs - lhs
            ok &= slack >= floor
            i = int(np.argmin(slack))
            worst = min(worst, (float(slack[i]), start + i, k))
        violations += int(np.count_nonzero(~ok))
    return GridSweep(points, violations, *worst)
