"""Inequality reports: lists of checked clauses with a shared tolerance.

Every inequality family in this package reports its result as an
InequalityReport, a flat list of clauses ``lhs <= rhs`` with the slack
``rhs - lhs``.  A clause passes when its slack is at least -SLACK_TOL, so
exact boundary cases (slack 0) count as satisfied and floating-point dust
cannot produce false violations.
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


def make_clause(description: str, lhs: float, rhs: float) -> Clause:
    lhs = float(lhs)
    rhs = float(rhs)
    slack = rhs - lhs
    return Clause(description, lhs, rhs, slack >= -SLACK_TOL, slack)


def make_report(family: str, clauses: Iterable[Clause]) -> InequalityReport:
    clauses = tuple(clauses)
    return InequalityReport(family, clauses, all(c.satisfied for c in clauses))


@dataclass(frozen=True)
class ClauseFamily:
    """A clause family written once.  ``terms(*inputs)`` returns one
    ``(lhs, rhs)`` pair per description, built from abs, +, - and * only, so
    the same IEEE operations run on floats (``report``) and elementwise on
    numpy arrays of N points (``slacks``: an N x k matrix, no ``Clause``)."""

    name: str
    descriptions: tuple[str, ...]
    terms: Callable

    def report(self, *inputs) -> InequalityReport:
        return make_report(self.name, [
            make_clause(d, lhs, rhs)
            for d, (lhs, rhs) in zip(self.descriptions, self.terms(*inputs))])

    def slacks(self, *inputs) -> np.ndarray:
        return np.stack([rhs - lhs for lhs, rhs in self.terms(*inputs)], axis=-1)


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
    and the smallest slack of any clause at any point."""

    points: int
    violations: int
    worst_slack: float


def count_violated(slacks: np.ndarray) -> int:
    """Rows of an N x k slack matrix with at least one violated clause."""
    return int(np.count_nonzero(~(slacks >= -SLACK_TOL).all(axis=-1)))


GRID_BLOCK = 1 << 15   # points per slack block: bounds a grid sweep's memory


def grid_sweep(block, rows: int, row_len: int) -> GridSweep:
    """Summary of a rows x row_len grid whose ``block(row_slice)`` returns
    the slack matrix of those whole rows; about GRID_BLOCK points are
    evaluated at a time.  An empty grid is an error."""
    if rows * row_len == 0:
        raise ValueError("grid must contain at least one point")
    step = max(1, GRID_BLOCK // row_len)
    violations, worst = 0, math.inf
    for start in range(0, rows, step):
        slacks = block(slice(start, start + step))
        violations += count_violated(slacks)
        worst = min(worst, float(slacks.min()))
    return GridSweep(rows * row_len, violations, worst)
