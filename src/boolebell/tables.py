"""Real functions of two or three dichotomic variables, their multilinear
expansion coefficients, and the inequality families those coefficients obey
when the function is non-negative.

Any real f(S1,..,Sn) on {+1,-1}^n is a multilinear polynomial; the expansion
coefficients are the signed sums e_T = sum_S (prod_{i in T} S_i) f(S).  For
non-negative f the pair coefficients satisfy Boole-like bounds:

* two variables: 0 <= e0 and |e1 +- e2| <= e0 +- e12, which is also
  sufficient (``theorem1_check``);
* three variables: |e_ij +- e_ik| <= e0 +- e_jk plus the -3*e0 lower bounds
  (``ebbi_check``), and conversely any admissible pair-coefficient set is
  realized by an explicit non-negative table (``construct_g3``);
* three unrelated two-variable functions sharing e0: only the weak bound
  |e +- ehat| <= 3*e0 - |etilde| (``theorem3_check``).

``marginals_compatible`` alone decides whether three pair tables are the pair
marginals of one non-negative three-variable table; its verdict's
``reconstruct`` builds such a table.  ``LambdaModel`` covers the factorized
single-parameter mixtures whose pair tables always pass that test.

``SignTable`` is the one table type: a function on {+1,-1}^n as a 2x..x2
array indexed with 0 <-> S=+1 and 1 <-> S=-1, variable 1 slowest.
``sign_codes`` alone maps sign patterns to grid positions.  Every expansion,
synthesis and closed form goes through ``sign_transform``, which maps a table
to its coefficients on the same grid and back; ``chain_coeffs`` gives the
coefficients of every exact chain table.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import combinations, product

import numpy as np

from .reports import (BOOLE_ORDER, SLACK_TOL, ClauseFamily, InequalityReport,
                      boole_terms, six_descriptions, weak_terms)

# ---------------------------------------------------------------------------
# The sign grid {+1,-1}^n: index 0 <-> S=+1, variable 1 slowest, keys "+-..";
# coefficient e_T sits where the index is 1 exactly for the variables in T.
# ---------------------------------------------------------------------------

@cache
def _sign_matrix(n: int) -> np.ndarray:
    """H (x) .. (x) H for n variables: entry [T, S] is prod_{i in T} S_i."""
    return reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * n, np.ones((1, 1)))


def sign_transform(values) -> np.ndarray:
    """e_T = sum_S (prod_{i in T} S_i) f(S) for f on a 2x..x2 sign grid, as
    one matmul; the result lies on the same grid.  Applying it twice gives
    2^n f, so f = sign_transform(e) / 2^n is the synthesis."""
    f = np.asarray(values, dtype=float)
    return (_sign_matrix(f.ndim) @ f.reshape(-1)).reshape(f.shape)


def pair_coefficients(e) -> dict[tuple[int, int], float]:
    """The pair entries e_ij of a coefficient grid, keyed by 1-based i < j in
    lexicographic order; e_ij sits where the index is 1 exactly at i and j."""
    return {(i, j): float(e[tuple(int(k in (i, j)) for k in range(1, e.ndim + 1))])
            for i, j in combinations(range(1, e.ndim + 1), 2)}


@cache
def _sign_keys(n: int) -> tuple[str, ...]:
    """The keys "+-.." of an n-variable sign grid, in grid order."""
    return tuple("".join(s) for s in product("+-", repeat=n))


def sign_codes(*columns) -> np.ndarray:
    """Flat grid index of each row of the +-1 columns (S1, .., Sn): S_i = -1
    sets the bit of weight 2^(n-i).  Each column is compared as a contiguous
    copy, which is faster than the comparison on a strided view."""
    codes = np.zeros(np.shape(columns[0]), dtype=np.min_scalar_type(2 ** len(columns) - 1))
    for col in columns:
        codes <<= 1
        codes |= np.asarray(col, order="C") < 0
    return codes


@cache
def sign_rows(n: int) -> np.ndarray:
    """The sign patterns (S1, .., Sn) as read-only int8 rows, in grid order."""
    rows = np.array(list(product((1, -1), repeat=n)), dtype=np.int8)
    rows.setflags(write=False)
    return rows


def draw_rows(probs, rows: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw count rows i.i.d., row k with probability probs[k], by inverse
    CDF over one uniform per draw: the row index is the number of CDF
    entries at or below the uniform."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    u = rng.random(count)
    index = np.zeros(count, dtype=np.min_scalar_type(cdf.size - 1))
    for edge in cdf[:-1]:
        index += u >= edge
    return rows.take(index, axis=0)


@cache
def _odd_positions(n: int) -> np.ndarray:
    """Row k marks the T with an odd number of path positions k+1..n."""
    return np.cumprod(sign_rows(n)[:, ::-1], axis=1)[:, ::-1].T < 0


def chain_coeffs(c0, links, order=None) -> np.ndarray:
    """Coefficient grid of the +-1 Markov chain along a path of variables,
    P(S) = (1 + c0 S_1)/2 prod_k (1 + rho_k S_k S_k+1)/2: e_T is the product
    of c0 and of every link with an odd number of T's path positions after
    it, c0 standing before the first.  ``order`` lists the variables
    (1-based) in path order, 1..n by default; the grid is indexed by
    variable, and the table is sign_transform(e) / 2^n."""
    factors = (c0, *links)
    for factor in factors:
        if not math.isfinite(factor):
            raise ValueError(f"chain coefficients must be finite, got {factor}")
    n = len(factors)
    # e_T multiplies its factors in path order, and 1.0 (exactly) where T has
    # none; + 0.0 turns the -0.0 of a zero c0 times a negative link into 0.0
    e = np.where(_odd_positions(n), np.array(factors, dtype=float)[:, None], 1.0)
    e = (np.multiply.reduce(e, axis=0) + 0.0).reshape((2,) * n)
    return e if order is None else e.transpose([order.index(v) for v in range(1, n + 1)])


# flat grid positions of the coefficients in field order (e0, e1, .., e12, ..),
# keyed by the table size: subsets by size, then lexicographically
_FIELD_INDEX = {2 ** n: np.array([sum(1 << (n - i) for i in t) for r in range(n + 1)
                                  for t in combinations(range(1, n + 1), r)])
                for n in (2, 3)}


@dataclass(frozen=True)
class SignTable:
    """Real function on the sign grid of n variables: a read-only 2x..x2
    float array, n its number of axes.  Subclasses may fix n."""

    values: np.ndarray

    n = property(lambda self: self.values.ndim)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", arr)
        if arr.shape != (2,) * self.n:
            raise ValueError(f"{type(self).__name__} needs a {'x'.join('2' * self.n)} array")
        if not np.isfinite(arr).all():
            raise ValueError("table entries must be finite")
        arr.setflags(write=False)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def value(self, *signs: int) -> float:
        if len(signs) != self.n or not all(s in (1, -1) for s in signs):
            raise ValueError(f"expected {self.n} signs, each +1 or -1, got {signs}")
        return float(self.values.reshape(-1)[sign_codes(*signs)])

    def is_nonnegative(self) -> bool:
        return bool(self.values.min() >= -SLACK_TOL * np.abs(self.values).sum())

    def to_dict(self) -> dict:
        return dict(zip(_sign_keys(self.n), self.values.ravel().tolist()))

    @classmethod
    def from_dict(cls, d: dict) -> SignTable:
        """Inverse of ``to_dict``: n is the class's own or else the key
        length, the keys must be exactly the 2^n sign keys, and the entries
        ints or floats whose absolute sum is finite, so that the table's
        expansion cannot overflow."""
        if not d:
            raise ValueError(f"{cls.__name__} needs the 2^n sign keys, got none")
        n = cls.n if isinstance(cls.n, int) else len(next(iter(d)))
        keys = _sign_keys(n)
        if d.keys() != set(keys):
            missing = [k for k in keys if k not in d] or "none"
            extra = [k for k in d if k not in keys] or "none"
            raise ValueError(f"{cls.__name__} needs exactly the {len(keys)} sign keys of "
                             f"length {n}: missing {missing}, extra {extra}")
        entries = [d[k] for k in keys]
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in entries):
            raise ValueError(f"{cls.__name__} entries must be numbers")
        # an int beyond the float range reads as inf, which float() would refuse
        flat = [float(v) if abs(v) <= sys.float_info.max else math.inf for v in entries]
        if not math.isfinite(sum(map(abs, flat))):
            raise ValueError(f"{cls.__name__} entries must have a finite absolute sum")
        return cls(np.reshape(flat, (2,) * n))


class FuncTable2(SignTable):
    """Real function of (S1, S2), stored as a 2x2 array."""

    n = 2


class FuncTable3(SignTable):
    """Real function of (S1, S2, S3), stored as a 2x2x2 array."""

    n = 3

    def marginals(self) -> tuple[FuncTable2, FuncTable2, FuncTable2]:
        """Pair marginals over (S1,S2), (S1,S3), (S2,S3)."""
        return tuple(FuncTable2(self.values.sum(axis=ax)) for ax in (2, 1, 0))


class _Coeffs:
    def to_dict(self) -> dict:
        return self.__dict__.copy()

    def grid(self) -> np.ndarray:
        """The coefficients on the sign grid."""
        values = list(vars(self).values())
        flat = np.empty(len(values))
        flat[_FIELD_INDEX[len(values)]] = values
        return flat.reshape((2,) * (len(values).bit_length() - 1))

    @classmethod
    def from_grid(cls, e: np.ndarray):
        return cls(*e.reshape(-1)[_FIELD_INDEX[e.size]].tolist())


@dataclass(frozen=True)
class ExpansionCoeffs2(_Coeffs):
    e0: float
    e1: float
    e2: float
    e12: float


@dataclass(frozen=True)
class ExpansionCoeffs3(_Coeffs):
    e0: float
    e1: float
    e2: float
    e3: float
    e12: float
    e13: float
    e23: float
    e123: float


def expand2(f: FuncTable2) -> ExpansionCoeffs2:
    """Signed sums of the table: e_T = sum_S (prod_{i in T} S_i) f(S)."""
    return ExpansionCoeffs2.from_grid(sign_transform(f.values))


def synth2(c: ExpansionCoeffs2) -> FuncTable2:
    """Inverse of expand2: f = (e0 + S1 e1 + S2 e2 + S1 S2 e12) / 4."""
    return FuncTable2(sign_transform(c.grid()) / 4.0)


def expand3(f: FuncTable3) -> ExpansionCoeffs3:
    return ExpansionCoeffs3.from_grid(sign_transform(f.values))


def synth3(c: ExpansionCoeffs3) -> FuncTable3:
    return FuncTable3(sign_transform(c.grid()) / 8.0)


THEOREM1 = ClauseFamily(
    "theorem1", ("0 <= e0", "|e1 + e2| <= e0 + e12", "|e1 - e2| <= e0 - e12"),
    lambda e0, e1, e2, e12: ((0.0, e0), (abs(e1 + e2), e0 + e12), (abs(e1 - e2), e0 - e12)),
    e0=0)


def theorem1_check(c: ExpansionCoeffs2) -> InequalityReport:
    """Necessary and sufficient conditions for synth2(c) to be non-negative:
    0 <= e0 and |e1 +- e2| <= e0 +- e12."""
    return THEOREM1.report(c.e0, c.e1, c.e2, c.e12)


# (s1 s2, s1 s3, s2 s3) for the sign patterns (s1, s2, s3) in product order
_EBBI_SIGNS = tuple((s1 * s2, s1 * s3, s2 * s3) for s1, s2, s3 in product((1, -1), repeat=3))


def _ebbi_terms(e0, e12, e13, e23):
    lower = -3.0 * e0
    return ((abs(e12), e0), (abs(e13), e0), (abs(e23), e0),
            *boole_terms(e12, e13, e23, e0),
            *[(lower, -s12 * e12 - s13 * e13 - s23 * e23) for s12, s13, s23 in _EBBI_SIGNS])


# |e_ij| <= e0, the six |e_ij +- e_ik| <= e0 +- e_jk, then the -3 e0 bound
# for the sign patterns (s1, s2, s3) in product order.
EBBI = ClauseFamily(
    "ebbi",
    tuple(f"|e{i}{j}| <= e0" for i, j in ((1, 2), (1, 3), (2, 3)))
    + six_descriptions("|e{i}{j} {s} e{i}{k}| <= e0 {s} e{j}{k}", BOOLE_ORDER)
    + tuple(f"-3 e0 <= -(s1 s2) e12 - (s1 s3) e13 - (s2 s3) e23 at ({''.join(p)})"
            for p in product("+-", repeat=3)),
    _ebbi_terms, e0=0)


def ebbi_check(e0: float, e12: float, e13: float, e23: float) -> InequalityReport:
    """Pair-coefficient bounds obeyed by every non-negative three-variable
    function: |e_ij| <= e0 (preconditions), the six clauses
    |e_ij +- e_ik| <= e0 +- e_jk, and the -3*e0 lower bound for each of the
    eight sign patterns."""
    if not np.isfinite(e0) or e0 < 0.0:
        raise ValueError(f"e0 must be non-negative, got {e0}")
    return EBBI.report(e0, e12, e13, e23)


def construct_g3(a0: float, a12: float, a13: float, a23: float) -> FuncTable3:
    """Explicit non-negative table with pair coefficients (a0, a12, a13, a23)
    and all other coefficients zero:
    g(S1,S2,S3) = (a0 + S1 S2 a12 + S1 S3 a13 + S2 S3 a23) / 8."""
    report = ebbi_check(a0, a12, a13, a23)
    if not report.all_satisfied:
        bad = report.violated_clauses()[0]
        raise ValueError(f"inadmissible coefficients, violated: {bad.description} "
                         f"(lhs={bad.lhs}, rhs={bad.rhs})")
    return synth3(ExpansionCoeffs3(a0, 0.0, 0.0, 0.0, a12, a13, a23, 0.0))


_E_INTERCHANGES = (("e", "ehat", "etilde"), ("e", "etilde", "ehat"), ("etilde", "ehat", "e"))

THEOREM3 = ClauseFamily(
    "theorem3", six_descriptions("|{i} {s} {j}| <= 3 e0 - |{k}|", _E_INTERCHANGES),
    lambda e, ehat, etilde, e0: weak_terms(e, ehat, etilde, 3.0 * e0), e0=3)

# The interchange order (e, ehat | etilde), (e, etilde | ehat), (etilde, ehat | e)
# is the Boole order with e in the 13 slot and ehat in the 12 slot.
MARGINAL_COMPATIBILITY = ClauseFamily(
    "marginal_compatibility", six_descriptions("|{i} {s} {j}| <= e0 {s} {k}", _E_INTERCHANGES),
    lambda e, ehat, etilde, e0: boole_terms(ehat, e, etilde, e0), e0=3)


def theorem3_check(e: float, ehat: float, etilde: float, e0: float) -> InequalityReport:
    """Bounds for three unrelated non-negative pair functions sharing e0 and
    carrying no single-variable terms: |e +- ehat| <= 3 e0 - |etilde| plus the
    two interchanges."""
    if not np.isfinite(e0) or e0 < 0.0:
        raise ValueError(f"e0 must be non-negative, got {e0}")
    for name, value in (("e", e), ("ehat", ehat), ("etilde", etilde)):
        if abs(value) > e0 + SLACK_TOL * e0:
            raise ValueError(f"|{name}|={abs(value)} exceeds e0={e0}")
    return THEOREM3.report(e, ehat, etilde, e0)


class IncompatibleMarginalsError(ValueError):
    """Three pair tables admit no common non-negative triple table."""

    def __init__(self, failures: tuple[str, ...]):
        super().__init__("; ".join(failures))
        self.failures = failures


@dataclass(frozen=True)
class Reconstruction:
    table: FuncTable3
    e123: float
    e123_interval: tuple[float, float]


@dataclass(frozen=True)
class CompatibilityResult:
    compatible: bool
    failures: tuple[str, ...]
    clause_report: InequalityReport
    # the expansions of f, fhat, ftilde the verdict was decided on
    coeffs: tuple[ExpansionCoeffs2, ...] = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {"compatible": self.compatible,
                "failures": list(self.failures),
                "clause_report": self.clause_report.to_dict()}

    def reconstruct(self) -> Reconstruction:
        """A non-negative three-variable table whose pair marginals are the
        decided tables, or IncompatibleMarginalsError naming the failed
        conditions.

        All coefficients except the triple one are fixed by the marginals.  The
        free triple coefficient is bounded entrywise; it is set to 0 when the
        admissible interval contains 0 and to the interval midpoint otherwise,
        and the interval is returned alongside the table.  It is empty when
        its ends cross by more than SLACK_TOL |e0|.
        """
        if not self.compatible:
            raise IncompatibleMarginalsError(self.failures)
        c, chat, ctilde = self.coeffs
        fixed = _in_float_range((c.e0, c.e1, c.e2, chat.e2, c.e12, chat.e12, ctilde.e12))
        # 8 f(S) = base(S) + S1 S2 S3 e123 must be non-negative entrywise
        base = sign_transform(ExpansionCoeffs3(*fixed, 0.0).grid()).ravel()
        even = sign_rows(3).prod(axis=1) > 0
        lo, hi = float(np.max(-base[even])), float(np.min(base[~even]))
        if lo > hi + SLACK_TOL * abs(c.e0):
            raise IncompatibleMarginalsError(
                (f"empty admissible interval for the triple coefficient "
                 f"[{lo}, {hi}]",))
        e123 = 0.0 if lo <= 0.0 <= hi else (lo + hi) / 2.0
        table = synth3(ExpansionCoeffs3(*_in_float_range((*fixed, e123))))
        return Reconstruction(table, e123, (lo, hi))


def marginals_compatible(f: FuncTable2, fhat: FuncTable2, ftilde: FuncTable2,
                         ) -> CompatibilityResult:
    """Decide whether f(S1,S2), fhat(S1,S3), ftilde(S2,S3) are the three pair
    marginals of one non-negative function of (S1,S2,S3).

    Three independently checked conditions: each table is entrywise
    non-negative; the shared coefficients match (e0 common, e1=ehat1,
    e2=etilde1, ehat2=etilde2); and |e +- ehat| <= e0 +- etilde with its two
    interchanges.  Each may miss by SLACK_TOL times the total (|e0|, a table's mass).
    """
    c, chat, ctilde = coeffs = tuple(expand2(t) for t in (f, fhat, ftilde))
    failures = []
    for name, table in zip(("f", "fhat", "ftilde"), (f, fhat, ftilde)):
        if not table.is_nonnegative():
            failures.append(f"{name} has a negative entry "
                            f"(min {float(np.min(table.values))})")
    for desc, a, b in (
        ("e0 = ehat0", c.e0, chat.e0),
        ("e0 = etilde0", c.e0, ctilde.e0),
        ("e1 = ehat1", c.e1, chat.e1),
        ("e2 = etilde1", c.e2, ctilde.e1),
        ("ehat2 = etilde2", chat.e2, ctilde.e2),
    ):
        if abs(a - b) > SLACK_TOL * abs(c.e0):
            failures.append(f"coefficient mismatch {desc}: {a} vs {b}")
    report = MARGINAL_COMPATIBILITY.report(c.e12, chat.e12, ctilde.e12, c.e0)
    for clause in report.violated_clauses():
        failures.append(f"clause failed: {clause.description} "
                        f"(lhs={clause.lhs}, rhs={clause.rhs})")
    return CompatibilityResult(not failures, tuple(failures), report, coeffs)


def reconstruct_f3(f: FuncTable2, fhat: FuncTable2, ftilde: FuncTable2,
                   ) -> Reconstruction:
    """``marginals_compatible(f, fhat, ftilde).reconstruct()``."""
    return marginals_compatible(f, fhat, ftilde).reconstruct()


def _in_float_range(coeffs: tuple) -> tuple:
    """The coefficients, refused unless their absolute sum, which bounds every
    partial sum of their sign transform, is finite."""
    if not math.isfinite(sum(map(abs, coeffs))):
        raise ValueError("the triple table lies beyond the float range: the absolute "
                         "sum of its coefficients overflows")
    return coeffs


def check_weights(weights) -> np.ndarray:
    """The mixture weights as a float array: each finite and non-negative, all
    summing to 1.  Finiteness goes first, as a NaN fails neither comparison."""
    w = np.asarray(weights, dtype=float)
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise ValueError(f"weight {bad[0]} must be finite, got {w[bad[0]]}")
    if np.any(w < -SLACK_TOL):
        raise ValueError("weights must be non-negative")
    if abs(float(w.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {float(w.sum())}")
    return w


@dataclass(frozen=True)
class LambdaModel:
    """Discrete factorized mixture: weights mu(k) over K parameter points and
    three per-point single-variable expectations in [-1, 1]."""

    weights: np.ndarray
    e_a: np.ndarray
    e_b: np.ndarray
    e_c: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty 1-d array")
        arrays = {"weights": check_weights(w)}
        for name in ("e_a", "e_b", "e_c"):
            e = np.asarray(getattr(self, name), dtype=float)
            if e.shape != w.shape:
                raise ValueError(f"{name} must have the same length as weights")
            # written so that a NaN entry fails it too
            if not np.all(np.abs(e) <= 1.0 + SLACK_TOL):
                raise ValueError(f"{name} entries must be finite and lie in [-1, 1]")
            arrays[name] = e
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _single_table(e: np.ndarray) -> np.ndarray:
    # rows: parameter points; columns: S=+1, S=-1
    return np.stack([(1.0 + e) / 2.0, (1.0 - e) / 2.0], axis=1)


def bell_pair_tables(m: LambdaModel) -> tuple[FuncTable2, FuncTable2, FuncTable2]:
    """Weighted sums of products of single-variable tables, pairing
    (e_a, e_b), (e_a, e_c) and (e_b, e_c)."""
    ta, tb, tc = _single_table(m.e_a), _single_table(m.e_b), _single_table(m.e_c)
    w = m.weights

    def pair(u, v):
        return FuncTable2(np.einsum("k,ki,kj->ij", w, u, v))

    return pair(ta, tb), pair(ta, tc), pair(tb, tc)


def bell_triple_table(m: LambdaModel) -> FuncTable3:
    """Weighted sum of triple products; its pair marginals reproduce
    bell_pair_tables."""
    ta, tb, tc = _single_table(m.e_a), _single_table(m.e_b), _single_table(m.e_c)
    return FuncTable3(np.einsum("k,ki,kj,kl->ijl", m.weights, ta, tb, tc))
