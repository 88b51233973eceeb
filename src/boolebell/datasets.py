"""Finite datasets of dichotomic n-tuples and the arithmetic bounds on their
pair correlations.

A dataset is M rows of n values, each value exactly +1 or -1.  Pair
correlations are averages of products of two columns.  When all pairs are
taken from one set of triples (or quadruples), elementary integer arithmetic
forces the Boole (or CHSH-type) inequalities; when the pairs come from three
unrelated runs, only the much weaker 3-bound survives.  The checks here
implement exactly those clause families.

``check_boole_triple_anticorrelated`` covers the singlet-style convention in
which the two stations of a pair experiment report opposite signs for equal
settings: the triples hypothesis then concerns the sign-flipped station-2
variables, which maps the Boole clauses to ``|F12 +- F13| <= 1 -+ F23``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, product, repeat
from pathlib import Path

import numpy as np

from .reports import (BOOLE_ORDER, ClauseFamily, InequalityReport, boole_terms,
                      six_descriptions, weak_terms)

_RANGE_TOL = 1e-12


@dataclass(frozen=True)
class DichotomicDataset:
    """M labeled n-tuples of +-1 outcomes, immutable after construction."""

    data: np.ndarray
    run_label: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise ValueError("data must be a 2-d array of shape (M, n)")
        m, n = arr.shape
        if m < 1:
            raise ValueError("dataset must contain at least one tuple")
        if n not in (2, 3, 4):
            raise ValueError(f"tuple arity must be 2, 3 or 4, got {n}")
        # checked before the cast, which would map 1.5 to 1 and 255 to -1
        if not np.all(np.abs(arr) == 1):
            raise ValueError("every entry must be exactly +1 or -1")
        arr = arr.astype(np.int8, copy=False)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[1]

    @property
    def m(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class ReducedDataset:
    """Projection of a dataset onto a strictly increasing index subset (1-based)."""

    parent_arity: int
    indices: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.int8)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def m(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class PairCorrelation:
    value: float
    i: int
    j: int
    source_arity: int


def reduce_dataset(ds: DichotomicDataset, indices: tuple[int, ...]) -> ReducedDataset:
    """Project every row onto the given strictly increasing 1-based indices."""
    idx = tuple(int(i) for i in indices)
    if any(i < 1 or i > ds.n for i in idx):
        raise ValueError(f"indices must lie in 1..{ds.n}, got {idx}")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError(f"indices must be strictly increasing, got {idx}")
    cols = [i - 1 for i in idx]
    return ReducedDataset(ds.n, idx, ds.data[:, cols])


def correlation(ds: DichotomicDataset, i: int, j: int) -> PairCorrelation:
    """Average of products of columns i and j (1-based, i < j).

    The numerator is an exact integer sum, so the value is num/M with no
    accumulation error.
    """
    if not (1 <= i < j <= ds.n):
        raise ValueError(f"need 1 <= i < j <= {ds.n}, got i={i}, j={j}")
    num = int(np.sum(ds.data[:, i - 1].astype(np.int64) * ds.data[:, j - 1]))
    return PairCorrelation(num / ds.m, i, j, ds.n)


def _require_in_unit_interval(name_value_pairs):
    for name, value in name_value_pairs:
        if not np.isfinite(value) or abs(value) > 1.0 + _RANGE_TOL:
            raise ValueError(f"{name}={value} outside [-1, 1]")


BOOLE_TRIPLE = ClauseFamily(
    "boole_triple", six_descriptions("|F{i}{j} {s} F{i}{k}| <= 1 {s} F{j}{k}", BOOLE_ORDER),
    lambda f12, f13, f23: boole_terms(f12, f13, f23, 1.0))

# Negating all three correlations maps the direct family onto the
# anticorrelated one bit for bit: |-x - y| = |x + y| and 1 + (-z) = 1 - z.
BOOLE_TRIPLE_ANTICORRELATED = ClauseFamily(
    "boole_triple_anticorrelated",
    six_descriptions("|F{i}{j} {s} F{i}{k}| <= 1 {t} F{j}{k} (anticorrelated convention)",
                     BOOLE_ORDER),
    lambda f12, f13, f23: boole_terms(-f12, -f13, -f23, 1.0))

PAIR_BOUND = ClauseFamily(
    "pair_bound",
    six_descriptions("|{i} {s} {j}| <= 3 - |{k}|", (("F", "Fhat", "Ftilde"),
                                                     ("F", "Ftilde", "Fhat"),
                                                     ("Ftilde", "Fhat", "F"))),
    lambda f, fhat, ftilde: weak_terms(f, fhat, ftilde, 3.0))


# (u, v, w) in product order; the F24 sign is u v w
_CHSH_SIGNS = tuple(product((+1, -1), repeat=3))

CHSH = ClauseFamily(
    "chsh",
    tuple("|({}F13) - ({}F23) + ({}F14) + ({}F24)| <= 2".format(
        *("+" if s > 0 else "-" for s in (u, v, w, u * v * w))) for u, v, w in _CHSH_SIGNS),
    lambda f13, f23, f14, f24: tuple(
        (abs(u * f13 - v * f23 + w * f14 + u * v * w * f24), 2.0) for u, v, w in _CHSH_SIGNS))


def check_boole_triple(f12: float, f13: float, f23: float) -> InequalityReport:
    """Six-clause Boole family |Fij +- Fik| <= 1 +- Fjk for pair averages of
    one set of triples.  Mathematically unviolable for triple-derived data."""
    _require_in_unit_interval([("F12", f12), ("F13", f13), ("F23", f23)])
    return BOOLE_TRIPLE.report(f12, f13, f23)


def check_boole_triple_anticorrelated(f12: float, f13: float, f23: float) -> InequalityReport:
    """Boole family for the anticorrelated-station convention.

    For singlet-style pair experiments, equal settings give opposite outcomes
    at the two stations, so the latent triple lives in the station-2 sign
    convention and the observed correlations enter with flipped sign.  In
    terms of the raw values this yields |F12 +- F13| <= 1 -+ F23 and cyclic
    relabelings.
    """
    _require_in_unit_interval([("F12", f12), ("F13", f13), ("F23", f23)])
    return BOOLE_TRIPLE_ANTICORRELATED.report(f12, f13, f23)


def check_pair_bound(f: float, fhat: float, ftilde: float) -> InequalityReport:
    """Correct bound when the three pair averages come from three unrelated
    runs: |F +- Fhat| <= 3 - |Ftilde| and the two symbol interchanges."""
    _require_in_unit_interval([("F", f), ("Fhat", fhat), ("Ftilde", ftilde)])
    return PAIR_BOUND.report(f, fhat, ftilde)


def check_chsh(f13: float, f23: float, f14: float, f24: float) -> InequalityReport:
    """CHSH-type bound |F13 - F23 + F14 + F24| <= 2 for quadruple-derived
    correlations, plus the sign variants generated by column negations.

    Negating columns maps the base clause to |u*F13 - v*F23 + w*F14 + uvw*F24|
    with independent u, v, w in {+1,-1}: eight clauses in total.
    """
    _require_in_unit_interval(
        [("F13", f13), ("F23", f23), ("F14", f14), ("F24", f24)])
    return CHSH.report(f13, f23, f14, f24)


def dataset_csv_text(data: np.ndarray, newline: str = "\r\n") -> str:
    """CSV text of +-1 rows: the header s1..sn, then one line per row with
    the values written +1/-1.  Every line has the same width, so the text is
    one fixed-width byte string per sign pattern, gathered by row."""
    n = data.shape[1]
    header = ",".join(f"s{i}" for i in range(1, n + 1)) + newline
    # sign patterns in product((+1, -1)) order: pattern k has S_i = -1
    # where bit n - i of k is set
    lines = np.array([",".join("+1" if s > 0 else "-1" for s in signs) + newline
                      for signs in product((1, -1), repeat=n)], dtype=bytes)
    pattern = (data < 0) @ (1 << np.arange(n - 1, -1, -1))
    return header + lines[pattern].tobytes().decode("ascii")


def write_dataset_csv(ds: DichotomicDataset, path: str | Path) -> None:
    """CSV format: mandatory header s1..sn, one row per tuple, values +1/-1."""
    with open(path, "w", newline="") as fh:
        fh.write(dataset_csv_text(ds.data))


# how csv cells parse; any other cell goes through int() and, if it is an
# integer other than +-1, becomes 0, which DichotomicDataset rejects
_CELL_VALUES = {"1": 1, "+1": 1, "-1": -1}
_OTHER = 2


def read_dataset_csv(path: str | Path, run_label: str | None = None) -> DichotomicDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, header s1..sn is mandatory")
        n = len(header)
        if header != [f"s{i}" for i in range(1, n + 1)]:
            raise ValueError(f"{path}: header must be s1..s{n}, got {header}")
        rows = list(reader)
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    wrong_width = np.flatnonzero(widths != n)
    # the rows before the first one of the wrong width; lines are numbered
    # from 2, the header being line 1
    good = len(rows) if wrong_width.size == 0 else int(wrong_width[0])
    cells = list(chain.from_iterable(rows[:good]))
    values = np.fromiter(map(_CELL_VALUES.get, cells, repeat(_OTHER)),
                         dtype=np.int8, count=len(cells))
    for k in np.flatnonzero(values == _OTHER).tolist():
        try:
            value = int(cells[k])
        except ValueError as exc:
            raise ValueError(f"{path}:{k // n + 2}: non-integer value") from exc
        values[k] = value if value in (1, -1) else 0
    if good < len(rows):
        raise ValueError(f"{path}:{good + 2}: expected {n} columns")
    if not rows:
        raise ValueError(f"{path}: dataset must contain at least one row")
    return DichotomicDataset(values.reshape(good, n), run_label=run_label)
