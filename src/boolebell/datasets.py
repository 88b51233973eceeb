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
import io
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .reports import (BOOLE_ORDER, SLACK_TOL, ClauseFamily, InequalityReport,
                      boole_terms, six_descriptions, weak_terms)
from .tables import pair_coefficients, sign_codes, sign_rows, sign_transform


@dataclass(frozen=True)
class DichotomicDataset:
    """M n-tuples of +-1 outcomes, immutable after construction."""

    data: np.ndarray

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
class PairCorrelation:
    value: float


def correlations(ds: DichotomicDataset) -> dict[tuple[int, int], float]:
    """Every pair correlation (i, j), keyed as by ``pair_coefficients``, read off
    the 2^n count grid: each numerator is an integer entry of the grid's sign
    transform, exact in float64, so the value is num/M with no rounding error."""
    counts = np.bincount(sign_codes(*ds.data.T), minlength=2 ** ds.n).reshape((2,) * ds.n)
    return {pair: num / ds.m for pair, num in pair_coefficients(sign_transform(counts)).items()}


def correlation(ds: DichotomicDataset, i: int, j: int) -> PairCorrelation:
    """Average of products of columns i and j (1-based, i < j)."""
    if not (1 <= i < j <= ds.n):
        raise ValueError(f"need 1 <= i < j <= {ds.n}, got i={i}, j={j}")
    return PairCorrelation(correlations(ds)[(i, j)])


def require_in_unit_interval(name_value_pairs):
    for name, value in name_value_pairs:
        if not np.isfinite(value) or abs(value) > 1.0 + SLACK_TOL:
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
    require_in_unit_interval([("F12", f12), ("F13", f13), ("F23", f23)])
    return BOOLE_TRIPLE.report(f12, f13, f23)


def check_boole_triple_anticorrelated(f12: float, f13: float, f23: float) -> InequalityReport:
    """Boole family for the anticorrelated-station convention.

    For singlet-style pair experiments, equal settings give opposite outcomes
    at the two stations, so the latent triple lives in the station-2 sign
    convention and the observed correlations enter with flipped sign.  In
    terms of the raw values this yields |F12 +- F13| <= 1 -+ F23 and cyclic
    relabelings.
    """
    require_in_unit_interval([("F12", f12), ("F13", f13), ("F23", f23)])
    return BOOLE_TRIPLE_ANTICORRELATED.report(f12, f13, f23)


def check_pair_bound(f: float, fhat: float, ftilde: float) -> InequalityReport:
    """Correct bound when the three pair averages come from three unrelated
    runs: |F +- Fhat| <= 3 - |Ftilde| and the two symbol interchanges."""
    require_in_unit_interval([("F", f), ("Fhat", fhat), ("Ftilde", ftilde)])
    return PAIR_BOUND.report(f, fhat, ftilde)


def check_chsh(f13: float, f23: float, f14: float, f24: float) -> InequalityReport:
    """CHSH-type bound |F13 - F23 + F14 + F24| <= 2 for quadruple-derived
    correlations, plus the sign variants generated by column negations.

    Negating columns maps the base clause to |u*F13 - v*F23 + w*F14 + uvw*F24|
    with independent u, v, w in {+1,-1}: eight clauses in total.
    """
    require_in_unit_interval(
        [("F13", f13), ("F23", f23), ("F14", f14), ("F24", f24)])
    return CHSH.report(f13, f23, f14, f24)


def dataset_csv_text(data: np.ndarray, newline: str = "\r\n") -> str:
    """CSV text of +-1 rows: the header s1..sn, then one line per row with
    the values written +1/-1.  Every line has the same width, so the text is
    one fixed-width byte string per sign pattern, gathered by row."""
    n = data.shape[1]
    header = ",".join(f"s{i}" for i in range(1, n + 1)) + newline
    lines = np.array([",".join("+1" if s > 0 else "-1" for s in signs) + newline
                      for signs in sign_rows(n).tolist()], dtype=bytes)
    return header + lines[sign_codes(*data.T)].tobytes().decode("ascii")


def write_dataset_csv(ds: DichotomicDataset, path: str | Path) -> None:
    """CSV format: mandatory header s1..sn, one row per tuple, values +1/-1."""
    with open(path, "w", newline="") as fh:
        fh.write(dataset_csv_text(ds.data))


# bytes per read of read_dataset_csv's block route
READ_BLOCK = 1 << 20

# the header lines of the form write_dataset_csv writes, with their arity n
_HEADERS = {",".join(f"s{i}" for i in range(1, n + 1)).encode() + end: n
            for n in (2, 3, 4) for end in (b"\n", b"\r\n")}
# no header or line of that form is longer
_LONGEST_LINE = len(b"+1,+1,+1,+1\r\n")
_ONE, _COMMA, _CR, _NL, _PLUS, _MINUS = b"1,\r\n+-"


def _line_codes(chunk: bytes, n: int) -> np.ndarray | None:
    """Sign codes of the lines in chunk, or None unless every line is n cells
    1, +1 or -1 joined by commas and ends in \\n or \\r\\n."""
    if not chunk:
        return np.zeros(0, dtype=np.uint8)
    b = np.frombuffer(chunk, dtype=np.uint8)
    one, comma, cr, nl, minus = (b == c for c in (_ONE, _COMMA, _CR, _NL, _MINUS))
    sign = minus | (b == _PLUS)
    cell = one | sign   # the bytes that may begin a cell
    # a cell begins the chunk and follows each comma and \n; a sign is followed
    # by 1, \r by \n, and the chunk ends in \n
    if not (cell[0] and nl[-1] and np.all((comma | nl)[:-1] <= cell[1:])
            and np.all(sign[:-1] <= one[1:]) and np.all(cr[:-1] <= nl[1:])):
        return None
    # each 1 ends a cell: a comma follows the first n - 1 of a line, \r or \n
    # the last; so no byte outside the alphabet has a place to stand
    cells = np.flatnonzero(one)
    if cells.size % n:
        return None
    ends = b[cells + 1].reshape(-1, n)
    if not (np.all(ends[:, :-1] == _COMMA)
            and np.all((ends[:, -1] == _CR) | (ends[:, -1] == _NL))):
        return None
    # cells[0] - 1 may be -1, which reads the chunk's final \n
    negative = minus[cells - 1].reshape(-1, n)
    codes = np.zeros(len(negative), dtype=np.uint8)
    for col in negative.T:   # sign_codes' bit order
        codes <<= 1
        codes |= col
    return codes


def _form_codes(fh) -> tuple[int, np.ndarray] | None:
    """The arity n and the sign codes of the rows of a binary file in the form
    of read_dataset_csv's block route, or None for any other file.  The file is
    read in blocks of READ_BLOCK bytes, each block's partial last line being
    carried into the next."""
    n = _HEADERS.get(fh.readline(_LONGEST_LINE))
    if n is None:
        return None
    parts, tail = [], b""
    while block := fh.read(READ_BLOCK):
        chunk = tail + block
        cut = chunk.rfind(b"\n") + 1
        codes, tail = _line_codes(chunk[:cut], n), chunk[cut:]
        if codes is None or len(tail) >= _LONGEST_LINE:
            return None
        parts.append(codes)
    if tail:
        # the last line, lacking its end: one that ends in \r has a lone \r
        codes = _line_codes(tail + b"\n", n) if tail.endswith(b"1") else None
        if codes is None:
            return None
        parts.append(codes)
    if not parts:   # no line after the header
        return None
    return n, np.concatenate(parts)


def read_dataset_csv(path: str | Path) -> DichotomicDataset:
    """Read a dataset CSV: the header s1..sn, then one row of n values per line.

    A file in the form that write_dataset_csv writes is read in blocks of
    READ_BLOCK bytes straight to sign codes, one byte per row, and the rows
    are gathered from the codes; no Python object is made per line or cell.
    That form is: the header exactly s1,..,sn with n in 2..4; every line
    exactly n cells, each 1, +1 or -1; every line ending in \\n or \\r\\n,
    the last one perhaps lacking its end.  Any other file, and any file that
    cannot seek, such as a pipe, is read from the start by the csv module,
    which decides what else is accepted and every error message.
    """
    with open(path, "rb") as fh:
        if fh.seekable():
            found = _form_codes(fh)
            if found is not None:
                n, codes = found
                return DichotomicDataset(sign_rows(n).take(codes, axis=0))
            fh.seek(0)
        with io.TextIOWrapper(fh, newline="") as text:
            return _csv_module_dataset(text, path)


def _csv_module_dataset(fh, path: str | Path) -> DichotomicDataset:
    """The dataset of a CSV text file read by the csv module; the reference
    for the block route of read_dataset_csv."""
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, header s1..sn is mandatory")
        n = len(header)
        if header != [f"s{i}" for i in range(1, n + 1)]:
            raise ValueError(f"{path}: header must be s1..s{n}, got {header}")
        rows = list(reader)
    except csv.Error as exc:   # an oversized field, a NUL byte, ..
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:   # decoded a block at a time, so no line
        raise ValueError(f"{path}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: dataset must contain at least one row")
    values = []
    # lines are numbered from 2, the header being line 1
    for line, row in enumerate(rows, start=2):
        if len(row) != n:
            raise ValueError(f"{path}:{line}: expected {n} columns")
        try:
            # an integer other than +-1 becomes 0, which DichotomicDataset rejects
            values.extend([v if v in (1, -1) else 0 for v in map(int, row)])
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: non-integer value") from exc
    return DichotomicDataset(np.array(values, dtype=np.int8).reshape(len(rows), n))
