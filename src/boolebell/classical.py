"""Classical scenarios that appear to violate Boole/Bell-type bounds.

Two engines:

* An allergy-testing story: outcomes depend on the examination city and the
  day parity through a fixed 18-entry lookup.  Collected as triples (one
  patient type per city) the pair-product sum averages to exactly -1, the
  arithmetic bound.  Collected as pairs by two doctors who drop the city
  label it averages to exactly -3, an apparent violation whose cause is the
  discarded label, not any physics.

* A factorizable hidden-variable model: the source draws an angle phi
  uniformly and a threshold pair (r, r'); each station reports the sign of
  cos(phi - setting) - threshold.  Three threshold laws are implemented:
  independent uniform thresholds with an anti-aligned source (station 2 sees
  orientation phi + pi), identical thresholds (r' = r), and opposite
  thresholds (r' = -r).  All three reproduce the cos^2 single-station law
  with respect to the station's local orientation.  The opposite-threshold
  law violates the Bell-type clauses for anti-correlated conventions while
  still satisfying the CHSH bound.

Setting angles are kept as raw reals and never reduced modulo 2 pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Literal

import numpy as np

from .datasets import BOOLE_TRIPLE, BOOLE_TRIPLE_ANTICORRELATED
from .reports import SLACK_TOL, grid_sweep, require_finite_span
from .tables import CountTable, blocks, code_signs, draw_uniform, stream_cursors

MuKind = Literal["uniform", "delta_equal", "delta_opposite"]

# lookup[(birthplace, city, parity)] -> outcome
STANDARD_ALLERGY_TABLE: dict[tuple[str, int, str], int] = {
    ("a", 1, "even"): +1, ("a", 2, "even"): +1, ("a", 3, "even"): +1,
    ("b", 1, "even"): +1, ("b", 2, "even"): -1, ("b", 3, "even"): +1,
    ("c", 1, "even"): -1, ("c", 2, "even"): -1, ("c", 3, "even"): -1,
    ("a", 1, "odd"): -1, ("a", 2, "odd"): -1, ("a", 3, "odd"): -1,
    ("b", 1, "odd"): -1, ("b", 2, "odd"): +1, ("b", 3, "odd"): -1,
    ("c", 1, "odd"): +1, ("c", 2, "odd"): +1, ("c", 3, "odd"): +1,
}


@dataclass(frozen=True)
class AllergyScenario:
    """Outcome lookup keyed by (birthplace, city, day parity)."""

    lookup: dict = field(default_factory=lambda: dict(STANDARD_ALLERGY_TABLE))

    def __post_init__(self):
        for o in "abc":
            for l in (1, 2, 3):
                for parity in ("even", "odd"):
                    v = self.lookup.get((o, l, parity))
                    if v not in (+1, -1):
                        raise ValueError(f"missing or invalid entry ({o}, {l}, {parity})")

    def outcome(self, birthplace: str, city: int, day: int) -> int:
        if birthplace not in ("a", "b", "c"):
            raise ValueError(f"unknown birthplace {birthplace!r}")
        if city not in (1, 2, 3):
            raise ValueError(f"unknown city {city}")
        parity = "even" if day % 2 == 0 else "odd"
        return self.lookup[(birthplace, city, parity)]


def _even_days(n_days: int, seed: int | None) -> int:
    """Even days in the schedule: parity alternates from day 1 without a
    seed; with one, each day is even with probability 1/2, so their number is
    one binomial draw, whose domain ends at numpy's int64 range."""
    if n_days < 1:
        raise ValueError("need at least one day")
    if seed is None:
        return n_days // 2
    if n_days > np.iinfo(np.int64).max:
        raise ValueError(f"a seeded schedule takes at most 2^63 - 1 days, got {n_days}")
    return int(np.random.default_rng(seed).binomial(n_days, 0.5))


def _allergy_gamma(n_days, scenario, seed, products) -> float:
    """Average over the schedule of the sum of outcome products, each factor
    a (birthplace, city) pair.  Outcomes depend only on the day parity, so
    the integer total is summed once per parity, weighted by its day count."""
    sc = scenario or AllergyScenario()
    even = _even_days(n_days, seed)
    return sum(count * sc.outcome(*x, day) * sc.outcome(*y, day)
               for count, day in ((even, 2), (n_days - even, 1))
               for x, y in products) / n_days


def allergy_gamma_triples(n_days: int, scenario: AllergyScenario | None = None,
                          seed: int | None = None) -> float:
    """Average of A_a^1 A_b^2 + A_a^1 A_c^3 + A_b^2 A_c^3 over the schedule:
    each doctor examines one patient type in one city, so each day yields a
    genuine triple and the average is bounded below by -1."""
    a1, b2, c3 = ("a", 1), ("b", 2), ("c", 3)
    return _allergy_gamma(n_days, scenario, seed, ((a1, b2), (a1, c3), (b2, c3)))


def allergy_gamma_pairs(n_days: int, scenario: AllergyScenario | None = None,
                        seed: int | None = None) -> float:
    """Average of A_a^1 A_b^2 + A_a^1 A_c^2 + A_b^1 A_c^2 over the schedule:
    two doctors examine two patient types each and drop the city label, so
    the six factors are no longer three shared variables and the -1 bound is
    not derivable.  The standard table gives exactly -3."""
    a1, b1, b2, c2 = ("a", 1), ("b", 1), ("b", 2), ("c", 2)
    return _allergy_gamma(n_days, scenario, seed, ((a1, b2), (a1, c2), (b1, c2)))


@dataclass(frozen=True)
class FactorizableModel:
    """Threshold-detection pair model, selected by the threshold law."""

    mu_kind: MuKind

    def __post_init__(self):
        if self.mu_kind not in ("uniform", "delta_equal", "delta_opposite"):
            raise ValueError(f"unknown mu_kind {self.mu_kind!r}")

    # whole draws of doubles per sample: phi, r and the uniform law's r'
    streams = property(lambda self: 3 if self.mu_kind == "uniform" else 2)


def sample_pair_arrays(model: FactorizableModel, a: float, b: float,
                       rng: np.random.Generator, count: int,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(phi, S, S') for `count` emissions as whole arrays, S and S' the int8
    +-1 columns of ``threshold_codes``: phi, r and r' are rng's next whole
    draws of count doubles, drawn block by block from its stream cursors."""
    pairs = _pair_blocks(model, a, b, rng, count)
    phi = np.empty(count)
    s1, s2 = np.empty((2, count), dtype=np.int8)
    for block, phi[block], codes in pairs:
        s1[block], s2[block] = code_signs(codes, 2)
    return phi, s1, s2


def _pair_blocks(model: FactorizableModel, a: float, b: float,
                 rng: np.random.Generator, count: int):
    """Checks the count, then yields lazily each block of the count
    emissions, its phi and its sign codes."""
    if count < 1:
        raise ValueError("need at least one sample")
    if count > 2 ** 53:  # the largest count a CountTable holds exactly
        raise ValueError(f"need 1 to 2^53 samples, got {count}")
    cursors = stream_cursors(rng, count, model.streams)
    return ((block, *threshold_codes(model, a, b, cursors, block.stop - block.start))
            for block in blocks(count))


def threshold_codes(model: FactorizableModel, a: float, b: float,
                    cursors: list[np.random.Generator], size: int,
                    ) -> tuple[np.ndarray, np.ndarray]:
    """phi and the sign codes (S, S') of ``size`` emissions from the model's
    stream cursors: phi ~ U[0, 2pi) from the first, r ~ U[-1, 1] from the
    second, S = sign(cos(phi - a) - r).  Station 2: identical thresholds use
    r' = r, opposite thresholds r' = -r, both with orientation phi; the
    uniform law draws r' from the third cursor and the source is
    anti-aligned, so station 2 responds to orientation phi + pi."""
    phi = draw_uniform(cursors[0], 0.0, 2.0 * np.pi, size)
    r = draw_uniform(cursors[1], -1.0, 1.0, size)
    up1 = _threshold_up(phi, a, r)
    if model.mu_kind == "uniform":
        up2 = _threshold_up(phi, b, draw_uniform(cursors[2], -1.0, 1.0, size), anti_aligned=True)
    elif model.mu_kind == "delta_equal":
        up2 = _threshold_up(phi, b, r)
    else:  # delta_opposite: cos(phi - b) + r >= 0, i.e. cos(phi - b) >= -r
        up2 = _threshold_up(phi, b, np.negative(r, out=r))
    codes = np.invert(up1, out=up1).view(np.uint8) << 1
    codes |= np.invert(up2, out=up2)
    return phi, codes


def _threshold_up(phi: np.ndarray, setting: float, r: np.ndarray,
                  anti_aligned: bool = False) -> np.ndarray:
    """cos(x) >= r for one block, x = phi - setting, or x = (phi + pi) -
    setting at an anti-aligned station.

    The sign of the float32 screen d = cos(fl32(x)) - fl32(r) decides
    wherever |d| > tol, with tol = 2^-20 max|x| + 2^-18 over the block:
    rounding x moves the cosine by at most 2^-24 |x|, and the rest of the
    float32 error is a few ulps.  Every other event (a NaN d included), and
    every event of a block whose tol is not below 2 or is NaN (there x may
    lie beyond the float32 range), takes the float64 rule np.cos(x) >= r, so
    the outcomes are that rule's bit for bit.
    """
    x = (phi + np.pi if anti_aligned else phi) - setting
    tol = 2.0 ** -20 * float(np.abs(x).max()) + 2.0 ** -18
    if not tol < 2.0:
        return np.cos(x, out=x) >= r
    d = np.cos(x.astype(np.float32))
    np.subtract(d, r, out=d, dtype=np.float32, casting="same_kind")
    up = d > 0.0
    near = np.flatnonzero(~(np.abs(d) > tol))
    up[near] = np.cos(x[near]) >= r[near]
    return up


def station_orientations(model: FactorizableModel, phi: np.ndarray,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Local source orientation seen by each station for a batch of events."""
    if model.mu_kind == "uniform":
        return phi, phi + np.pi
    return phi, phi


def sample_pair(model: FactorizableModel, a: float, b: float,
                seed: int, count: int) -> CountTable:
    """The counts of a seeded pair sample drawn from the model at settings
    (a, b): those of ``sample_pair_arrays`` from ``default_rng(seed)``,
    counted block by block, so memory does not grow with the count."""
    counts = np.zeros(4, dtype=np.int64)
    for _, _, codes in _pair_blocks(model, a, b, np.random.default_rng(seed), count):
        counts += np.bincount(codes, minlength=4)
    return CountTable(counts.reshape(2, 2))


def correlation_law(mu_kind: str, d):
    """Exact pair correlation of the model as a function of the setting
    difference d = a - b, for a float or elementwise for an array.

    uniform:        -cos(d) / 2
    delta_equal:    1 - (4/pi) |sin(d / 2)|
    delta_opposite: (4/pi) |cos(d / 2)| - 1
    """
    if mu_kind == "uniform":
        return -np.cos(d) / 2.0
    if mu_kind == "delta_equal":
        return 1.0 - (4.0 / np.pi) * abs(np.sin(d / 2.0))
    if mu_kind == "delta_opposite":
        return (4.0 / np.pi) * abs(np.cos(d / 2.0)) - 1.0
    raise ValueError(f"unknown mu_kind {mu_kind!r}")


def analytic_correlation(model: FactorizableModel, a: float, b: float) -> float:
    """Exact pair correlation E(a, b) of the model (see ``correlation_law``)."""
    # Python float arithmetic overflows to inf without a numpy warning
    d = float(a) - float(b)
    if not math.isfinite(d):
        raise ValueError(f"angles and their difference must be finite, got a={a}, b={b}")
    return float(correlation_law(model.mu_kind, d))


@dataclass(frozen=True)
class WorstWitness:
    angles: tuple[float, ...]
    clause: str
    lhs: float
    rhs: float
    slack: float

    def to_dict(self) -> dict:
        return {**vars(self), "angles": list(self.angles)}


@dataclass(frozen=True)
class SweepSummary:
    mu_kind: str
    n_triples: int
    bell_violations: int
    worst_bell: WorstWitness | None
    boole_violations: int
    worst_boole: WorstWitness | None
    n_quadruples: int
    chsh_violations: int
    chsh_max: float
    worst_chsh: WorstWitness | None

    def to_dict(self) -> dict:
        return {name: value.to_dict() if isinstance(value, WorstWitness) else value
                for name, value in vars(self).items()}


def _scan(family, angles, emat, triples) -> tuple[int, WorstWitness]:
    """Triples with a violated clause, and the first clause of minimal slack
    in (triple, clause) order, rebuilt as a single-point report."""
    def cols(block):   # a slice of the triples, or one triple
        a, b, c = (x[block] for x in triples)
        return emat[a, b], emat[a, c], emat[b, c]

    s = grid_sweep(family, cols, len(triples[0]))
    cl = family.report(*cols(s.worst_point)).clauses[s.worst_clause]
    return s.violations, WorstWitness(tuple(float(angles[x[s.worst_point]]) for x in triples),
                                      cl.description, cl.lhs, cl.rhs, cl.slack)


# elements per block of the CHSH screen: each float64 temporary stays inside
# the L2 cache, and grids of up to 32 angles are screened in one pass
CHSH_BLOCK = 1 << 15


def _chsh_pieces(emat: np.ndarray, limit: float):
    """Exact |S| = |((E[a,b] - E[a,c]) + E[b,d]) + E[c,d]| for the candidate
    triples in increasing flat order, as (values, triples, exceeds):
    values[k, d] belongs to the flat triple index triples[k] = (a n + b) n + c,
    and exceeds is False where no value can be above the limit.

    The screen bounds |S| over every d, for each triple in blocks of a, by
    max(x + ymax, -(x + ymin)) = |x + (ymax + ymin)/2| + (ymax - ymin)/2,
    x = E[a,b] - E[a,c] and ymax, ymin the extremes over d of
    E[b,d] + E[c,d]: within a few ulps of the largest |S|, under 1e-14 for
    |E| <= 1.  A triple is a candidate when its bound reaches
    min(M, limit) - margin, M the largest bound so far and the margin
    2^-40 max(1, max|E|): no other triple can reach the maximum of |S| or
    exceed the limit.
    """
    n = len(emat)
    margin = 2.0 ** -40 * max(1.0, float(np.abs(emat).max()))
    rows = min(n, max(1, CHSH_BLOCK // (n * n)))
    # one block of temporaries serves the sums y and the bounds
    buf = np.empty(rows * n * n)
    # y[d, b, c] = E[b,d] + E[c,d]
    et = np.ascontiguousarray(emat.T)
    ymax, ymin = np.empty((n, n)), np.empty((n, n))
    for lo in range(0, n, rows):
        r = min(rows, n - lo)
        y = np.add(et[:, lo:lo + r, None], et[:, None, :], out=buf[:r * n * n].reshape(n, r, n))
        np.maximum.reduce(y, axis=0, out=ymax[lo:lo + r])
        np.minimum.reduce(y, axis=0, out=ymin[lo:lo + r])
    mid, half = (ymax + ymin) / 2.0, (ymax - ymin) / 2.0

    screen_max = -np.inf
    for lo in range(0, n, rows):
        r = min(rows, n - lo)
        bound = np.subtract(emat[lo:lo + r, :, None], emat[lo:lo + r, None, :],
                            out=buf[:r * n * n].reshape(r, n, n))
        bound += mid
        np.abs(bound, out=bound)
        bound += half
        top = float(bound.max())
        screen_max = max(screen_max, top)
        exceeds = top >= limit - margin
        triples = np.flatnonzero(bound >= min(screen_max, limit) - margin) + lo * n * n
        # n^2/4 triples at a time: the values and one gathered block of rows
        # take 4 n^3 bytes at most
        step = max(1, n * n // 4)
        for i in range(0, len(triples), step):
            t = triples[i:i + step]
            a, bc = np.divmod(t, n * n)
            b, c = np.divmod(bc, n)
            vals = (emat[a, b] - emat[a, c])[:, None] + emat[b]
            vals += emat[c]
            yield np.abs(vals, out=vals), t, exceeds


def _chsh_scan(emat: np.ndarray) -> tuple[int, float, tuple[int, int, int, int]]:
    """Violation count, maximum and first argmax in (a, b, c, d) order of
    |E(a,b) - E(a,c) + E(d,b) + E(d,c)| over the grid, in O(n^3) time
    outside the candidate triples of ``_chsh_pieces``.

    emat is symmetric (every law is an even function of a - b); the sum is
    formed as ((E[a,b] - E[a,c]) + E[b,d]) + E[c,d], the association of the
    full n^4 tensor, and the three results come from the exact values of
    the candidates alone, so every one is bit-identical to the tensor's.
    """
    n = len(emat)
    limit = 2.0 + SLACK_TOL
    count, best, where = 0, -1.0, 0
    for vals, triples, exceeds in _chsh_pieces(emat, limit):
        if exceeds:
            count += int(np.count_nonzero(vals > limit))
        top = float(vals.max())
        # pieces arrive in flat order: a tie keeps the earlier argmax
        if top > best:
            i = int(vals.argmax())
            best, where = top, int(triples[i // n]) * n + i % n
    return count, best, tuple(int(i) for i in np.unravel_index(where, (n,) * 4))


def model_inequality_sweep(model: FactorizableModel, grid: Iterable[float],
                           chsh: bool = True) -> SweepSummary:
    """Evaluate, for every angle triple on the grid, the Bell-type clauses
    |E(a,b) +- E(a,c)| <= 1 -+ E(b,c) (anti-correlated convention, the form
    relevant to pair experiments mimicking a spin singlet) together with the
    direct Boole family, and for every quadruple the CHSH combination
    E(a,b) - E(a,c) + E(d,b) + E(d,c).

    Triples are the ``combinations_with_replacement`` of the grid, in that
    order; a worst witness is the first clause of minimal slack.  Time is
    O(n^3) in the number n of angles plus n per CHSH candidate triple (see
    ``_chsh_pieces``); candidates are a small share of the triples on model
    grids, but nearly all of them on a grid of a few distinct angles
    repeated, which costs O(n^4) like the full tensor.  Memory is O(n^3):
    the Boole families gather their correlations one block of triples at a
    time (``reports.grid_sweep``), so past a few MB of block temporaries
    their peak is set by the triple indices: 5.95 n^3 bytes at 145 angles,
    5.1 n^3 at 300.  These are freed before the CHSH scan, which takes about
    1.1 n^3 bytes at 145 angles and 6.8 n^3 on 120 angles alternating 0, pi.
    """
    angles = np.array([float(x) for x in grid])
    if not angles.size:
        raise ValueError("grid must contain at least one angle")
    require_finite_span(angles)
    emat = correlation_law(model.mu_kind, angles[:, None] - angles[None, :])
    n = len(angles)
    le = np.less_equal.outer(np.arange(n), np.arange(n))
    triples = np.nonzero(le[:, :, None] & le)   # a <= b <= c
    bell_count, worst_bell = _scan(BOOLE_TRIPLE_ANTICORRELATED, angles, emat, triples)
    boole_count, worst_boole = _scan(BOOLE_TRIPLE, angles, emat, triples)
    del triples  # free the indices before the CHSH scan

    n_quads, chsh_count, chsh_max, worst_chsh = 0, 0, 0.0, None
    if chsh:
        n_quads = n ** 4
        chsh_count, chsh_max, quad = _chsh_scan(emat)
        worst_chsh = WorstWitness(
            tuple(float(angles[i]) for i in quad),
            "|E(a,b) - E(a,c) + E(d,b) + E(d,c)| <= 2",
            chsh_max, 2.0, 2.0 - chsh_max)
    return SweepSummary(model.mu_kind, math.comb(n + 2, 3), bell_count, worst_bell,
                        boole_count, worst_boole, n_quads, chsh_count,
                        chsh_max, worst_chsh)
