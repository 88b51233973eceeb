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

from dataclasses import dataclass, field
from typing import Iterable, Literal

import numpy as np

from .datasets import (BOOLE_TRIPLE, BOOLE_TRIPLE_ANTICORRELATED,
                       DichotomicDataset)
from .reports import count_violated

Birthplace = Literal["a", "b", "c"]
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


def allergy_outcome(birthplace: str, city: int, day: int,
                    scenario: AllergyScenario | None = None) -> int:
    """Test outcome for a patient of the given birthplace examined in the
    given city on the given day; keyed by day parity."""
    return (scenario or AllergyScenario()).outcome(birthplace, city, day)


def _day_schedule(n_days: int, seed: int | None) -> Iterable[int]:
    if n_days < 1:
        raise ValueError("need at least one day")
    if seed is None:
        return range(1, n_days + 1)  # deterministic even/odd alternation
    rng = np.random.default_rng(seed)
    return (int(d) for d in rng.integers(1, 3, size=n_days))  # random parity


def _allergy_gamma(n_days, scenario, seed, products) -> float:
    """Average over the schedule of the sum of outcome products, each factor
    a (birthplace, city) pair."""
    sc = scenario or AllergyScenario()
    days = list(_day_schedule(n_days, seed))
    return sum(sc.outcome(*x, day) * sc.outcome(*y, day)
               for day in days for x, y in products) / len(days)


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


def sample_pair_arrays(model: FactorizableModel, a: float, b: float,
                       rng: np.random.Generator, count: int,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized draw of (phi, S, S') for `count` emissions.

    phi ~ U[0, 2pi); r ~ U[-1, 1]; S = sign(cos(phi - a) - r).  Station 2:
    identical thresholds use r' = r, opposite thresholds r' = -r, both with
    orientation phi; the uniform law draws an independent r' and the source
    is anti-aligned, so station 2 responds to orientation phi + pi.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    phi = rng.uniform(0.0, 2.0 * np.pi, count)
    r = rng.uniform(-1.0, 1.0, count)
    s1 = _threshold_signs(phi - a, r)
    if model.mu_kind == "uniform":
        s2 = _threshold_signs(phi + np.pi - b, rng.uniform(-1.0, 1.0, count))
    elif model.mu_kind == "delta_equal":
        s2 = _threshold_signs(phi - b, r)
    else:  # delta_opposite: cos(phi - b) + r >= 0, i.e. cos(phi - b) >= -r
        s2 = _threshold_signs(phi - b, np.negative(r, out=r))
    return phi, s1, s2


def _threshold_signs(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """int8 outcomes, +1 where cos(x) >= r and -1 elsewhere; the cosine is
    taken in place in x.  For doubles cos(x) >= r equals cos(x) - r >= 0."""
    np.cos(x, out=x)
    return np.where(x >= r, np.int8(1), np.int8(-1))


def station_orientations(model: FactorizableModel, phi: np.ndarray,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Local source orientation seen by each station for a batch of events."""
    if model.mu_kind == "uniform":
        return phi, phi + np.pi
    return phi, phi


def sample_pair(model: FactorizableModel, a: float, b: float,
                seed: int, count: int) -> DichotomicDataset:
    """Seeded pair dataset drawn from the model at settings (a, b)."""
    rng = np.random.default_rng(seed)
    _, s1, s2 = sample_pair_arrays(model, a, b, rng, count)
    return DichotomicDataset(np.column_stack([s1, s2]))


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
    return (4.0 / np.pi) * abs(np.cos(d / 2.0)) - 1.0


def analytic_correlation(model: FactorizableModel, a: float, b: float) -> float:
    """Exact pair correlation E(a, b) of the model (see ``correlation_law``)."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("angles must be finite")
    return float(correlation_law(model.mu_kind, a - b))


def common_parameter_fit(model: FactorizableModel, a: float, b: float, c: float):
    """Search for a shared-parameter product representation of the three pair
    distributions at settings (a,b), (a,c), (b,c).

    A representation with one parameter shared across all three setting pairs
    exists exactly when one joint three-variable distribution has the three
    pair tables as marginals (take the outcome triple itself as the
    parameter), so the search reduces to the marginal-compatibility
    feasibility check.  The identical-threshold law always admits one; the
    opposite-threshold law fails at suitable angles, showing that its pairing
    of thresholds cannot be rewritten with a single shared parameter.
    """
    from .tables import ExpansionCoeffs2, marginals_compatible, synth2

    tabs = [synth2(ExpansionCoeffs2(1.0, 0.0, 0.0, analytic_correlation(model, x, y)))
            for x, y in ((a, b), (a, c), (b, c))]
    return marginals_compatible(*tabs)


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


def _scan(family, angles, cols) -> tuple[int, WorstWitness]:
    """Points with a violated clause, and the first clause of minimal slack
    in (point, clause) order, rebuilt as a single-point report."""
    slacks = family.slacks(*cols)
    row, col = np.unravel_index(int(np.argmin(slacks)), slacks.shape)
    cl = family.report(*(x[row] for x in cols)).clauses[col]
    return count_violated(slacks), WorstWitness(
        tuple(float(x[row]) for x in angles), cl.description, cl.lhs, cl.rhs, cl.slack)


def _chsh_scan(emat: np.ndarray) -> tuple[int, float, tuple[int, int, int, int]]:
    """Violation count, maximum and first argmax in (a, b, c, d) order of
    |E(a,b) - E(a,c) + E(d,b) + E(d,c)| over the grid, one n^3 slab per a.

    emat is symmetric (every law is an even function of a - b); the sum is
    formed as ((E[a,b] - E[a,c]) + E[b,d]) + E[c,d], the association of the
    full n^4 tensor, so every value is bit-identical to it.
    """
    n = len(emat)
    slab = np.empty((n, n, n))
    count, best, where = 0, -1.0, (0, 0, 0, 0)
    for a in range(n):
        np.add((emat[a, :, None] - emat[a, None, :])[:, :, None], emat[:, None, :],
               out=slab)
        slab += emat[None, :, :]
        np.abs(slab, out=slab)
        count += int(np.count_nonzero(slab > 2.0 + 1e-12))
        top = float(slab.max())
        if top > best:
            best = top
            where = (a, *(int(i) for i in np.unravel_index(int(slab.argmax()), slab.shape)))
    return count, best, where


def model_inequality_sweep(model: FactorizableModel, grid: Iterable[float],
                           chsh: bool = True) -> SweepSummary:
    """Evaluate, for every angle triple on the grid, the Bell-type clauses
    |E(a,b) +- E(a,c)| <= 1 -+ E(b,c) (anti-correlated convention, the form
    relevant to pair experiments mimicking a spin singlet) together with the
    direct Boole family, and for every quadruple the CHSH combination
    E(a,b) - E(a,c) + E(d,b) + E(d,c).

    Triples are the ``combinations_with_replacement`` of the grid, in that
    order; a worst witness is the first clause of minimal slack.  Memory is
    O(n^3) in the number n of angles: the peak is about 37 n^3 bytes.
    """
    angles = np.array([float(x) for x in grid])
    if not angles.size:
        raise ValueError("grid must contain at least one angle")
    if not np.all(np.isfinite(angles)):
        raise ValueError("angles must be finite")
    emat = correlation_law(model.mu_kind, angles[:, None] - angles[None, :])
    n = len(angles)
    r = np.arange(n)
    ia, ib, ic = np.nonzero((r[:, None, None] <= r[None, :, None])
                            & (r[None, :, None] <= r[None, None, :]))
    triples = (angles[ia], angles[ib], angles[ic])
    cols = (emat[ia, ib], emat[ia, ic], emat[ib, ic])
    bell_count, worst_bell = _scan(BOOLE_TRIPLE_ANTICORRELATED, triples, cols)
    boole_count, worst_boole = _scan(BOOLE_TRIPLE, triples, cols)

    n_quads, chsh_count, chsh_max, worst_chsh = 0, 0, 0.0, None
    if chsh:
        n_quads = n ** 4
        chsh_count, chsh_max, quad = _chsh_scan(emat)
        worst_chsh = WorstWitness(
            tuple(float(angles[i]) for i in quad),
            "|E(a,b) - E(a,c) + E(d,b) + E(d,c)| <= 2",
            chsh_max, 2.0, 2.0 - chsh_max)
    return SweepSummary(model.mu_kind, len(ia), bell_count, worst_bell,
                        boole_count, worst_boole, n_quads, chsh_count,
                        chsh_max, worst_chsh)
