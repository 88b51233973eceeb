"""Flux qubit probed by three sequential spin-1/2 probes.

A two-state system tunneling at angular frequency omega is probed at times
t1 <= t2 <= t3 by three probes prepared along +y, each coupled to the system
just strongly enough to copy its state (the maximal-correlation limit).  The
exact four-spin wave function after the third probe is a product of sines and
cosines of omega * Delta t_i; measuring the three probe spins along z yields
genuine triples, whose correlations can never violate the three-variable
inequality family.

Collecting the data in three separate pair experiments instead yields
cos 2 omega (t_j - t_i), which is a different quantity for the (1,3) pair:
substituting those pair values into the triple inequalities can "violate"
them, which only refutes the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import DichotomicDataset, _require_in_unit_interval
from .reports import GridSweep, InequalityReport, grid_sweep, make_report
from .tables import EBBI, draw_rows, ebbi_check


@dataclass(frozen=True)
class LGParams:
    """Tunneling frequency and the three waiting intervals t_i - t_{i-1}."""

    omega: float
    dt1: float
    dt2: float
    dt3: float

    def __post_init__(self):
        vals = (self.omega, self.dt1, self.dt2, self.dt3)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("parameters must be finite")
        if self.dt1 < 0 or self.dt2 < 0 or self.dt3 < 0:
            raise ValueError("time intervals must be non-negative")


# Basis order of the eight nonzero amplitudes: (system, probe1, probe2, probe3)
# z-projections, +1 = up.  Each probe triple occurs exactly once.
BASIS: tuple[tuple[int, int, int, int], ...] = (
    (+1, +1, +1, +1),
    (-1, -1, -1, -1),
    (-1, +1, -1, -1),
    (+1, -1, +1, +1),
    (-1, +1, +1, -1),
    (+1, -1, -1, +1),
    (+1, +1, -1, +1),
    (-1, -1, +1, -1),
)


@dataclass(frozen=True)
class LGAmplitudes:
    """Eight complex amplitudes over BASIS, normalized to 1."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.amplitudes, dtype=complex)
        if arr.shape != (8,):
            raise ValueError("need 8 amplitudes")
        norm = float(np.sum(np.abs(arr) ** 2))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"amplitudes must be normalized, got norm^2 {norm}")
        arr.setflags(write=False)
        object.__setattr__(self, "amplitudes", arr)

    def triple_probabilities(self) -> dict[tuple[int, int, int], float]:
        """Probability of each probe triple, system spin traced out."""
        probs = np.abs(self.amplitudes) ** 2
        return {basis[1:]: float(p) for basis, p in zip(BASIS, probs)}


def evolve_triple(p: LGParams) -> LGAmplitudes:
    """Exact wave function after the three probes, in the maximal-correlation
    coupling limit: amplitudes are products of cos/sin of omega * dt_i."""
    c1, s1 = np.cos(p.omega * p.dt1), np.sin(p.omega * p.dt1)
    c2, s2 = np.cos(p.omega * p.dt2), np.sin(p.omega * p.dt2)
    c3, s3 = np.cos(p.omega * p.dt3), np.sin(p.omega * p.dt3)
    amps = np.array([
        c3 * c2 * c1,
        -c3 * c2 * s1,
        1j * c3 * s2 * c1,
        -1j * c3 * s2 * s1,
        s3 * c2 * c1,
        s3 * c2 * s1,
        -1j * s3 * s2 * c1,
        -1j * s3 * s2 * s1,
    ], dtype=complex)
    return LGAmplitudes(amps)


def lg_triple_correlations(p: LGParams) -> tuple[float, float, float]:
    """Closed-form probe-pair correlations of the triple experiment:
    E12 = cos 2w dt2, E13 = cos 2w dt3 cos 2w dt2, E23 = cos 2w dt3."""
    c2 = float(np.cos(2.0 * p.omega * p.dt2))
    c3 = float(np.cos(2.0 * p.omega * p.dt3))
    return c2, c3 * c2, c3


def lg_triple_correlations_from_state(amps: LGAmplitudes) -> tuple[float, float, float]:
    """The same correlations computed directly from the wave function."""
    probs = amps.triple_probabilities()
    e12 = sum(s[0] * s[1] * pr for s, pr in probs.items())
    e13 = sum(s[0] * s[2] * pr for s, pr in probs.items())
    e23 = sum(s[1] * s[2] * pr for s, pr in probs.items())
    return float(e12), float(e13), float(e23)


def lg_pair_correlations(p: LGParams) -> tuple[float, float, float]:
    """Correlations of the three separate pair experiments:
    cos 2w(t2-t1), cos 2w(t3-t1), cos 2w(t3-t2)."""
    e = float(np.cos(2.0 * p.omega * p.dt2))
    ehat = float(np.cos(2.0 * p.omega * (p.dt2 + p.dt3)))
    etilde = float(np.cos(2.0 * p.omega * p.dt3))
    return e, ehat, etilde


def lg_inequality_check(k12: float, k13: float, k23: float) -> InequalityReport:
    """Three-variable inequality family on temporal correlations, the bound
    obeyed by any consistent joint triple distribution (e0 = 1)."""
    _require_in_unit_interval([("K12", k12), ("K13", k13), ("K23", k23)])
    inner = ebbi_check(1.0, k12, k13, k23)
    return make_report("leggett_garg", inner.clauses)


def lg_sweep(points: int) -> GridSweep:
    """The triple inequality family over the grid omega*dt2, omega*dt3 in
    linspace(0, pi, points)^2 (dt1 = 0), from the closed-form correlations
    of ``lg_triple_correlations``, a block of omega*dt2 rows at a time."""
    if points < 1:
        raise ValueError(f"need at least one grid point per axis, got {points}")
    cos2 = np.cos(2.0 * np.linspace(0.0, np.pi, points))

    def block(rows):
        row_cos2 = cos2[rows]
        c2, c3 = np.repeat(row_cos2, points), np.tile(cos2, len(row_cos2))
        return EBBI.slacks(1.0, c2, c3 * c2, c3)

    return grid_sweep(block, points, points)


def sample_triples(p: LGParams, m: int, seed: int) -> DichotomicDataset:
    """Draw M probe triples i.i.d. from the squared amplitudes, system spin
    traced out.  Deterministic per seed; sampling is inverse-CDF over the
    eight triple probabilities."""
    if m < 1:
        raise ValueError("need at least one sample")
    probs = np.abs(evolve_triple(p).amplitudes) ** 2
    rows = np.array([basis[1:] for basis in BASIS], dtype=np.int8)
    return DichotomicDataset(draw_rows(probs / probs.sum(), rows,
                                       np.random.default_rng(seed), m))


def pair_substitution_witness(omega: float = 1.0) -> dict:
    """A parameter point where the pair-experiment values fail the triple
    inequality family while the actual triple values pass it: equal spacings
    with omega * dt = pi/3."""
    p = LGParams(omega, 0.0, np.pi / 3.0 / omega, np.pi / 3.0 / omega)
    triple = lg_triple_correlations(p)
    pair = lg_pair_correlations(p)
    return {
        "params": p,
        "triple_correlations": triple,
        "pair_correlations": pair,
        "triple_report": lg_inequality_check(*triple),
        "pair_report": lg_inequality_check(*pair),
    }
