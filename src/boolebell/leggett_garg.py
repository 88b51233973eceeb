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

import math
from dataclasses import dataclass

import numpy as np

from .datasets import require_in_unit_interval
from .reports import ClauseFamily, GridSweep, InequalityReport, grid_sweep, product_axes
from .tables import (EBBI, CountTable, chain_coeffs, draw_rows, pair_coefficients, sign_codes,
                     sign_transform)


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
        # bounds every phase taken below, in Python floats, which overflow to
        # inf without a numpy warning
        if not math.isfinite(2.0 * float(self.omega) * sum(map(float, vals[1:]))):
            raise ValueError(f"the total phase 2 omega (dt1 + dt2 + dt3) must be finite, "
                             f"got omega={self.omega}, dt={vals[1:]}")


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
# the sign-grid positions of the probe triples of BASIS, in its order
_PROBE_CODES = sign_codes(*np.array([basis[1:] for basis in BASIS]).T)
# draws per block of sample_triples, whose memory is then flat in M
SAMPLE_BLOCK = 1 << 16


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
    """Closed-form probe-pair correlations (E12, E13, E23) of the triple
    experiment, read off its +-1 chain: c0 = cos 2w dt1, links
    (cos 2w dt2, cos 2w dt3)."""
    c1, c2, c3 = (np.cos(2.0 * p.omega * dt) for dt in (p.dt1, p.dt2, p.dt3))
    e = chain_coeffs(c1, (c2, c3))
    return tuple(pair_coefficients(e).values())


def lg_triple_correlations_from_state(amps: LGAmplitudes) -> tuple[float, float, float]:
    """The same correlations computed directly from the wave function."""
    probs = np.zeros(8)
    probs[_PROBE_CODES] = np.abs(amps.amplitudes) ** 2
    return tuple(pair_coefficients(sign_transform(probs.reshape(2, 2, 2))).values())


def lg_pair_correlations(p: LGParams) -> tuple[float, float, float]:
    """Correlations of the three separate pair experiments:
    cos 2w(t2-t1), cos 2w(t3-t1), cos 2w(t3-t2)."""
    e = float(np.cos(2.0 * p.omega * p.dt2))
    ehat = float(np.cos(2.0 * p.omega * (p.dt2 + p.dt3)))
    etilde = float(np.cos(2.0 * p.omega * p.dt3))
    return e, ehat, etilde


LEGGETT_GARG = ClauseFamily("leggett_garg", EBBI.descriptions, EBBI.terms, EBBI.e0)


def lg_inequality_check(k12: float, k13: float, k23: float) -> InequalityReport:
    """Three-variable inequality family on temporal correlations, the bound
    obeyed by any consistent joint triple distribution (e0 = 1)."""
    require_in_unit_interval([("K12", k12), ("K13", k13), ("K23", k23)])
    return LEGGETT_GARG.report(1.0, k12, k13, k23)


def lg_sweep(points: int) -> GridSweep:
    """The triple inequality family over the grid omega*dt2, omega*dt3 in
    linspace(0, pi, points)^2 (dt1 = 0), from the closed-form correlations
    of ``lg_triple_correlations``."""
    if points < 1:
        raise ValueError(f"need at least one grid point per axis, got {points}")
    cos2 = np.cos(2.0 * np.linspace(0.0, np.pi, points))

    def inputs(block):
        c2, c3 = product_axes(cos2, cos2, block)
        return 1.0, c2, c3 * c2, c3

    return grid_sweep(LEGGETT_GARG, inputs, points * points)


def sample_triples(p: LGParams, m: int, seed: int) -> CountTable:
    """The counts of M probe triples drawn i.i.d. from the squared amplitudes,
    system spin traced out.  Deterministic per seed; sampling is inverse-CDF
    over the eight triple probabilities, SAMPLE_BLOCK draws at a time from one
    generator, which gives the uniforms of a single draw of all M."""
    if m < 1:
        raise ValueError("need at least one sample")
    probs = np.abs(evolve_triple(p).amplitudes) ** 2
    probs, rng = probs / probs.sum(), np.random.default_rng(seed)
    counts = sum(np.bincount(draw_rows(probs, _PROBE_CODES, rng, min(SAMPLE_BLOCK, m - lo)),
                             minlength=8) for lo in range(0, m, SAMPLE_BLOCK))
    return CountTable(counts.reshape(2, 2, 2))

