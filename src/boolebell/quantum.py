"""Dense linear-algebra engine for up to four spin-1/2 objects.

States are density matrices (Hermitian, unit trace, positive semidefinite);
dynamical variables are Hermitian matrices; averages are traces against the
state.  Diagonal elements of a valid state in a product basis form a genuine
probability table, and sequential filtering measurements (projector chains)
do too, whether or not the projectors commute.

Covered here: projector algebra for spin along arbitrary directions, the
two-spin singlet and its pair correlations, one-particle filtering chains of
two and three stages with their closed forms, the two-sided extended
pair-source experiments that produce genuine triples and quadruples, mixtures
of product states and the correlation bound they obey, and commutator /
uncertainty-product diagnostics.

Basis convention: particle 1 is the slowest-varying index, and index 0 of
each factor is the S=+1 state.  Coplanar settings are parametrized by the
angle from the z-axis within the xz-plane, u(theta) = (sin t, 0, cos t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Sequence

import numpy as np

from .datasets import (InequalityReport, check_boole_triple,
                       check_boole_triple_anticorrelated)
from .reports import (ClauseFamily, GridSweep, boole_terms, grid_sweep,
                      make_clause, make_report, six_descriptions)
from .tables import (EBBI, CompatibilityResult, ExpansionCoeffs3, FuncTable2,
                     FuncTable3, expand2, expand3, marginals_compatible,
                     sign_dict, sign_index, sign_transform)

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
UNIT_TOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def as_direction(v) -> np.ndarray:
    """Validate and return a 3-component unit vector as a numpy array."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"direction must have 3 components, got shape {arr.shape}")
    # tolerance on the squared norm, matching 1e-12 on the norm itself
    if not abs(float(arr @ arr) - 1.0) <= 2.0 * UNIT_TOL:   # NaN fails too
        raise ValueError(f"{arr} is not a unit vector (norm {np.linalg.norm(arr)})")
    return arr


def coplanar_direction(theta: float) -> np.ndarray:
    """Direction at angle theta from the z-axis, inside the xz-plane."""
    return np.array([np.sin(theta), 0.0, np.cos(theta)])


def pauli_dot(a) -> np.ndarray:
    """sigma . a for a unit vector a: Hermitian, traceless, squares to 1."""
    a = as_direction(a)
    return a[0] * SIGMA_X + a[1] * SIGMA_Y + a[2] * SIGMA_Z


def projector(s: int, a) -> np.ndarray:
    """Spin projector (1 + s sigma.a) / 2 onto outcome s in {+1, -1}."""
    if s not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {s}")
    return (ID2 + s * pauli_dot(a)) / 2.0


@dataclass(frozen=True)
class DensityMatrix:
    """2^n x 2^n Hermitian, unit-trace, positive semidefinite state."""

    matrix: np.ndarray
    n: int

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** self.n
        if mat.shape != (dim, dim):
            raise ValueError(f"state of {self.n} spins needs shape ({dim}, {dim})")
        if not np.isfinite(mat).all():
            raise ValueError("state entries must be finite")
        if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_TOL:
            raise ValueError("state is not Hermitian")
        if abs(np.trace(mat).real - 1.0) > TRACE_TOL or abs(np.trace(mat).imag) > TRACE_TOL:
            raise ValueError(f"trace must be 1, got {np.trace(mat)}")
        if float(np.min(np.linalg.eigvalsh(mat))) < -PSD_TOL:
            raise ValueError("state has a negative eigenvalue")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class ProbabilityTable:
    """Probabilities over the 2^n sign patterns, particle 1 slowest."""

    n: int
    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.shape != (2 ** self.n,):
            raise ValueError(f"need {2 ** self.n} entries for n={self.n}")
        if not (np.min(arr) >= -1e-12 and np.max(arr) <= 1.0 + 1e-12):   # NaN fails too
            raise ValueError("entries must lie in [0, 1]")
        if abs(float(arr.sum()) - 1.0) > 1e-10:
            raise ValueError(f"entries must sum to 1, got {float(arr.sum())}")
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.p, other.p)

    def grid(self) -> np.ndarray:
        return self.p.reshape((2,) * self.n)

    def value(self, *signs: int) -> float:
        if len(signs) != self.n:
            raise ValueError(f"expected {self.n} signs")
        return float(self.grid()[sign_index(signs)])

    def pair_correlation(self, i: int, j: int) -> float:
        """sum_S Si Sj P(S) for 1-based particle indices i < j."""
        return float(sign_transform(self.grid())[
            tuple(int(k in (i, j)) for k in range(1, self.n + 1))])

    def to_func_table2(self) -> FuncTable2:
        if self.n != 2:
            raise ValueError("not a two-variable table")
        return FuncTable2(self.p.reshape(2, 2))

    def to_func_table3(self) -> FuncTable3:
        if self.n != 3:
            raise ValueError("not a three-variable table")
        return FuncTable3(self.p.reshape(2, 2, 2))

    def to_dict(self) -> dict:
        return sign_dict(self.grid())


def op_on(op2: np.ndarray, particle: int, n: int) -> np.ndarray:
    """Embed a single-spin operator on the given particle (1-based) of n."""
    mat = np.eye(1, dtype=complex)
    for i in range(1, n + 1):
        mat = np.kron(mat, op2 if i == particle else ID2)
    return mat


def expectation(rho: DensityMatrix, op: np.ndarray) -> float:
    val = np.trace(rho.matrix @ op)
    return float(val.real)


def pure_state(amplitudes: Sequence[complex], n: int) -> DensityMatrix:
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.shape != (2 ** n,):
        raise ValueError(f"need {2 ** n} amplitudes for n={n}")
    norm = float(np.vdot(psi, psi).real)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"state vector norm^2 must be 1, got {norm}")
    return DensityMatrix(np.outer(psi, psi.conj()), n)


def singlet() -> DensityMatrix:
    """Two-spin pure state (|+-> - |-+>)/sqrt(2); both single-spin averages
    vanish and the pair correlation along (a, b) equals -a.b."""
    inv = 1.0 / np.sqrt(2.0)
    return pure_state([0.0, inv, -inv, 0.0], 2)


def maximally_mixed(n: int) -> DensityMatrix:
    dim = 2 ** n
    return DensityMatrix(np.eye(dim, dtype=complex) / dim, n)


def spin_half_state(x) -> DensityMatrix:
    """Single-spin state (1 + sigma.x)/2 for a polarization vector |x| <= 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("polarization vector needs 3 components")
    if not float(x @ x) <= 1.0 + 1e-12:   # NaN fails too
        raise ValueError(f"polarization vector must satisfy |x| <= 1, got {x}")
    mat = (ID2 + x[0] * SIGMA_X + x[1] * SIGMA_Y + x[2] * SIGMA_Z) / 2.0
    return DensityMatrix(mat, 1)


def diag_prob(rho: DensityMatrix) -> ProbabilityTable:
    """Diagonal of the state in the product basis: the probability of each
    sign pattern of simultaneous z-projections."""
    return ProbabilityTable(rho.n, np.real(np.diag(rho.matrix)).copy())


def correlation_operator(u, v) -> np.ndarray:
    """(sigma.u on particle 1) (sigma.v on particle 2), on two spins."""
    return np.kron(pauli_dot(u), pauli_dot(v))


# ---------------------------------------------------------------------------
# Projector chains, and filtering chains on one spin
# ---------------------------------------------------------------------------

def _chain_table(rho: DensityMatrix, stages, word, state_first: bool = False,
                 ) -> ProbabilityTable:
    """Outcome table of a projector chain on rho, one entry per sign pattern
    of the stages (stage 1 slowest).

    Each stage is a (direction, particle) pair whose projectors M(+1), M(-1)
    are built once; ``word`` lists the stages in the order the chain
    multiplies them, left to right.  The entry is Tr rho (M M .. M), or
    Tr (rho M M .. M) with ``state_first``; the two orders round differently,
    and each caller keeps the one its table has always been computed in.
    """
    spins = max(k for _, k in stages)
    if rho.n != spins:
        raise ValueError(f"the chain acts on {spins} spin(s), the state has {rho.n}")
    projs = [[projector(s, d) if spins == 1 else op_on(projector(s, d), k, spins)
              for s in (+1, -1)] for d, k in stages]
    p = np.empty(2 ** len(stages))
    for flat, pattern in enumerate(product(range(2), repeat=len(stages))):
        chain = [projs[k][pattern[k]] for k in word]
        if state_first:
            p[flat] = np.trace(reduce(np.matmul, chain, rho.matrix)).real
        else:
            p[flat] = np.trace(rho.matrix @ reduce(np.matmul, chain)).real
    return ProbabilityTable(len(stages), p)


def filter_prob2(rho1: DensityMatrix, a, b) -> ProbabilityTable:
    """Two-stage filtering on one spin: P(S1,S2) from the projector chain
    Tr rho M(S1,a) M(S2,b) M(S1,a)."""
    return _chain_table(rho1, ((a, 1), (b, 1)), (0, 1, 0), state_first=True)


def filter_prob2_closed(x, a, b) -> ProbabilityTable:
    """Closed form of the two-stage chain for the state (1 + sigma.x)/2:
    P = (1 + S1 x.a + S2 x.a a.b + S1 S2 a.b) / 4."""
    x = np.asarray(x, dtype=float)
    a, b = as_direction(a), as_direction(b)
    xa, ab = float(x @ a), float(a @ b)
    e = np.array([[1.0, xa * ab],          # e0, e2
                  [xa, ab]])               # e1, e12
    return ProbabilityTable(2, sign_transform(e).ravel() / 4.0)


def filter_prob3(rho1: DensityMatrix, a, b, c) -> ProbabilityTable:
    """Three-stage filtering chain Tr rho M(S1,a) M(S2,b) M(S3,c) M(S2,b) M(S1,a)."""
    return _chain_table(rho1, ((a, 1), (b, 1), (c, 1)), (0, 1, 2, 1, 0))


def filter_prob3_closed(x, a, b, c) -> ProbabilityTable:
    """Closed form of the three-stage chain: P = (1 + S1 x.a + S2 x.a a.b
    + S3 x.a a.b b.c + S1S2 a.b + S1S3 a.b b.c + S2S3 b.c + S1S2S3 x.a b.c)/8."""
    x = np.asarray(x, dtype=float)
    a, b, c = as_direction(a), as_direction(b), as_direction(c)
    xa, ab, bc = float(x @ a), float(a @ b), float(b @ c)
    e = np.array([[[1.0, xa * ab * bc], [xa * ab, bc]],      # e0, e3; e2, e23
                  [[xa, ab * bc], [ab, xa * bc]]])           # e1, e13; e12, e123
    return ProbabilityTable(3, sign_transform(e).ravel() / 8.0)


# ---------------------------------------------------------------------------
# Singlet pair experiments
# ---------------------------------------------------------------------------

def singlet_pair_table(u, v) -> ProbabilityTable:
    """Joint outcome probabilities for the singlet measured along (u, v)."""
    return _chain_table(singlet(), ((u, 1), (v, 2)), (0, 1), state_first=True)


def eprb_pair_tables(a, b, c) -> tuple[ProbabilityTable, ProbabilityTable, ProbabilityTable]:
    """The three singlet pair tables for setting pairs (a,b), (a,c), (b,c)."""
    return (singlet_pair_table(a, b),
            singlet_pair_table(a, c),
            singlet_pair_table(b, c))


@dataclass(frozen=True)
class SchwartzReport:
    e: float
    ehat: float
    bc: float
    report: InequalityReport
    cos2_plus: float
    cos2_minus: float
    sharpness: float
    coplanar: bool
    equality: bool


def schwartz_bound(a, b, c) -> SchwartzReport:
    """Inner-product bound |E +- Ehat|^2 <= 2 (1 +- b.c) for the singlet pair
    correlations E = <s1.a s2.b> and Ehat = <s1.a s2.c>.

    Each clause carries the factor cos^2 of the angle between a and b +- c;
    the two factors sum to 1 exactly when a lies in the span of b and c, which
    is when the pair of bounds is jointly sharp.  The report flags that case.
    """
    a, b, c = as_direction(a), as_direction(b), as_direction(c)
    rho = singlet()
    e = expectation(rho, correlation_operator(a, b))
    ehat = expectation(rho, correlation_operator(a, c))
    bc = float(b @ c)
    clauses = []
    cos2 = {}
    for sign, s in ((+1, "+"), (-1, "-")):
        lhs = (e + sign * ehat) ** 2
        rhs = 2.0 * (1.0 + sign * bc)
        clauses.append(make_clause(f"|E {s} Ehat|^2 <= 2 (1 {s} b.c)", lhs, rhs))
        w = b + sign * c
        norm2 = float(w @ w)
        cos2[sign] = float((a @ w) ** 2 / norm2) if norm2 > 1e-24 else float("nan")
    sharpness = cos2[+1] + cos2[-1]
    coplanar = abs(float(a @ np.cross(b, c))) <= 1e-10
    equality = np.isfinite(sharpness) and abs(sharpness - 1.0) <= 1e-10
    return SchwartzReport(e, ehat, bc, make_report("schwartz", clauses),
                          cos2[+1], cos2[-1], sharpness, coplanar, equality)


@dataclass(frozen=True)
class SubstitutionReport:
    """Pair correlations of the three singlet runs and both triples-hypothesis
    checks: direct substitution, and substitution under the anticorrelation
    identification (station-1 outcomes equal the negated station-2 variable,
    exact for the singlet at equal settings)."""

    e: float
    ehat: float
    etilde: float
    boole_direct: InequalityReport
    boole_anticorrelated: InequalityReport
    marginals_direct: CompatibilityResult
    marginals_anticorrelated: CompatibilityResult


def _flip_first_variable(t: FuncTable2) -> FuncTable2:
    return FuncTable2(t.values[::-1, :])


def eprb_substitution_report(a, b, c) -> SubstitutionReport:
    f, fhat, ftilde = (t.to_func_table2() for t in eprb_pair_tables(a, b, c))
    e, ehat, etilde = expand2(f).e12, expand2(fhat).e12, expand2(ftilde).e12
    return SubstitutionReport(
        e, ehat, etilde,
        check_boole_triple(e, ehat, etilde),
        check_boole_triple_anticorrelated(e, ehat, etilde),
        marginals_compatible(f, fhat, ftilde),
        marginals_compatible(_flip_first_variable(f),
                             _flip_first_variable(fhat),
                             _flip_first_variable(ftilde)),
    )


# ---------------------------------------------------------------------------
# Extended pair-source experiments: triples and quadruples
# ---------------------------------------------------------------------------

def extended_eprb_amplitude(s1: int, s2: int, s3: int,
                            theta_a: float, theta_b: float, theta_c: float) -> float:
    """Path amplitude for outcome (S1, S2, S3) of the singlet experiment in
    which the right particle passes two analyzer stages (b then c)."""
    sba = np.sin((theta_b - theta_a) / 2.0)
    cba = np.cos((theta_b - theta_a) / 2.0)
    scb = np.sin((theta_c - theta_b) / 2.0)
    ccb = np.cos((theta_c - theta_b) / 2.0)
    first = ((1 + s1 * s2) * sba + s2 * (1 - s1 * s2) * cba) / (2.0 * np.sqrt(2.0))
    second = ((1 + s2 * s3) * ccb + s2 * (1 - s2 * s3) * scb) / 2.0
    return float(first * second)


def extended_eprb_prob3(theta_a: float, theta_b: float, theta_c: float,
                        ) -> tuple[ProbabilityTable, ExpansionCoeffs3]:
    """Triple-outcome probabilities for coplanar settings, built from the path
    amplitudes, plus the expansion coefficients of the table.

    The squared amplitudes are verified to sum to 1 before the table is
    returned.
    """
    amps = np.array([extended_eprb_amplitude(s1, s2, s3, theta_a, theta_b, theta_c)
                     for s1, s2, s3 in product((+1, -1), repeat=3)])
    p = amps * amps
    total = float(p.sum())
    if abs(total - 1.0) > 1e-12:
        raise AssertionError(f"amplitude normalization broken: sum {total}")
    table = ProbabilityTable(3, p)
    return table, expand3(table.to_func_table3())


def extended_eprb_prob3_closed(theta_a: float, theta_b: float, theta_c: float,
                               ) -> ProbabilityTable:
    """Closed form (1 - S1S2 cba - S1S3 cba ccb + S2S3 ccb)/8 with
    cba = cos(theta_b - theta_a), ccb = cos(theta_c - theta_b)."""
    cba = np.cos(theta_b - theta_a)
    ccb = np.cos(theta_c - theta_b)
    e = np.array([[[1.0, 0.0], [0.0, ccb]],                # e0, e3; e2, e23
                  [[0.0, -cba * ccb], [-cba, 0.0]]])       # e1, e13; e12, e123
    return ProbabilityTable(3, sign_transform(e).ravel() / 8.0)


def extended_eprb_sweep(thetas) -> GridSweep:
    """The ``ebbi`` family on the coefficients (1, -cba, -cba ccb, ccb) of
    ``extended_eprb_prob3_closed`` with theta_a = 0, over every
    (theta_b, theta_c) in thetas x thetas, a block of theta_b rows at a time."""
    thetas = np.asarray(thetas, dtype=float)

    def block(rows):
        tb, tc = (x.ravel() for x in np.meshgrid(thetas[rows], thetas, indexing="ij"))
        cba = np.cos(tb)
        ccb = np.cos(tc - tb)
        return EBBI.slacks(1.0, -cba, -cba * ccb, ccb)

    return grid_sweep(block, len(thetas), len(thetas))


def extended_eprb_prob3_chain(a, b, c) -> ProbabilityTable:
    """Projector-chain route for arbitrary unit vectors: the left particle is
    analyzed along a, the right particle along b then c."""
    return _chain_table(singlet(), ((a, 1), (b, 2), (c, 2)), (0, 1, 2, 1, 0))


def extended_eprb_prob4(a, b, c, d) -> tuple[ProbabilityTable, dict[str, float]]:
    """Quadruple-outcome probabilities when both particles pass two analyzer
    stages: left along a then d, right along b then c.  Operator order is
    M(S1,a) M(S4,d) M(S2,b) M(S3,c) M(S2,b) M(S4,d) M(S1,a); any reordering is
    a different experiment.  Returns the table and its six pair correlations.
    """
    table = _chain_table(singlet(), ((a, 1), (b, 2), (c, 2), (d, 1)),
                         (0, 3, 1, 2, 1, 3, 0))
    pairs = {f"E{i}{j}": table.pair_correlation(i, j)
             for (i, j) in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))}
    return table, pairs


def chsh_pair_correlations_closed(a, b, c, d) -> dict[str, float]:
    """Closed forms of the six pair correlations of the quadruple experiment."""
    a, b, c, d = (as_direction(v) for v in (a, b, c, d))
    ab, bc, ad = float(a @ b), float(b @ c), float(a @ d)
    return {
        "E12": -ab,
        "E13": -ab * bc,
        "E14": ad,
        "E23": bc,
        "E24": -ab * ad,
        "E34": -ab * ad * bc,
    }


def check_chsh_quadruple(pairs: dict[str, float]) -> InequalityReport:
    """CHSH combination |E12 - E13 + E24 + E34| <= 2 on quadruple correlations."""
    lhs = abs(pairs["E12"] - pairs["E13"] + pairs["E24"] + pairs["E34"])
    return make_report("chsh", [make_clause("|E12 - E13 + E24 + E34| <= 2", lhs, 2.0)])


# ---------------------------------------------------------------------------
# Separable states
# ---------------------------------------------------------------------------

def _normalize_components(components):
    out = []
    for comp in components:
        if len(comp) == 2:
            w, rho = comp
            out.append((float(w), rho, rho))
        elif len(comp) == 3:
            w, left, right = comp
            out.append((float(w), left, right))
        else:
            raise ValueError("component must be (weight, rho) or (weight, rho_left, rho_right)")
    weights = np.array([w for w, _, _ in out])
    if np.any(weights < -1e-12):
        raise ValueError("weights must be non-negative")
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {float(weights.sum())}")
    for _, left, right in out:
        if left.n != 1 or right.n != 1:
            raise ValueError("components must be single-spin states")
    return out


def separable_mixture(components) -> DensityMatrix:
    """Probability-weighted mixture of product states of two single spins."""
    comps = _normalize_components(components)
    mat = np.zeros((4, 4), dtype=complex)
    for w, left, right in comps:
        mat += w * np.kron(left.matrix, right.matrix)
    return DensityMatrix(mat, 2)


# (AB, AC | BC), (AB, BC | AC), (AC, BC | AB): the Boole order with <A1C2> in
# the 12 slot and <A1B2> in the 13 slot.
SEPARABLE = ClauseFamily(
    "separable", six_descriptions("|{i} {s} {j}| <= 1 {s} {k}",
                                  (("<A1B2>", "<A1C2>", "<B1C2>"),
                                   ("<A1B2>", "<B1C2>", "<A1C2>"),
                                   ("<A1C2>", "<B1C2>", "<A1B2>"))),
    lambda t_ab, t_ac, t_bc: boole_terms(t_ac, t_ab, t_bc, 1.0))


def separable_bound_check(components, a, b, c) -> InequalityReport:
    """Correlation bounds |<A1 B2> +- <A1 C2>| <= 1 +- <B1 C2> (and the symbol
    permutations) for mixtures of product states whose two subsystems agree,
    component by component, on the averages along a, b and c.

    Components with differing left/right averages along any of the three
    directions are rejected: the bound is not derivable for them.
    """
    comps = _normalize_components(components)
    a, b, c = as_direction(a), as_direction(b), as_direction(c)
    ops = {"A": pauli_dot(a), "B": pauli_dot(b), "C": pauli_dot(c)}
    means = {}
    for name, op in ops.items():
        left_vals = np.array([expectation(left, op) for _, left, _ in comps])
        right_vals = np.array([expectation(right, op) for _, _, right in comps])
        gap = float(np.max(np.abs(left_vals - right_vals)))
        if gap > 1e-10:
            raise ValueError(
                f"subsystem averages along {name} differ between the two sides "
                f"(max gap {gap}); the correlation bound requires them equal")
        means[name] = left_vals
    w = np.array([wk for wk, _, _ in comps])
    t_ab = float(np.sum(w * means["A"] * means["B"]))
    t_ac = float(np.sum(w * means["A"] * means["C"]))
    t_bc = float(np.sum(w * means["B"] * means["C"]))
    return separable_clause_report(t_ab, t_ac, t_bc)


def separable_clause_report(t_ab: float, t_ac: float, t_bc: float) -> InequalityReport:
    """The same clause family evaluated on externally supplied correlations,
    for testing whether given correlations could come from such a mixture."""
    return SEPARABLE.report(t_ab, t_ac, t_bc)


# ---------------------------------------------------------------------------
# Commutator and uncertainty diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UncertaintyEntry:
    pair: str
    lhs: float
    rhs: float
    satisfied: bool


@dataclass(frozen=True)
class CommutatorDiagnostics:
    commutator_norms: dict[str, float]
    uncertainty: tuple[UncertaintyEntry, ...]

    def to_dict(self) -> dict:
        return {
            "commutator_norms": dict(self.commutator_norms),
            "uncertainty": [u.__dict__.copy() for u in self.uncertainty],
        }


def commutator_diagnostics(a, b, c, rho: DensityMatrix) -> CommutatorDiagnostics:
    """Spectral norms of the commutators between the three correlation
    operators for settings (a,b), (a,c), (b,c), and the uncertainty products
    var(X) var(Y) >= |<i[X,Y]>|^2 / 4 for each operator pair in the given
    two-spin state."""
    if rho.n != 2:
        raise ValueError("diagnostics need a two-spin state")
    ops = {"ab": correlation_operator(a, b),
           "ac": correlation_operator(a, c),
           "bc": correlation_operator(b, c)}
    pairs = (("ab", "ac"), ("ab", "bc"), ("ac", "bc"))
    norms = {}
    entries = []
    for x_name, y_name in pairs:
        x, y = ops[x_name], ops[y_name]
        comm = x @ y - y @ x
        norms[f"[{x_name},{y_name}]"] = float(np.linalg.norm(comm, ord=2))
        z = 1j * comm
        var_x = expectation(rho, x @ x) - expectation(rho, x) ** 2
        var_y = expectation(rho, y @ y) - expectation(rho, y) ** 2
        zmean = np.trace(rho.matrix @ z)
        rhs = float(abs(zmean) ** 2) / 4.0
        lhs = var_x * var_y
        entries.append(UncertaintyEntry(f"({x_name},{y_name})", lhs, rhs,
                                        lhs >= rhs - 1e-10))
    return CommutatorDiagnostics(norms, tuple(entries))
