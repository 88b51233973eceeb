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
uncertainty-product diagnostics.  The closed forms come from
``tables.chain_coeffs``; the projector chains stay as their oracles.

Basis convention: particle 1 is the slowest-varying index, and index 0 of
each factor is the S=+1 state.  Coplanar settings are parametrized by the
angle from the z-axis within the xz-plane, u(theta) = (sin t, 0, cos t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .datasets import (InequalityReport, check_boole_triple,
                       check_boole_triple_anticorrelated)
from .reports import ClauseFamily, GridSweep, boole_terms, grid_sweep, six_descriptions
from .tables import (EBBI, CompatibilityResult, ExpansionCoeffs3, FuncTable2,
                     SignTable, _compatibility, chain_coeffs, check_weights, expand2,
                     marginals_compatible, pair_coefficients, sign_rows, sign_transform)

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
    # components are bounded before squaring, which could overflow; the
    # tolerance on the squared norm matches 1e-12 on the norm itself
    if not (np.abs(arr).max() <= 1.0 + UNIT_TOL
            and abs(float(arr @ arr) - 1.0) <= 2.0 * UNIT_TOL):   # NaN fails too
        raise ValueError(f"{arr} is not a unit vector (norm {math.hypot(*arr)})")
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


class ProbabilityTable(SignTable):
    """Probabilities over the 2^n sign patterns, on the 2x..x2 grid with
    particle 1 slowest; ``p`` is the flat read-only view."""

    p = property(lambda self: self.values.reshape(-1))

    def __post_init__(self):
        # before the grid checks, so a NaN entry reads as a probability error;
        # initial=0 lets an empty array through to the sum check
        arr = np.asarray(self.values, dtype=float)
        if not (arr.min(initial=0.0) >= -1e-12
                and arr.max(initial=0.0) <= 1.0 + 1e-12):   # NaN fails too
            raise ValueError("entries must lie in [0, 1]")
        if abs(float(arr.sum()) - 1.0) > 1e-10:
            raise ValueError(f"entries must sum to 1, got {float(arr.sum())}")
        super().__post_init__()


def _kron(x, y) -> np.ndarray:
    """np.kron of the last two axes, leading axes broadcast, without its call cost."""
    mat = np.asarray(x)[..., :, None, :, None] * np.asarray(y)[..., None, :, None, :]
    return mat.reshape(*mat.shape[:-4], mat.shape[-4] * mat.shape[-3], -1)


def op_on(op2: np.ndarray, particle: int, n: int) -> np.ndarray:
    """Embed a single-spin operator, or a stack of them on the leading axes,
    on the given particle (1-based) of n: 1 (x) op2 (x) 1."""
    mat = _kron(np.eye(2 ** (particle - 1)), op2)
    # a product with a 1x1 identity could flip the sign of a zero
    return mat if particle == n else _kron(mat, np.eye(2 ** (n - particle)))


def expectation(rho: DensityMatrix, op: np.ndarray) -> float:
    return float(np.trace(rho.matrix @ op).real)


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


def as_polarization(x) -> np.ndarray:
    """Validate and return a polarization vector: 3 components, |x| <= 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("polarization vector needs 3 components")
    # components are bounded before squaring, which could overflow
    if not (np.abs(x).max() <= 1.0 + 1e-12
            and float(x @ x) <= 1.0 + 1e-12):   # NaN fails too
        raise ValueError(f"polarization vector must satisfy |x| <= 1, got {x}")
    return x


def spin_half_state(x) -> DensityMatrix:
    """Single-spin state (1 + sigma.x)/2 for a polarization vector |x| <= 1."""
    x = as_polarization(x)
    mat = (ID2 + x[0] * SIGMA_X + x[1] * SIGMA_Y + x[2] * SIGMA_Z) / 2.0
    return DensityMatrix(mat, 1)


def diag_prob(rho: DensityMatrix) -> ProbabilityTable:
    """Diagonal of the state in the product basis: the probability of each
    sign pattern of simultaneous z-projections."""
    return ProbabilityTable(np.real(np.diag(rho.matrix)).reshape((2,) * rho.n))


def correlation_operator(u, v) -> np.ndarray:
    """(sigma.u on particle 1) (sigma.v on particle 2), on two spins."""
    return _kron(pauli_dot(u), pauli_dot(v))


# ---------------------------------------------------------------------------
# Projector chains, and filtering chains on one spin
# ---------------------------------------------------------------------------

def _chain_table(rho: DensityMatrix, stages, word, state_first=False) -> ProbabilityTable:
    """Outcome table of a projector chain on rho, one entry per sign pattern
    of the stages (stage 1 slowest).

    Each stage is a (direction, particle) pair whose projectors M(+1), M(-1)
    are built once; ``word`` lists the stages in the order the chain
    multiplies them, left to right, each position one batched matmul over
    all the patterns.  The entry is Tr rho (M M .. M), or Tr (rho M M .. M)
    with ``state_first``; the two orders round differently, and each caller
    keeps the one its table has always been computed in.
    """
    spins = max(k for _, k in stages)
    if rho.n != spins:
        raise ValueError(f"the chain acts on {spins} spin(s), the state has {rho.n}")
    # projs[stage, bit]: M(+1) at bit 0 and M(-1) at bit 1, on all the spins
    projs = np.stack([op_on((ID2 + np.multiply.outer([1, -1], pauli_dot(d))) / 2.0, k, spins)
                      for d, k in stages])
    bits = (sign_rows(len(stages)) < 0).astype(np.intp)   # [pattern, stage], grid order
    mats = (projs[k, bits[:, k]] for k in word)
    chain = (reduce(np.matmul, mats, rho.matrix) if state_first
             else rho.matrix @ reduce(np.matmul, mats))
    return ProbabilityTable(np.trace(chain, axis1=1, axis2=2).real.reshape((2,) * len(stages)))


def filter_prob2(rho1: DensityMatrix, a, b) -> ProbabilityTable:
    """Two-stage filtering on one spin: P(S1,S2) from the projector chain
    Tr rho M(S1,a) M(S2,b) M(S1,a)."""
    return _chain_table(rho1, ((a, 1), (b, 1)), (0, 1, 0), state_first=True)


def _chain_closed(c0, links, order=None) -> tuple[ProbabilityTable, np.ndarray]:
    """The probability table of a +-1 chain (``tables.chain_coeffs``) and
    its coefficient grid."""
    e = chain_coeffs(c0, links, order)
    return ProbabilityTable(sign_transform(e) / 2 ** e.ndim), e


def filter_prob2_closed(x, a, b) -> ProbabilityTable:
    """Closed form of the two-stage chain for the state (1 + sigma.x)/2: the
    +-1 chain with c0 = x.a and link a.b."""
    x = as_polarization(x)
    a, b = as_direction(a), as_direction(b)
    return _chain_closed(float(x @ a), (float(a @ b),))[0]


def filter_prob3(rho1: DensityMatrix, a, b, c) -> ProbabilityTable:
    """Three-stage filtering chain Tr rho M(S1,a) M(S2,b) M(S3,c) M(S2,b) M(S1,a)."""
    return _chain_table(rho1, ((a, 1), (b, 1), (c, 1)), (0, 1, 2, 1, 0))


def filter_prob3_closed(x, a, b, c) -> ProbabilityTable:
    """Closed form of the three-stage chain: the +-1 chain with c0 = x.a and
    links (a.b, b.c)."""
    x = as_polarization(x)
    a, b, c = as_direction(a), as_direction(b), as_direction(c)
    return _chain_closed(float(x @ a), (float(a @ b), float(b @ c)))[0]


# ---------------------------------------------------------------------------
# Singlet pair experiments
# ---------------------------------------------------------------------------

def singlet_pair_table(u, v) -> ProbabilityTable:
    """Joint outcome probabilities for the singlet measured along (u, v):
    the +-1 chain with c0 = 0 and link -u.v."""
    return _chain_closed(0.0, (-float(as_direction(u) @ as_direction(v)),))[0]


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


SCHWARTZ = ClauseFamily(
    "schwartz", ("|E + Ehat|^2 <= 2 (1 + b.c)", "|E - Ehat|^2 <= 2 (1 - b.c)"),
    lambda e, ehat, bc: (((e + ehat) ** 2, 2.0 * (1.0 + bc)),
                         ((e - ehat) ** 2, 2.0 * (1.0 - bc))))


def schwartz_bound(a, b, c) -> SchwartzReport:
    """Inner-product bound |E +- Ehat|^2 <= 2 (1 +- b.c) for the singlet pair
    correlations E = <s1.a s2.b> = -a.b and Ehat = <s1.a s2.c> = -a.c, read
    in closed form (the link of the singlet's +-1 chain).

    Each clause carries the factor cos^2 of the angle between a and b +- c;
    the two factors sum to 1 exactly when a lies in the span of b and c, which
    is when the pair of bounds is jointly sharp.  The report flags that case.
    """
    a, b, c = as_direction(a), as_direction(b), as_direction(c)
    e, ehat, bc = -float(a @ b), -float(a @ c), float(b @ c)
    cos2 = {}
    for sign in (+1, -1):
        w = b + sign * c
        norm2 = float(w @ w)
        cos2[sign] = float((a @ w) ** 2 / norm2) if norm2 > 1e-24 else float("nan")
    sharpness = cos2[+1] + cos2[-1]
    coplanar = abs(float(a @ np.cross(b, c))) <= 1e-10
    equality = np.isfinite(sharpness) and abs(sharpness - 1.0) <= 1e-10
    return SchwartzReport(e, ehat, bc, SCHWARTZ.report(e, ehat, bc),
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


def eprb_substitution_report(a, b, c) -> SubstitutionReport:
    pair_tables = [singlet_pair_table(u, v) for u, v in ((a, b), (a, c), (b, c))]
    coeffs = [expand2(t) for t in pair_tables]
    e, ehat, etilde = (k.e12 for k in coeffs)
    return SubstitutionReport(
        e, ehat, etilde, check_boole_triple(e, ehat, etilde),
        check_boole_triple_anticorrelated(e, ehat, etilde), _compatibility(pair_tables, coeffs),
        marginals_compatible(*(FuncTable2(t.values[::-1]) for t in pair_tables)))


# ---------------------------------------------------------------------------
# Extended pair-source experiments: triples and quadruples
# ---------------------------------------------------------------------------

def extended_eprb_prob3(theta_a: float, theta_b: float, theta_c: float,
                        ) -> tuple[ProbabilityTable, ExpansionCoeffs3]:
    """Triple-outcome probabilities for coplanar settings, in closed form: the
    +-1 chain with c0 = 0 and links (-cos(theta_b - theta_a),
    cos(theta_c - theta_b)), so P = (1 - S1S2 cba - S1S3 cba ccb + S2S3 ccb)/8;
    and the table's expansion coefficients."""
    # Python float arithmetic overflows to inf without a numpy warning
    dba, dcb = float(theta_b) - float(theta_a), float(theta_c) - float(theta_b)
    if not (math.isfinite(dba) and math.isfinite(dcb)):
        raise ValueError(f"the angles and their differences must be finite, got "
                         f"theta_a={theta_a}, theta_b={theta_b}, theta_c={theta_c}")
    table, e = _chain_closed(0.0, (-np.cos(dba), np.cos(dcb)))
    return table, ExpansionCoeffs3.from_grid(e)


def extended_eprb_sweep(thetas) -> GridSweep:
    """The ``ebbi`` family on the coefficients (1, -cba, -cba ccb, ccb) of
    ``extended_eprb_prob3`` with theta_a = 0, over every
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
    stages, left along a then d, right along b then c, in closed form: the
    +-1 chain along the variables (4, 1, 2, 3) with c0 = 0 and links
    (a.d, -a.b, b.c).  Returns the table and its six pair correlations, read
    off the coefficient grid."""
    a, b, c, d = (as_direction(v) for v in (a, b, c, d))
    table, e = _chain_closed(0.0, (float(a @ d), -float(a @ b), float(b @ c)),
                             order=(4, 1, 2, 3))
    return table, {f"E{i}{j}": v for (i, j), v in pair_coefficients(e).items()}


def extended_eprb_prob4_chain(a, b, c, d) -> tuple[ProbabilityTable, dict[str, float]]:
    """Projector-chain route of ``extended_eprb_prob4``.  Operator order is
    M(S1,a) M(S4,d) M(S2,b) M(S3,c) M(S2,b) M(S4,d) M(S1,a); any reordering is
    a different experiment.  Returns the table and its six pair correlations,
    read off the table."""
    table = _chain_table(singlet(), ((a, 1), (b, 2), (c, 2), (d, 1)),
                         (0, 3, 1, 2, 1, 3, 0))
    return table, {f"E{i}{j}": v
                   for (i, j), v in pair_coefficients(sign_transform(table.values)).items()}


CHSH_QUADRUPLE = ClauseFamily(
    "chsh", ("|E12 - E13 + E24 + E34| <= 2",),
    lambda e12, e13, e24, e34: ((abs(e12 - e13 + e24 + e34), 2.0),))


def check_chsh_quadruple(pairs: dict[str, float]) -> InequalityReport:
    """CHSH combination |E12 - E13 + E24 + E34| <= 2 on quadruple correlations."""
    return CHSH_QUADRUPLE.report(pairs["E12"], pairs["E13"], pairs["E24"], pairs["E34"])


# ---------------------------------------------------------------------------
# Separable states
# ---------------------------------------------------------------------------

def _normalize_components(components):
    """Weights, stacked left states and stacked right states of the components."""
    components = list(components)
    if any(len(comp) not in (2, 3) for comp in components):
        raise ValueError("component must be (weight, rho) or (weight, rho_left, rho_right)")
    w = check_weights([float(comp[0]) for comp in components])
    if any(comp[side].n != 1 for comp in components for side in (1, -1)):
        raise ValueError("components must be single-spin states")
    return w, *(np.stack([comp[side].matrix for comp in components]) for side in (1, -1))


def separable_mixture(components) -> DensityMatrix:
    """Probability-weighted mixture of product states of two single spins."""
    mat = np.zeros((4, 4), dtype=complex)
    for w, left, right in zip(*_normalize_components(components)):
        mat += w * _kron(left, right)
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
    w, lefts, rights = _normalize_components(components)
    ops = np.stack([pauli_dot(d) for d in (a, b, c)])
    # <sigma.n> per component (rows) and direction (columns), on each side
    left, right = (np.trace(states[:, None] @ ops, axis1=2, axis2=3).real
                   for states in (lefts, rights))
    for name, gap in zip("ABC", np.max(np.abs(left - right), axis=0).tolist()):
        if gap > 1e-10:
            raise ValueError(
                f"subsystem averages along {name} differ between the two sides "
                f"(max gap {gap}); the correlation bound requires them equal")
    return SEPARABLE.report(*(float(np.sum(w * left[:, i] * left[:, j]))
                              for i, j in ((0, 1), (0, 2), (1, 2))))


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
    # operators on (a,b), (a,c), (b,c): the operator pairs take the same indices
    i, j = [0, 0, 1], [1, 2, 2]
    ops = _kron(*np.stack([pauli_dot(d) for d in (a, b, c)])[[i, j]])
    comm = ops[i] @ ops[j] - ops[j] @ ops[i]
    squares, means, zmeans = (np.trace(rho.matrix @ stack, axis1=1, axis2=2)
                              for stack in (ops @ ops, ops, 1j * comm))
    var = [sq - m ** 2 for sq, m in zip(squares.real.tolist(), means.real.tolist())]
    names = ("ab", "ac", "bc")
    norms, entries = {}, []
    for x, y, norm, zmean in zip(i, j, np.linalg.norm(comm, ord=2, axis=(1, 2)).tolist(),
                                 np.abs(zmeans).tolist()):
        label = f"{names[x]},{names[y]}"
        norms[f"[{label}]"] = norm
        lhs, rhs = var[x] * var[y], zmean ** 2 / 4.0
        entries.append(UncertaintyEntry(f"({label})", lhs, rhs, lhs >= rhs - 1e-10))
    return CommutatorDiagnostics(norms, tuple(entries))
