"""Whole-grid sweeps and the clause kernel against scalar reference loops.

The references below evaluate one point at a time through the scalar
reports, or write the clause loops out by hand.  Results must be equal, not
approximately equal: the kernel performs the same IEEE operations on floats
and on arrays.
"""

import math
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from boolebell import classical as cl
from boolebell import leggett_garg as lg
from boolebell import quantum, reports, tables
from boolebell.datasets import (check_boole_triple,
                                check_boole_triple_anticorrelated, check_chsh,
                                check_pair_bound)
from boolebell.reports import GridSweep, make_clause, make_report

# ---------------------------------------------------------------------------
# scalar references
# ---------------------------------------------------------------------------

RELABELINGS = ((1, 2, 3), (3, 1, 2), (2, 3, 1))


def ref_boole(f12, f13, f23, anticorrelated=False, e0=1.0, name="e"):
    vals = {(1, 2): f12, (1, 3): f13, (2, 3): f23}
    v = lambda i, j: vals[(i, j)] if i < j else vals[(j, i)]
    clauses = []
    for (i, j, k) in RELABELINGS:
        for sign, s, t in ((+1, "+", "-"), (-1, "-", "+")):
            if name == "e":
                desc = f"|e{i}{j} {s} e{i}{k}| <= e0 {s} e{j}{k}"
            elif anticorrelated:
                desc = f"|F{i}{j} {s} F{i}{k}| <= 1 {t} F{j}{k} (anticorrelated convention)"
            else:
                desc = f"|F{i}{j} {s} F{i}{k}| <= 1 {s} F{j}{k}"
            rhs_sign = -sign if anticorrelated else sign
            clauses.append(make_clause(desc, abs(v(i, j) + sign * v(i, k)),
                                       e0 + rhs_sign * v(j, k)))
    return clauses


def ref_ebbi(e0, e12, e13, e23):
    clauses = [make_clause(f"|e{i}{j}| <= e0", abs(x), e0)
               for (i, j), x in (((1, 2), e12), ((1, 3), e13), ((2, 3), e23))]
    clauses += ref_boole(e12, e13, e23, e0=e0, name="e")
    for s1, s2, s3 in product((+1, -1), repeat=3):
        pattern = "".join("+" if s > 0 else "-" for s in (s1, s2, s3))
        clauses.append(make_clause(
            f"-3 e0 <= -(s1 s2) e12 - (s1 s3) e13 - (s2 s3) e23 at ({pattern})",
            -3.0 * e0, -(s1 * s2 * e12) - (s1 * s3 * e13) - (s2 * s3 * e23)))
    return make_report("ebbi", clauses)


def ref_named(family, names, values, order, template, rhs):
    named = list(zip(names, values))
    clauses = []
    for p, q, r in order:
        (na, va), (nb, vb), (nc, vc) = named[p], named[q], named[r]
        for sign, s in ((+1, "+"), (-1, "-")):
            clauses.append(make_clause(template.format(na=na, nb=nb, nc=nc, s=s),
                                       abs(va + sign * vb), rhs(sign, vc)))
    return make_report(family, clauses)


def ref_theorem1(e0, e1, e2, e12):
    clauses = [make_clause("0 <= e0", 0.0, e0)]
    for sign, s in ((+1, "+"), (-1, "-")):
        clauses.append(make_clause(f"|e1 {s} e2| <= e0 {s} e12",
                                   abs(e1 + sign * e2), e0 + sign * e12))
    return make_report("theorem1", clauses)


def ref_chsh(f13, f23, f14, f24):
    clauses = []
    for u in (+1, -1):
        for v in (+1, -1):
            for w in (+1, -1):
                x = u * v * w
                desc = (f"|({'+' if u > 0 else '-'}F13) - ({'+' if v > 0 else '-'}F23)"
                        f" + ({'+' if w > 0 else '-'}F14) + ({'+' if x > 0 else '-'}F24)| <= 2")
                clauses.append(make_clause(
                    desc, abs(u * f13 - v * f23 + w * f14 + x * f24), 2.0))
    return make_report("chsh", clauses)


INTERCHANGES = ((0, 1, 2), (0, 2, 1), (2, 1, 0))
E_NAMES = ("e", "ehat", "etilde")


def ref_model_sweep(model, grid, chsh):
    angles = [float(x) for x in grid]
    counts = {"bell": 0, "boole": 0}
    worst = {"bell": None, "boole": None}
    for a, b, c in combinations_with_replacement(angles, 3):
        e = [cl.analytic_correlation(model, x, y) for x, y in ((a, b), (a, c), (b, c))]
        for fam, check in (("bell", check_boole_triple_anticorrelated),
                           ("boole", check_boole_triple)):
            rep = check(*e)
            counts[fam] += not rep.all_satisfied
            for clause in rep.clauses:
                if worst[fam] is None or clause.slack < worst[fam].slack:
                    worst[fam] = cl.WorstWitness((a, b, c), clause.description,
                                                 clause.lhs, clause.rhs, clause.slack)
    n = len(angles)
    n_quads, chsh_count, chsh_max, worst_chsh = 0, 0, 0.0, None
    if chsh:
        emat = np.array([[cl.analytic_correlation(model, x, y) for y in angles]
                         for x in angles])
        combo = np.abs(emat[:, :, None, None] - emat[:, None, :, None]
                       + emat[None, :, None, :] + emat[None, None, :, :])
        n_quads = n ** 4
        chsh_count = int(np.count_nonzero(combo > 2.0 + 1e-12))
        chsh_max = float(combo.max())
        quad = np.unravel_index(int(combo.argmax()), combo.shape)
        worst_chsh = cl.WorstWitness(
            tuple(angles[i] for i in quad),
            "|E(a,b) - E(a,c) + E(d,b) + E(d,c)| <= 2", chsh_max, 2.0, 2.0 - chsh_max)
    return cl.SweepSummary(model.mu_kind, math.comb(n + 2, 3),
                           counts["bell"], worst["bell"],
                           counts["boole"], worst["boole"],
                           n_quads, chsh_count, chsh_max, worst_chsh)


def ref_grid(reports) -> GridSweep:
    reports = list(reports)
    return GridSweep(len(reports), sum(not r.all_satisfied for r in reports),
                     min(r.worst_clause().slack for r in reports))


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

POINTS = ([(0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (1.0, 1.0, 1.0), (-1.0, -1.0, -1.0),
           (-0.5, 0.5, -0.5), (0.5, 0.25, 0.5), (1, 0, -1)]
          + [tuple(x) for x in np.random.default_rng(3).uniform(-1, 1, (200, 3))])


class TestKernel:
    def test_boole_families_match_clause_loops(self):
        for point in POINTS:
            assert check_boole_triple(*point) == \
                make_report("boole_triple", ref_boole(*point, name="F"))
            assert check_boole_triple_anticorrelated(*point) == \
                make_report("boole_triple_anticorrelated",
                            ref_boole(*point, anticorrelated=True, name="F"))

    @pytest.mark.parametrize("e0", [1.0, 0.0, 0.7, 2.0])
    def test_ebbi_matches_clause_loops(self, e0):
        for point in POINTS:
            assert tables.ebbi_check(e0, *point) == ref_ebbi(e0, *point)

    def test_named_families_match_clause_loops(self):
        for p in POINTS:
            assert check_pair_bound(*p) == ref_named(
                "pair_bound", ("F", "Fhat", "Ftilde"), p, INTERCHANGES,
                "|{na} {s} {nb}| <= 3 - |{nc}|", lambda sign, z: 3.0 - abs(z))
            assert quantum.separable_clause_report(*p) == ref_named(
                "separable", ("<A1B2>", "<A1C2>", "<B1C2>"), p,
                ((0, 1, 2), (0, 2, 1), (1, 2, 0)),
                "|{na} {s} {nb}| <= 1 {s} {nc}", lambda sign, z: 1.0 + sign * z)
            for e0 in (1.0, 2.0):
                assert tables.theorem3_check(*p, e0) == ref_named(
                    "theorem3", E_NAMES, p, INTERCHANGES,
                    "|{na} {s} {nb}| <= 3 e0 - |{nc}|", lambda sign, z: 3.0 * e0 - abs(z))
                assert tables.MARGINAL_COMPATIBILITY.report(*p, e0) == ref_named(
                    "marginal_compatibility", E_NAMES, p, INTERCHANGES,
                    "|{na} {s} {nb}| <= e0 {s} {nc}", lambda sign, z: e0 + sign * z)

    def test_theorem1_and_chsh_match_clause_loops(self):
        for p in POINTS:
            for e0 in (1.0, 0.0, 2.0):
                c = tables.ExpansionCoeffs2(e0, *p)
                assert tables.theorem1_check(c) == ref_theorem1(e0, *p)
            for f24 in (p[0], -0.0, 1.0, -0.3):
                assert check_chsh(*p, f24) == ref_chsh(*p, f24)

    def test_array_slacks_equal_report_slacks(self):
        cols = np.array(POINTS, dtype=float).T
        slacks = tables.EBBI.slacks(1.0, *cols)
        assert slacks.shape == (len(POINTS), 17)
        for row, point in zip(slacks, POINTS):
            assert list(row) == [c.slack for c in tables.ebbi_check(1.0, *point).clauses]


SWEEP_GRIDS = {
    "pi/6 to 2pi": np.arange(0.0, 2 * np.pi + 1e-9, np.pi / 6),
    "pi/5 to 4pi": np.arange(0.0, 4 * np.pi + 1e-9, np.pi / 5),
    "witness": [0.0, np.pi, 2 * np.pi],
    "pi/7 below 4pi": np.arange(0.0, 4 * np.pi, np.pi / 7),
    "two angles": [0.0, np.pi],
}


class TestModelSweep:
    @pytest.mark.parametrize("mu", ["uniform", "delta_equal", "delta_opposite"])
    @pytest.mark.parametrize("grid", SWEEP_GRIDS.values(), ids=SWEEP_GRIDS.keys())
    def test_equals_scalar_reference(self, mu, grid):
        model = cl.FactorizableModel(mu)
        assert cl.model_inequality_sweep(model, grid, chsh=True) == \
            ref_model_sweep(model, grid, chsh=True)

    def test_without_chsh(self):
        model = cl.FactorizableModel("delta_opposite")
        grid = SWEEP_GRIDS["pi/5 to 4pi"]
        assert cl.model_inequality_sweep(model, grid, chsh=False) == \
            ref_model_sweep(model, grid, chsh=False)

    def test_first_minimum_wins_ties(self):
        # a repeated angle produces tied slacks; the witness is the first
        model = cl.FactorizableModel("delta_opposite")
        grid = [0.0, np.pi, 0.0, np.pi]
        assert cl.model_inequality_sweep(model, grid, chsh=True) == \
            ref_model_sweep(model, grid, chsh=True)

    def test_rejects_empty_and_non_finite_grids(self):
        model = cl.FactorizableModel("uniform")
        with pytest.raises(ValueError):
            cl.model_inequality_sweep(model, [])
        with pytest.raises(ValueError):
            cl.model_inequality_sweep(model, [0.0, np.nan])

    def test_analytic_correlation_uses_the_array_law(self):
        angles = np.arange(-7.0, 7.0, 0.37)
        for mu in ("uniform", "delta_equal", "delta_opposite"):
            model = cl.FactorizableModel(mu)
            law = cl.correlation_law(mu, angles[:, None] - angles[None, :])
            assert [[cl.analytic_correlation(model, a, b) for b in angles]
                    for a in angles] == law.tolist()


class TestGridSweeps:
    @pytest.fixture(params=[None, 7, 1], ids=["one block", "blocks of 7", "blocks of 1"])
    def block(self, request, monkeypatch):
        if request.param:
            monkeypatch.setattr(reports, "GRID_BLOCK", request.param)

    @pytest.mark.parametrize("step_deg", [30.0, 45.0])
    def test_extended_eprb_equals_scalar_reference(self, step_deg, block):
        thetas = np.arange(0.0, 2.0 * np.pi - 1e-9, math.radians(step_deg))
        ref = ref_grid(tables.ebbi_check(1.0, -math.cos(tb),
                                         -math.cos(tb) * math.cos(tc - tb),
                                         math.cos(tc - tb))
                       for tb in thetas for tc in thetas)
        assert quantum.extended_eprb_sweep(thetas) == ref

    @pytest.mark.parametrize("points", [12, 13])
    def test_leggett_garg_equals_scalar_reference(self, points, block):
        ts = np.linspace(0.0, np.pi, points)
        ref = ref_grid(lg.lg_inequality_check(
            *lg.lg_triple_correlations(lg.LGParams(1.0, 0.0, w2, w3)))
            for w2 in ts for w3 in ts)
        assert lg.lg_sweep(points) == ref

    def test_empty_grids_rejected(self):
        with pytest.raises(ValueError):
            quantum.extended_eprb_sweep(np.array([]))
        with pytest.raises(ValueError):
            lg.lg_sweep(0)
