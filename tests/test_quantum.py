"""Projector algebra, singlet correlations, filtering chains, extended
experiments, separable bounds and commutator diagnostics."""

import ast
import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from boolebell import (FuncTable2, FuncTable3, ebbi_check, expand2, expand3,
                       make_clause, make_report, marginals_compatible)
from boolebell import quantum as q
from oracles import (diag_prob, extended_eprb_prob3_chain, maximally_mixed,
                     separable_mixture)


def random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_density(rng, n):
    dim = 2 ** n
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return q.DensityMatrix(mat / np.trace(mat).real, n)


# unit vectors along +-x, +-y, +-z: every triple of them is axis-aligned, and
# some are equal, antiparallel or orthogonal
AXES = [np.array(v, dtype=float) for v in np.vstack([np.eye(3), -np.eye(3)])]


def ref_schwartz_report(a, b, c):
    """The Schwartz report built clause by clause, one loop over the sign."""
    e, ehat, bc = -float(a @ b), -float(a @ c), float(b @ c)
    return make_report("schwartz", [
        make_clause(f"|E {s} Ehat|^2 <= 2 (1 {s} b.c)", (e + sign * ehat) ** 2,
                    2.0 * (1.0 + sign * bc))
        for sign, s in ((+1, "+"), (-1, "-"))])


def ref_chsh_quadruple(pairs):
    """The quadruple CHSH report built from its one hand-written clause."""
    lhs = abs(pairs["E12"] - pairs["E13"] + pairs["E24"] + pairs["E34"])
    return make_report("chsh", [make_clause("|E12 - E13 + E24 + E34| <= 2", lhs, 2.0)])


class TestPauli:
    def test_z_axis(self):
        assert np.allclose(q.pauli_dot([0, 0, 1]), np.diag([1, -1]))

    def test_x_axis(self):
        assert np.allclose(q.pauli_dot([1, 0, 0]), np.array([[0, 1], [1, 0]]))

    def test_algebraic_properties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = random_direction(rng)
            s = q.pauli_dot(a)
            assert abs(np.trace(s)) <= 1e-14
            assert abs(np.linalg.det(s) + 1.0) <= 1e-12
            assert np.max(np.abs(s @ s - np.eye(2))) <= 1e-14
            assert np.allclose(sorted(np.linalg.eigvalsh(s)), [-1, 1])

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            q.pauli_dot([1, 1, 0])


class TestNonFiniteInputs:
    """Each tolerance check fails on NaN, so a NaN input is refused."""

    def test_direction(self):
        with pytest.raises(ValueError, match="not a unit vector"):
            q.as_direction([np.nan, 0.0, 1.0])

    def test_spin_half_state(self):
        with pytest.raises(ValueError, match=r"\|x\| <= 1"):
            q.spin_half_state([0.0, np.nan, 0.0])

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_density_matrix(self, entry):
        mat = np.eye(2, dtype=complex) / 2
        mat[0, 1] = mat[1, 0] = entry
        with pytest.raises(ValueError, match="must be finite"):
            q.DensityMatrix(mat, 1)

    def test_probability_table(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            q.ProbabilityTable(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_extended_eprb_prob3(self, angle):
        with pytest.raises(ValueError, match=r"must be finite, got .*theta_b=-?(nan|inf)"):
            q.extended_eprb_prob3(0.0, angle, 1.0)

    def test_extended_eprb_prob3_overflowing_angle_difference(self):
        with pytest.raises(ValueError, match="differences must be finite"):
            q.extended_eprb_prob3(0.0, 1e308, -1e308)

    @pytest.mark.parametrize("component", [1e200, -1e200, 1.5])
    def test_oversized_components_are_refused_before_squaring(self, component):
        # squaring 1e200 overflows, which the RuntimeWarning filter turns into an error
        with pytest.raises(ValueError, match=r"not a unit vector \(norm "):
            q.as_direction([component, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"\|x\| <= 1"):
            q.spin_half_state([0.0, component, 0.0])

    def test_extended_eprb_prob3_huge_angles_stay_normalized(self):
        table, _ = q.extended_eprb_prob3(1e300, -1e300, 1e300)
        assert float(table.p.sum()) == pytest.approx(1.0, abs=1e-12)


class TestProjector:
    def test_z_projectors(self):
        assert np.allclose(q.projector(+1, [0, 0, 1]), np.diag([1, 0]))
        assert np.allclose(q.projector(-1, [0, 0, 1]), np.diag([0, 1]))

    def test_x_projector(self):
        assert np.allclose(q.projector(+1, [1, 0, 0]), np.full((2, 2), 0.5))

    def test_algebra(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = random_direction(rng)
            mp, mm = q.projector(+1, a), q.projector(-1, a)
            assert np.max(np.abs(mp @ mp - mp)) <= 1e-14
            assert np.max(np.abs(mp - mp.conj().T)) <= 1e-14
            assert np.max(np.abs(mp @ mm)) <= 1e-14
            assert np.max(np.abs(mp + mm - np.eye(2))) <= 1e-14
            assert abs(np.trace(mp).real - 1.0) <= 1e-14

    def test_bad_outcome(self):
        with pytest.raises(ValueError):
            q.projector(0, [0, 0, 1])


class TestSinglet:
    def test_pure(self):
        rho = q.singlet()
        assert np.max(np.abs(rho.matrix @ rho.matrix - rho.matrix)) <= 1e-14

    def test_no_polarization(self):
        rho = q.singlet()
        for axis in ([1, 0, 0], [0, 1, 0], [0, 0, 1]):
            for particle in (1, 2):
                op = q.op_on(q.pauli_dot(axis), particle, 2)
                assert abs(q.expectation(rho, op)) <= 1e-14

    def test_correlation_equals_minus_dot(self):
        rng = np.random.default_rng(2)
        rho = q.singlet()
        for _ in range(200):
            a, b = random_direction(rng), random_direction(rng)
            e = q.expectation(rho, q.correlation_operator(a, b))
            assert abs(e + float(a @ b)) <= 1e-12

    def test_sixty_degrees(self):
        a = q.coplanar_direction(0.0)
        b = q.coplanar_direction(np.pi / 3)
        e = q.expectation(q.singlet(), q.correlation_operator(a, b))
        assert e == pytest.approx(-0.5, abs=1e-12)

    def test_orthogonal(self):
        e = q.expectation(q.singlet(), q.correlation_operator([0, 0, 1], [1, 0, 0]))
        assert abs(e) <= 1e-14


class TestDiagProb:
    def test_singlet_table(self):
        p = diag_prob(q.singlet())
        assert p.value(+1, -1) == pytest.approx(0.5)
        assert p.value(-1, +1) == pytest.approx(0.5)
        assert p.value(+1, +1) == pytest.approx(0.0, abs=1e-14)
        assert p.value(-1, -1) == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed_single(self):
        p = diag_prob(maximally_mixed(1))
        assert p.value(+1) == pytest.approx(0.5)
        assert p.value(-1) == pytest.approx(0.5)

    def test_up_up(self):
        psi = np.zeros(4)
        psi[0] = 1.0
        p = diag_prob(q.pure_state(psi, 2))
        assert p.value(+1, +1) == pytest.approx(1.0)

    def test_random_states_valid(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4):
            for _ in range(20):
                p = diag_prob(random_density(rng, n))
                assert np.all(p.p >= -1e-12)
                assert float(p.p.sum()) == pytest.approx(1.0, abs=1e-10)

    def test_tables_compare_by_value(self):
        p = diag_prob(q.singlet())
        assert q.ProbabilityTable(p.values.copy()) == p
        assert diag_prob(maximally_mixed(2)) != p
        assert q.ProbabilityTable(np.array([0.5, 0.5])) != diag_prob(maximally_mixed(2))
        assert p != FuncTable2(p.values)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dict_round_trip(self, n):
        p = diag_prob(random_density(np.random.default_rng(n), n))
        back = q.ProbabilityTable.from_dict(p.to_dict())
        assert type(back) is q.ProbabilityTable and back == p
        grid = q.ProbabilityTable(p.values.copy())
        assert q.ProbabilityTable.from_dict(grid.to_dict()) == grid == p

    def test_from_dict_keeps_the_probability_checks(self):
        with pytest.raises(ValueError, match="sum to 1"):
            q.ProbabilityTable.from_dict({"+": 0.5, "-": 0.6})
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            q.ProbabilityTable.from_dict({"+": 1.5, "-": -0.5})
        with pytest.raises(ValueError, match="sum to 1"):
            q.ProbabilityTable(np.array([[0.5, 0.6], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="sum to 1, got 0.0"):
            q.ProbabilityTable(np.array([]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            q.ProbabilityTable(np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="needs a 2x2 array"):
            q.ProbabilityTable(np.full((2, 3), 1 / 6))


class TestFilterChains:
    def test_aligned_preparation(self):
        theta = 0.7
        a = q.coplanar_direction(0.0)
        b = q.coplanar_direction(theta)
        table = q.filter_prob2(q.spin_half_state(a), a, b)
        for s2 in (+1, -1):
            assert table.value(-1, s2) == pytest.approx(0.0, abs=1e-14)
            assert table.value(+1, s2) == pytest.approx(
                (1 + s2 * np.cos(theta)) / 2, abs=1e-12)

    def test_mixed_state_same_axis(self):
        a = q.coplanar_direction(0.3)
        table = q.filter_prob2(maximally_mixed(1), a, a)
        for s1 in (+1, -1):
            for s2 in (+1, -1):
                assert table.value(s1, s2) == pytest.approx(
                    (1 + s1 * s2) / 4, abs=1e-12)

    def test_first_marginal(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.normal(size=3)
            x *= rng.random() / np.linalg.norm(x)
            a, b = random_direction(rng), random_direction(rng)
            table = q.filter_prob2(q.spin_half_state(x), a, b)
            for s1 in (+1, -1):
                marg = table.value(s1, +1) + table.value(s1, -1)
                assert marg == pytest.approx((1 + s1 * float(x @ a)) / 2, abs=1e-12)

    def test_chain_matches_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.normal(size=3)
            x *= rng.random() / np.linalg.norm(x)
            a, b, c = (random_direction(rng) for _ in range(3))
            rho = q.spin_half_state(x)
            t2 = q.filter_prob2(rho, a, b)
            t2c = q.filter_prob2_closed(x, a, b)
            assert np.max(np.abs(t2.p - t2c.p)) <= 1e-12
            t3 = q.filter_prob3(rho, a, b, c)
            t3c = q.filter_prob3_closed(x, a, b, c)
            assert np.max(np.abs(t3.p - t3c.p)) <= 1e-12

    def test_three_stage_coefficients(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            x = rng.normal(size=3)
            x *= rng.random() / np.linalg.norm(x)
            a, b, c = (random_direction(rng) for _ in range(3))
            coeffs = expand3(q.filter_prob3(q.spin_half_state(x), a, b, c))
            ab, bc = float(a @ b), float(b @ c)
            assert coeffs.e12 == pytest.approx(ab, abs=1e-12)
            assert coeffs.e23 == pytest.approx(bc, abs=1e-12)
            assert coeffs.e13 == pytest.approx(ab * bc, abs=1e-12)
            assert ebbi_check(1.0, coeffs.e12, coeffs.e13, coeffs.e23).all_satisfied

    def test_repeated_filtering_concentrates(self):
        a = q.coplanar_direction(1.1)
        table = q.filter_prob3(q.spin_half_state(a), a, a, a)
        assert table.value(+1, +1, +1) == pytest.approx(1.0, abs=1e-12)


class TestEprbTables:
    def test_table_coefficients(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, b, c = (random_direction(rng) for _ in range(3))
            f, fhat, ftilde = (q.singlet_pair_table(u, v) for u, v in ((a, b), (a, c), (b, c)))
            for table, u, v in ((f, a, b), (fhat, a, c), (ftilde, b, c)):
                cf = expand2(table)
                assert cf.e12 == pytest.approx(-float(u @ v), abs=1e-12)
                assert abs(cf.e1) <= 1e-12
                assert abs(cf.e2) <= 1e-12

    def test_symmetric_spread_is_compatible(self):
        dirs = [q.coplanar_direction(t) for t in
                (0.0, 2 * np.pi / 3, 4 * np.pi / 3)]
        f, fhat, ftilde = (q.singlet_pair_table(dirs[i], dirs[j])
                           for i, j in ((0, 1), (0, 2), (1, 2)))
        assert expand2(f).e12 == pytest.approx(0.5, abs=1e-12)
        assert marginals_compatible(f, fhat, ftilde).compatible

    def test_witness_angles(self):
        rep = q.eprb_substitution_report(q.coplanar_direction(0.0),
                                         q.coplanar_direction(np.pi / 3),
                                         q.coplanar_direction(2 * np.pi / 3))
        assert rep.e == pytest.approx(-0.5, abs=1e-12)
        assert rep.ehat == pytest.approx(0.5, abs=1e-12)
        assert rep.etilde == pytest.approx(-0.5, abs=1e-12)
        # direct substitution happens to satisfy the triple family here;
        # the anticorrelation identification is what fails
        assert rep.boole_direct.all_satisfied
        assert not rep.boole_anticorrelated.all_satisfied
        bad = [c for c in rep.boole_anticorrelated.violated_clauses()
               if c.description.startswith("|F12 - F13|")]
        assert bad and bad[0].lhs == pytest.approx(1.0, abs=1e-12)
        assert bad[0].rhs == pytest.approx(0.5, abs=1e-12)
        assert rep.marginals_direct.compatible
        assert not rep.marginals_anticorrelated.compatible

    def test_direct_family_fails_elsewhere(self):
        # close settings produce three strongly negative correlations, which
        # no triple distribution supports even without sign identification
        rep = q.eprb_substitution_report(q.coplanar_direction(0.0),
                                         q.coplanar_direction(np.pi / 6),
                                         q.coplanar_direction(np.pi / 3))
        assert not rep.boole_direct.all_satisfied


class TestSchwartz:
    def test_always_holds(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a, b, c = (random_direction(rng) for _ in range(3))
            rep = q.schwartz_bound(a, b, c)
            assert rep.report.all_satisfied

    def test_coplanar_sharpness(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            b, c = random_direction(rng), random_direction(rng)
            if abs(abs(b @ c) - 1) < 1e-6:
                continue
            u, v = rng.normal(size=2)
            a = u * b + v * c
            a /= np.linalg.norm(a)
            rep = q.schwartz_bound(a, b, c)
            assert rep.coplanar
            assert rep.equality
            assert abs(rep.sharpness - 1.0) <= 1e-10

    def test_perpendicular_vanishes(self):
        b = np.array([1.0, 0.0, 0.0])
        c = np.array([np.cos(0.4), np.sin(0.4), 0.0])
        a = np.array([0.0, 0.0, 1.0])
        rep = q.schwartz_bound(a, b, c)
        assert abs(rep.e) <= 1e-14
        assert abs(rep.ehat) <= 1e-14
        assert rep.sharpness == pytest.approx(0.0, abs=1e-14)
        assert not rep.equality

    def test_matches_the_dense_singlet_without_building_it(self, monkeypatch):
        rng = np.random.default_rng(11)
        triples = [[random_direction(rng) for _ in range(3)] for _ in range(500)]
        rho = q.singlet()
        dense = [(q.expectation(rho, q.correlation_operator(a, b)),
                  q.expectation(rho, q.correlation_operator(a, c))) for a, b, c in triples]

        def boom():
            raise AssertionError("built the dense singlet")
        monkeypatch.setattr(q, "singlet", boom)
        for (a, b, c), (e, ehat) in zip(triples, dense):
            rep = q.schwartz_bound(a, b, c)
            assert abs(rep.e - e) <= 1e-15 and abs(rep.ehat - ehat) <= 1e-15

    def test_generic_strictness(self):
        rng = np.random.default_rng(10)
        strict = 0
        for _ in range(100):
            a, b, c = (random_direction(rng) for _ in range(3))
            rep = q.schwartz_bound(a, b, c)
            if not rep.coplanar:
                assert rep.sharpness < 1.0 - 1e-12
                strict += 1
        assert strict > 90

    def test_report_equals_the_clause_loop(self):
        rng = np.random.default_rng(15)
        triples = [[random_direction(rng) for _ in range(3)] for _ in range(500)]
        triples += [list(t) for t in product(AXES, repeat=3)]
        for a, b, c in triples:
            rep, ref = q.schwartz_bound(a, b, c).report, ref_schwartz_report(a, b, c)
            assert rep == ref and repr(rep) == repr(ref)


class TestExtendedTriple:
    def test_equal_angles_boundary(self):
        _, coeffs = q.extended_eprb_prob3(0.4, 0.4, 0.4)
        assert coeffs.e12 == pytest.approx(-1.0, abs=1e-12)
        assert coeffs.e13 == pytest.approx(-1.0, abs=1e-12)
        assert coeffs.e23 == pytest.approx(1.0, abs=1e-12)
        assert ebbi_check(1.0, coeffs.e12, coeffs.e13, coeffs.e23).all_satisfied

    def test_witness_angles_coefficients(self):
        _, coeffs = q.extended_eprb_prob3(0.0, np.pi / 3, 2 * np.pi / 3)
        assert coeffs.e12 == pytest.approx(-0.5, abs=1e-12)
        assert coeffs.e23 == pytest.approx(0.5, abs=1e-12)
        assert coeffs.e13 == pytest.approx(-0.25, abs=1e-12)
        assert ebbi_check(1.0, coeffs.e12, coeffs.e13, coeffs.e23).all_satisfied

    def test_three_routes_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            ta, tb, tc = rng.uniform(0, 2 * np.pi, 3)
            closed, _ = q.extended_eprb_prob3(ta, tb, tc)
            chain = extended_eprb_prob3_chain(q.coplanar_direction(ta),
                                              q.coplanar_direction(tb),
                                              q.coplanar_direction(tc))
            assert np.max(np.abs(closed.p - chain.p)) <= 1e-12

    def test_first_pair_marginal_matches_pair_experiment(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            ta, tb, tc = rng.uniform(0, 2 * np.pi, 3)
            table, coeffs = q.extended_eprb_prob3(ta, tb, tc)
            assert coeffs.e12 == pytest.approx(-np.cos(tb - ta), abs=1e-12)
            marg = FuncTable3(table.values).marginals()[0]
            pair = q.singlet_pair_table(q.coplanar_direction(ta),
                                        q.coplanar_direction(tb))
            assert np.max(np.abs(marg.values - pair.p.reshape(2, 2))) <= 1e-12


class TestExtendedQuadruple:
    def test_identical_left_stages(self):
        a = q.coplanar_direction(0.2)
        c = q.coplanar_direction(1.0)
        d = q.coplanar_direction(2.2)
        _, pairs = q.extended_eprb_prob4(a, a, c, d)
        assert pairs["E12"] == pytest.approx(-1.0, abs=1e-12)

    def test_closed_forms(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            dirs = [random_direction(rng) for _ in range(4)]
            table, pairs = q.extended_eprb_prob4_chain(*dirs)
            closed = q.extended_eprb_prob4(*dirs)[1]
            for key, val in closed.items():
                assert pairs[key] == pytest.approx(val, abs=1e-12)
            assert np.all(table.p >= -1e-12)
            assert float(table.p.sum()) == pytest.approx(1.0, abs=1e-10)
            assert q.check_chsh_quadruple(pairs).all_satisfied

    def test_chsh_report_equals_the_hand_built_clause(self):
        rng = np.random.default_rng(16)
        keys = ("E12", "E13", "E14", "E23", "E24", "E34")
        dicts = [dict(zip(keys, rng.uniform(-1.0, 1.0, 6).tolist())) for _ in range(500)]
        dicts += [dict(zip(("E12", "E13", "E24", "E34"), v))
                  for v in product((1.0, -1.0, 0.0, -0.0), repeat=4)]
        for pairs in dicts:
            rep, ref = q.check_chsh_quadruple(pairs), ref_chsh_quadruple(pairs)
            assert rep == ref and repr(rep) == repr(ref)


class TestSeparable:
    def test_product_state_table(self):
        up = q.spin_half_state([0, 0, 1.0])
        down = q.spin_half_state([0, 0, -1.0])
        rho = separable_mixture([(1.0, up, down)])
        assert diag_prob(rho).value(+1, -1) == pytest.approx(1.0)

    def test_classically_correlated_mixture(self):
        up = q.spin_half_state([0, 0, 1.0])
        down = q.spin_half_state([0, 0, -1.0])
        rho = separable_mixture([(0.5, up, up), (0.5, down, down)])
        zz = q.correlation_operator([0, 0, 1], [0, 0, 1])
        z1 = q.op_on(q.pauli_dot([0, 0, 1]), 1, 2)
        assert q.expectation(rho, zz) == pytest.approx(1.0, abs=1e-12)
        assert q.expectation(rho, z1) == pytest.approx(0.0, abs=1e-14)

    def test_bad_weights(self):
        up = q.spin_half_state([0, 0, 1.0])
        with pytest.raises(ValueError):
            separable_mixture([(0.7, up, up), (0.7, up, up)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_is_refused_by_name(self, bad):
        up = q.spin_half_state([0, 0, 1.0])
        comps = [(1.0, up, up), (bad, up, up)]
        with pytest.raises(ValueError, match=f"weight 1 must be finite, got {bad}"):
            separable_mixture(comps)
        with pytest.raises(ValueError, match=f"weight 1 must be finite, got {bad}"):
            q.separable_bound_check(comps, [0, 0, 1], [1, 0, 0], [0, 1, 0])

    def test_bound_maximally_mixed(self):
        mixed = maximally_mixed(1)
        rep = q.separable_bound_check([(1.0, mixed)], [0, 0, 1], [1, 0, 0],
                                      [0, 1, 0])
        assert rep.all_satisfied
        assert all(abs(c.lhs) <= 1e-14 for c in rep.clauses)

    def test_bound_boundary(self):
        up = q.spin_half_state([0, 0, 1.0])
        down = q.spin_half_state([0, 0, -1.0])
        z = [0, 0, 1]
        rep = q.separable_bound_check([(0.5, up), (0.5, down)], z, z, z)
        assert rep.all_satisfied
        assert min(c.slack for c in rep.clauses) == pytest.approx(0.0, abs=1e-12)

    def test_random_mixtures_satisfy(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            w = rng.random(k) + 1e-9
            w /= w.sum()
            comps = []
            for i in range(k):
                x = rng.normal(size=3)
                x *= rng.random() / np.linalg.norm(x)
                comps.append((float(w[i]), q.spin_half_state(x)))
            dirs = [random_direction(rng) for _ in range(3)]
            assert q.separable_bound_check(comps, *dirs).all_satisfied

    def test_mismatched_sides_rejected(self):
        up = q.spin_half_state([0, 0, 1.0])
        down = q.spin_half_state([0, 0, -1.0])
        with pytest.raises(ValueError, match="differ"):
            q.separable_bound_check([(1.0, up, down)], [0, 0, 1], [1, 0, 0],
                                    [0, 1, 0])

    @pytest.mark.parametrize("size", [1, 4])
    def test_component_needs_two_or_three_entries(self, size):
        up = q.spin_half_state([0, 0, 1.0])
        comp = (1.0, up, up, up)[:size]
        message = r"component must be \(weight, rho\) or \(weight, rho_left, rho_right\)"
        with pytest.raises(ValueError, match=message):
            separable_mixture([comp])
        with pytest.raises(ValueError, match=message):
            q.separable_bound_check([comp], [0, 0, 1], [1, 0, 0], [0, 1, 0])

    def test_singlet_not_producible(self):
        # the singlet correlations violate the mixture bound, so no mixture
        # of identical product components can reproduce them
        rho = q.singlet()
        dirs = [q.coplanar_direction(t) for t in (0.0, np.pi / 6, np.pi / 3)]
        t_ab = q.expectation(rho, q.correlation_operator(dirs[0], dirs[1]))
        t_ac = q.expectation(rho, q.correlation_operator(dirs[0], dirs[2]))
        t_bc = q.expectation(rho, q.correlation_operator(dirs[1], dirs[2]))
        assert not q.SEPARABLE.report(t_ab, t_ac, t_bc).all_satisfied


class TestCommutators:
    def test_parallel_settings_commute(self):
        b = np.array([0.0, 1.0, 0.0])
        diag = q.commutator_diagnostics([1, 0, 0], b, b, q.singlet())
        assert diag.commutator_norms["[ab,ac]"] == pytest.approx(0.0, abs=1e-12)

    def test_orthonormal_norm(self):
        diag = q.commutator_diagnostics([1, 0, 0], [0, 1, 0], [0, 0, 1],
                                        q.singlet())
        assert diag.commutator_norms["[ab,ac]"] == pytest.approx(2.0, abs=1e-12)

    def test_first_commutator_closed_form(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            a, b, c = (random_direction(rng) for _ in range(3))
            xab = q.correlation_operator(a, b)
            xac = q.correlation_operator(a, c)
            comm = xab @ xac - xac @ xab
            w = np.cross(b, c)
            sigma_w = w[0] * q.SIGMA_X + w[1] * q.SIGMA_Y + w[2] * q.SIGMA_Z
            expect = 2j * np.kron(q.ID2, sigma_w)
            assert np.max(np.abs(comm - expect)) <= 1e-12

    def test_singlet_rhs_vanishes(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            dirs = [random_direction(rng) for _ in range(3)]
            diag = q.commutator_diagnostics(*dirs, q.singlet())
            for entry in diag.uncertainty:
                assert entry.rhs == pytest.approx(0.0, abs=1e-12)
                assert entry.lhs >= -1e-12
                assert entry.satisfied

    def test_uncertainty_holds_generic_states(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            dirs = [random_direction(rng) for _ in range(3)]
            diag = q.commutator_diagnostics(*dirs, random_density(rng, 2))
            for entry in diag.uncertainty:
                assert entry.satisfied


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        mat = np.eye(2, dtype=complex) / 2
        mat[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            q.DensityMatrix(mat, 1)

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            q.DensityMatrix(np.eye(2, dtype=complex), 1)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            q.DensityMatrix(np.diag([1.5, -0.5]).astype(complex), 1)

    @pytest.mark.parametrize("mat, n", [(np.eye(2) / 2, 2), (np.eye(4) / 4, 1),
                                        (np.full(2, 0.5), 1)],
                             ids=["2x2 for n=2", "4x4 for n=1", "vector"])
    def test_shape_must_match_the_spins(self, mat, n):
        with pytest.raises(ValueError, match=f"state of {n} spins needs shape"):
            q.DensityMatrix(mat, n)


class TestArgumentRefusals:
    @pytest.mark.parametrize("v", [[0.0, 1.0], [0.0, 0.0, 1.0, 0.0], [[0.0, 0.0, 1.0]]],
                             ids=["2", "4", "1x3"])
    def test_direction_needs_three_components(self, v):
        with pytest.raises(ValueError, match="direction must have 3 components"):
            q.as_direction(v)

    @pytest.mark.parametrize("amplitudes, n, message", [
        ([1.0, 0.0], 2, "need 4 amplitudes for n=2"),
        ([1.0, 0.0, 0.0, 0.0], 1, "need 2 amplitudes for n=1"),
        ([1.0, 1.0], 1, r"state vector norm\^2 must be 1, got 2.0"),
    ], ids=["2 for n=2", "4 for n=1", "norm 2"])
    def test_pure_state_refusals(self, amplitudes, n, message):
        with pytest.raises(ValueError, match=message):
            q.pure_state(amplitudes, n)

    def test_single_spin_chain_refuses_a_pair_state(self):
        with pytest.raises(ValueError, match=r"acts on 1 spin\(s\), the state has 2"):
            q.filter_prob2(q.singlet(), [0, 0, 1], [1, 0, 0])

    def test_separable_components_are_single_spin_states(self):
        with pytest.raises(ValueError, match="components must be single-spin states"):
            q.separable_bound_check([(1.0, q.singlet())], [0, 0, 1], [1, 0, 0], [0, 1, 0])

    def test_commutator_diagnostics_need_two_spins(self):
        up = q.spin_half_state([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="need a two-spin state"):
            q.commutator_diagnostics([0, 0, 1], [1, 0, 0], [0, 1, 0], up)


def test_make_clause_is_called_only_by_the_clause_kernel():
    """Every clause report comes from a ClauseFamily: outside reports.py no
    module of the package calls make_clause or make_report."""
    callers = {"make_clause": set(), "make_report": set()}
    for path in Path(q.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                for name in {getattr(node.func, "id", None),
                             getattr(node.func, "attr", None)} & callers.keys():
                    callers[name].add(path.name)
    assert callers == {"make_clause": {"reports.py"}, "make_report": {"reports.py"}}


def test_no_private_name_crosses_a_module_boundary():
    """No module of the package imports an underscore name from a sibling."""
    crossings = []
    for path in Path(q.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossings += [f"{path.name}: {node.module}.{alias.name}"
                              for alias in node.names if alias.name.startswith("_")]
    assert crossings == []
