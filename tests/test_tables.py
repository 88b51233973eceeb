"""Expansion coefficients, non-negativity criteria, marginal reconstruction
and the factorized mixture class."""

import numpy as np
import pytest

from boolebell import tables
from boolebell import (ExpansionCoeffs2, FuncTable2,
                       FuncTable3, IncompatibleMarginalsError, LambdaModel,
                       bell_pair_tables, bell_triple_table, construct_g3,
                       ebbi_check, expand2, expand3, marginals_compatible,
                       reconstruct_f3, synth2, synth3, theorem1_check,
                       theorem3_check)


def random_lambda_model(rng, k_max=16):
    k = int(rng.integers(1, k_max + 1))
    w = rng.random(k) + 1e-12
    w /= w.sum()
    return LambdaModel(w, rng.uniform(-1, 1, k), rng.uniform(-1, 1, k),
                       rng.uniform(-1, 1, k))


class TestExpansion2:
    def test_uniform(self):
        c = expand2(FuncTable2(np.full((2, 2), 0.25)))
        assert (c.e0, c.e1, c.e2, c.e12) == (1.0, 0.0, 0.0, 1.0 * 0)

    def test_perfect_correlation(self):
        t = FuncTable2(np.array([[0.5, 0.0], [0.0, 0.5]]))
        c = expand2(t)
        assert (c.e0, c.e1, c.e2, c.e12) == (1.0, 0.0, 0.0, 1.0)

    def test_single_point(self):
        t = FuncTable2(np.array([[0.0, 1.0], [0.0, 0.0]]))  # mass at (+,-)
        c = expand2(t)
        assert (c.e0, c.e1, c.e2, c.e12) == (1.0, 1.0, -1.0, -1.0)

    def test_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            t = FuncTable2(rng.uniform(-2, 2, (2, 2)))
            back = synth2(expand2(t))
            assert np.max(np.abs(back.values - t.values)) <= 1e-14
            c = ExpansionCoeffs2(*rng.uniform(-2, 2, 4))
            again = expand2(synth2(c))
            for name in ("e0", "e1", "e2", "e12"):
                assert abs(getattr(again, name) - getattr(c, name)) <= 1e-14


class TestTheorem1:
    def test_uniform_ok(self):
        assert theorem1_check(ExpansionCoeffs2(1, 0, 0, 0)).all_satisfied

    def test_boundary_ok(self):
        rep = theorem1_check(ExpansionCoeffs2(1, 1, -1, -1))
        assert rep.all_satisfied
        assert min(c.slack for c in rep.clauses) == pytest.approx(0.0)

    def test_negative_table_detected(self):
        assert not theorem1_check(ExpansionCoeffs2(1, 0, 0, -1.5)).all_satisfied

    def test_biconditional(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            c = ExpansionCoeffs2(*rng.uniform(-1.5, 1.5, 4))
            verdict = theorem1_check(c).all_satisfied
            nonneg = synth2(c).is_nonnegative()
            assert verdict == nonneg


class TestExpansion3:
    def test_uniform(self):
        c = expand3(FuncTable3(np.full((2, 2, 2), 0.125)))
        assert c.e0 == 1.0
        for name in ("e1", "e2", "e3", "e12", "e13", "e23", "e123"):
            assert getattr(c, name) == 0.0

    def test_point_mass(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0
        c = expand3(FuncTable3(arr))
        for name in ("e0", "e1", "e2", "e3", "e12", "e13", "e23", "e123"):
            assert getattr(c, name) == 1.0

    def test_pure_triple_term(self):
        arr = np.empty((2, 2, 2))
        for i1 in range(2):
            for i2 in range(2):
                for i3 in range(2):
                    s = (1 - 2 * i1) * (1 - 2 * i2) * (1 - 2 * i3)
                    arr[i1, i2, i3] = (1 + s) / 8.0
        c = expand3(FuncTable3(arr))
        assert (c.e0, c.e123) == (1.0, 1.0)
        for name in ("e1", "e2", "e3", "e12", "e13", "e23"):
            assert getattr(c, name) == 0.0

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            t = FuncTable3(rng.uniform(-2, 2, (2, 2, 2)))
            back = synth3(expand3(t))
            assert np.max(np.abs(back.values - t.values)) <= 1e-14


class TestEbbi:
    def test_aligned_ok(self):
        assert ebbi_check(1, 1, 1, 1).all_satisfied

    def test_violating_combination(self):
        rep = ebbi_check(1, -1, -1, -1)
        assert not rep.all_satisfied
        assert any("e12 + e13" in c.description for c in rep.violated_clauses())

    def test_negative_e0_rejected(self):
        with pytest.raises(ValueError):
            ebbi_check(-0.5, 0, 0, 0)

    def test_nonnegative_tables_always_pass(self):
        rng = np.random.default_rng(21)
        for _ in range(2000):
            c = expand3(FuncTable3(rng.random((2, 2, 2))))
            assert ebbi_check(c.e0, c.e12, c.e13, c.e23).all_satisfied

    def test_clause_count(self):
        rep = ebbi_check(1, 0, 0, 0)
        # 3 preconditions + 6 paired clauses + 8 sign-pattern lower bounds
        assert len(rep.clauses) == 17


class TestConstructG3:
    def test_fully_aligned(self):
        t = construct_g3(1, 1, 1, 1)
        assert t.value(1, 1, 1) == pytest.approx(0.5)
        assert t.value(-1, -1, -1) == pytest.approx(0.5)
        assert float(np.sum(t.values)) == pytest.approx(1.0)
        assert t.value(1, -1, 1) == pytest.approx(0.0)

    def test_uniform(self):
        t = construct_g3(1, 0, 0, 0)
        assert np.allclose(t.values, 0.125)

    def test_mixed_signs(self):
        t = construct_g3(1, -1, -1, 1)
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    expect = (1 - s1 * s2 - s1 * s3 + s2 * s3) / 8.0
                    assert t.value(s1, s2, s3) == pytest.approx(expect)
        assert t.is_nonnegative()

    def test_reproduces_coefficients(self):
        rng = np.random.default_rng(3)
        built = 0
        while built < 200:
            a = rng.uniform(-1, 1, 3)
            if not ebbi_check(1.0, *a).all_satisfied:
                continue
            built += 1
            c = expand3(construct_g3(1.0, *a))
            assert abs(c.e0 - 1.0) <= 1e-13
            assert abs(c.e12 - a[0]) <= 1e-13
            assert abs(c.e13 - a[1]) <= 1e-13
            assert abs(c.e23 - a[2]) <= 1e-13
            for name in ("e1", "e2", "e3", "e123"):
                assert abs(getattr(c, name)) <= 1e-13

    def test_rejects_and_names_clause(self):
        with pytest.raises(ValueError, match="violated"):
            construct_g3(1, -1, -1, -1)


class TestTheorem3:
    def test_boundary(self):
        rep = theorem3_check(-1, -1, -1, 1)
        assert rep.all_satisfied
        assert min(c.slack for c in rep.clauses) == pytest.approx(0.0)

    def test_zeros(self):
        assert theorem3_check(0, 0, 0, 1).all_satisfied

    def test_grid_always_holds(self):
        grid = np.linspace(-1, 1, 13)
        for e in grid:
            for eh in grid:
                for et in grid:
                    assert theorem3_check(e, eh, et, 1.0).all_satisfied

    def test_precondition_rejected(self):
        with pytest.raises(ValueError):
            theorem3_check(1.5, 0, 0, 1)


def tables_from_pair_coeffs(e, ehat, etilde):
    """Three tables with unit mass, no single-variable terms, and the given
    pair coefficients; entrywise non-negative for |coeff| <= 1."""
    return (synth2(ExpansionCoeffs2(1, 0, 0, e)),
            synth2(ExpansionCoeffs2(1, 0, 0, ehat)),
            synth2(ExpansionCoeffs2(1, 0, 0, etilde)))


class TestMarginalsCompatible:
    def test_three_uniform(self):
        u = FuncTable2(np.full((2, 2), 0.25))
        assert marginals_compatible(u, u, u).compatible

    def test_clause_failure(self):
        res = marginals_compatible(*tables_from_pair_coeffs(-1, -1, -1))
        assert not res.compatible
        assert any("clause failed" in f for f in res.failures)

    def test_lambda_model_tables(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = random_lambda_model(rng)
            assert marginals_compatible(*bell_pair_tables(m)).compatible

    def test_mismatched_singles(self):
        f = synth2(ExpansionCoeffs2(1, 0.3, 0, 0))
        g = synth2(ExpansionCoeffs2(1, 0.1, 0, 0))
        u = synth2(ExpansionCoeffs2(1, 0, 0, 0))
        res = marginals_compatible(f, g, u)
        assert not res.compatible
        assert any("mismatch" in fail for fail in res.failures)

    def test_negative_table_flagged(self):
        bad = FuncTable2(np.array([[0.5, 0.6], [-0.05, -0.05]]))
        res = marginals_compatible(bad, bad, bad)
        assert any("negative" in f for f in res.failures)


class TestReconstruct:
    def test_three_uniform(self):
        u = FuncTable2(np.full((2, 2), 0.25))
        rec = reconstruct_f3(u, u, u)
        assert np.allclose(rec.table.values, 0.125)
        assert rec.e123 == 0.0

    def test_compatible_coplanar_tables(self):
        # pair coefficients 1/2, 1/2, 1/2 pass the clause family
        rec = reconstruct_f3(*tables_from_pair_coeffs(0.5, 0.5, 0.5))
        assert rec.table.is_nonnegative()
        m12, m13, m23 = rec.table.marginals()
        for marg, e in ((m12, 0.5), (m13, 0.5), (m23, 0.5)):
            got = expand2(marg)
            assert abs(got.e12 - e) <= 1e-12
            assert abs(got.e0 - 1.0) <= 1e-12

    def test_incompatible_refused(self):
        # three strongly anti-aligned pair coefficients admit no joint table
        with pytest.raises(IncompatibleMarginalsError):
            reconstruct_f3(*tables_from_pair_coeffs(-0.9, -0.9, -0.9))

    def test_marginals_reproduced_from_true_triple(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            f3 = FuncTable3(rng.random((2, 2, 2)))
            m12, m13, m23 = f3.marginals()
            rec = reconstruct_f3(m12, m13, m23)
            r12, r13, r23 = rec.table.marginals()
            assert np.max(np.abs(r12.values - m12.values)) <= 1e-12
            assert np.max(np.abs(r13.values - m13.values)) <= 1e-12
            assert np.max(np.abs(r23.values - m23.values)) <= 1e-12
            assert rec.table.is_nonnegative()

    def test_success_iff_clause_family(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            coeffs = rng.uniform(-1, 1, 3)
            tabs = tables_from_pair_coeffs(*coeffs)
            expected = marginals_compatible(*tabs).compatible
            try:
                reconstruct_f3(*tabs)
                got = True
            except IncompatibleMarginalsError:
                got = False
            assert got == expected

    def test_each_pair_table_is_expanded_once(self, monkeypatch):
        calls = []

        def counting_expand2(f):
            calls.append(f)
            return expand2(f)

        monkeypatch.setattr(tables, "expand2", counting_expand2)
        reconstruct_f3(*tables_from_pair_coeffs(0.5, 0.5, 0.5))
        assert len(calls) == 3

    def test_refusal_names_the_compatibility_failures(self):
        for coeffs in ((-0.9, -0.9, -0.9), (1.0, -1.0, 1.0)):
            tabs = tables_from_pair_coeffs(*coeffs)
            with pytest.raises(IncompatibleMarginalsError) as err:
                reconstruct_f3(*tabs)
            assert err.value.failures == marginals_compatible(*tabs).failures

    def test_midpoint_fallback_interval_exposed(self):
        rec = reconstruct_f3(*tables_from_pair_coeffs(1.0, 1.0, 1.0))
        lo, hi = rec.e123_interval
        assert lo <= rec.e123 <= hi

    def test_pinned_triple_coefficient(self):
        # marginals of a deterministic outcome pin the free coefficient: the
        # admissible interval degenerates to a nonzero point and the midpoint
        # rule must pick it
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 1.0  # all mass at (+1, +1, -1)
        m12, m13, m23 = FuncTable3(arr).marginals()
        rec = reconstruct_f3(m12, m13, m23)
        assert rec.e123 == pytest.approx(-1.0)
        assert rec.e123_interval[0] == pytest.approx(-1.0)
        assert rec.e123_interval[1] == pytest.approx(-1.0)
        assert np.max(np.abs(rec.table.values - arr)) <= 1e-12


class TestLambdaModel:
    def test_weight_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            LambdaModel(np.array([0.5, 0.6]), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            LambdaModel(np.array([1.0]), np.array([1.5]), np.zeros(1), np.zeros(1))

    def test_unpolarized_point(self):
        m = LambdaModel(np.array([1.0]), np.zeros(1), np.zeros(1), np.zeros(1))
        for t in bell_pair_tables(m):
            assert np.allclose(t.values, 0.25)
        assert np.allclose(bell_triple_table(m).values, 0.125)

    def test_deterministic_point(self):
        m = LambdaModel(np.array([1.0]), np.ones(1), np.ones(1), np.ones(1))
        t3 = bell_triple_table(m)
        assert t3.value(1, 1, 1) == pytest.approx(1.0)
        assert float(np.sum(t3.values)) == pytest.approx(1.0)

    def test_two_point_example(self):
        m = LambdaModel(np.array([0.5, 0.5]), np.array([1.0, -1.0]),
                        np.array([1.0, -1.0]), np.array([1.0, 1.0]))
        f, fhat, ftilde = bell_pair_tables(m)
        assert expand2(f).e12 == pytest.approx(1.0)
        assert expand2(fhat).e12 == pytest.approx(0.0)
        assert expand2(ftilde).e12 == pytest.approx(0.0)
        assert ebbi_check(1.0, expand2(f).e12, expand2(fhat).e12,
                          expand2(ftilde).e12).all_satisfied

    def test_triple_marginals_match_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_lambda_model(rng)
            f, fhat, ftilde = bell_pair_tables(m)
            m12, m13, m23 = bell_triple_table(m).marginals()
            assert np.max(np.abs(m12.values - f.values)) <= 1e-12
            assert np.max(np.abs(m13.values - fhat.values)) <= 1e-12
            assert np.max(np.abs(m23.values - ftilde.values)) <= 1e-12


class TestJsonRoundtrip:
    def test_table2(self):
        rng = np.random.default_rng(1)
        t = FuncTable2(rng.random((2, 2)))
        assert np.allclose(FuncTable2.from_dict(t.to_dict()).values, t.values)

    def test_table3(self):
        rng = np.random.default_rng(2)
        t = FuncTable3(rng.random((2, 2, 2)))
        assert np.allclose(FuncTable3.from_dict(t.to_dict()).values, t.values)
        assert set(t.to_dict()) == {
            "+++", "++-", "+-+", "+--", "-++", "-+-", "--+", "---"}

    def test_tables_compare_by_value(self):
        rng = np.random.default_rng(3)
        t2, t3 = FuncTable2(rng.random((2, 2))), FuncTable3(rng.random((2, 2, 2)))
        assert FuncTable2.from_dict(t2.to_dict()) == t2
        assert FuncTable3.from_dict(t3.to_dict()) == t3
        assert FuncTable3(t3.values + 1.0) != t3
        assert FuncTable2(np.zeros((2, 2))) != FuncTable3(np.zeros((2, 2, 2)))
        assert t2 != t2.to_dict()
