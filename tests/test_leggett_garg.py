"""Three-probe temporal correlations: exact state, closed forms, sampling."""

import numpy as np
import pytest

from boolebell import check_boole_triple, correlations
from boolebell import leggett_garg as lg


class TestEvolve:
    def test_zero_intervals(self):
        amps = lg.evolve_triple(lg.LGParams(1.0, 0, 0, 0))
        assert abs(amps.amplitudes[0] - 1.0) <= 1e-15
        assert np.max(np.abs(amps.amplitudes[1:])) <= 1e-15
        probs = dict(zip((basis[1:] for basis in lg.BASIS), np.abs(amps.amplitudes) ** 2))
        assert probs[(1, 1, 1)] == pytest.approx(1.0)

    def test_quarter_turn_first_interval(self):
        amps = lg.evolve_triple(lg.LGParams(1.0, np.pi / 2, 0, 0))
        assert amps.amplitudes[1] == pytest.approx(-1.0)
        probs = dict(zip((basis[1:] for basis in lg.BASIS), np.abs(amps.amplitudes) ** 2))
        assert probs[(-1, -1, -1)] == pytest.approx(1.0)

    def test_normalization_generic(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = lg.LGParams(rng.uniform(0.1, 3), *rng.uniform(0, 4, 3))
            amps = lg.evolve_triple(p)
            assert float(np.sum(np.abs(amps.amplitudes) ** 2)) == \
                pytest.approx(1.0, abs=1e-14)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            lg.LGParams(1.0, -0.1, 0, 0)
        with pytest.raises(ValueError):
            lg.LGParams(float("nan"), 0, 0, 0)


class TestTripleCorrelations:
    def test_closed_form_matches_state(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p = lg.LGParams(rng.uniform(0.1, 3), *rng.uniform(0, 4, 3))
            closed = lg.lg_triple_correlations(p)
            direct = lg.lg_triple_correlations_from_state(lg.evolve_triple(p))
            assert np.max(np.abs(np.array(closed) - np.array(direct))) <= 1e-12

    def test_product_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = lg.LGParams(rng.uniform(0.1, 3), *rng.uniform(0, 4, 3))
            e12, e13, e23 = lg.lg_triple_correlations(p)
            assert e13 == pytest.approx(e12 * e23, abs=1e-14)

    def test_pi_over_six(self):
        p = lg.LGParams(1.0, 0.0, np.pi / 6, np.pi / 6)
        e12, e13, e23 = lg.lg_triple_correlations(p)
        assert (e12, e13, e23) == (pytest.approx(0.5), pytest.approx(0.25),
                                   pytest.approx(0.5))
        assert lg.lg_inequality_check(e12, e13, e23).all_satisfied

    def test_zero_intervals(self):
        assert lg.lg_triple_correlations(lg.LGParams(2.0, 0, 0, 0)) == \
            (1.0, 1.0, 1.0)


class TestPairCorrelations:
    def test_pi_over_three_spacing(self):
        p = lg.LGParams(1.0, 0.0, np.pi / 3, np.pi / 3)
        e, ehat, etilde = lg.lg_pair_correlations(p)
        assert e == pytest.approx(-0.5)
        assert ehat == pytest.approx(-0.5)
        assert etilde == pytest.approx(-0.5)
        assert not check_boole_triple(e, ehat, etilde).all_satisfied

    def test_shared_and_differing_entries(self):
        rng = np.random.default_rng(3)
        differs = 0
        for _ in range(50):
            p = lg.LGParams(1.0, 0.0, *rng.uniform(0.1, 2.0, 2))
            e12, e13, e23 = lg.lg_triple_correlations(p)
            e, ehat, etilde = lg.lg_pair_correlations(p)
            assert e12 == pytest.approx(e, abs=1e-14)
            assert e23 == pytest.approx(etilde, abs=1e-14)
            if abs(e13 - ehat) > 1e-9:
                differs += 1
        assert differs > 40


class TestInequalityCheck:
    def test_triple_values_pass(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = lg.LGParams(rng.uniform(0.1, 3), *rng.uniform(0, 4, 3))
            assert lg.lg_inequality_check(
                *lg.lg_triple_correlations(p)).all_satisfied

    def test_pair_witness_fails(self):
        rep = lg.lg_inequality_check(-0.5, -0.5, -0.5)
        assert not rep.all_satisfied
        worst = rep.worst_clause()
        assert worst.lhs == pytest.approx(1.0)
        assert worst.rhs == pytest.approx(0.5)

    def test_aligned(self):
        assert lg.lg_inequality_check(1, 1, 1).all_satisfied

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lg.lg_inequality_check(1.5, 0, 0)


class TestSampling:
    def test_deterministic_state(self):
        ds = lg.sample_triples(lg.LGParams(1.0, 0, 0, 0), 100, seed=5)
        assert np.all(ds.data == 1)

    def test_seed_determinism(self):
        p = lg.LGParams(1.0, 0.3, 0.7, 0.2)
        a = lg.sample_triples(p, 1000, seed=9)
        b = lg.sample_triples(p, 1000, seed=9)
        assert np.array_equal(a.data, b.data)
        c = lg.sample_triples(p, 1000, seed=10)
        assert not np.array_equal(a.data, c.data)

    def test_empirical_matches_closed_form(self):
        p = lg.LGParams(1.0, 0.0, np.pi / 6, np.pi / 6)
        m = 100_000
        ds = lg.sample_triples(p, m, seed=12)
        e12, e13, e23 = lg.lg_triple_correlations(p)
        for (i, j), expect in (((1, 2), e12), ((1, 3), e13), ((2, 3), e23)):
            got = correlations(ds)[(i, j)]
            sigma = np.sqrt((1 - expect ** 2) / m)
            assert abs(got - expect) <= 4 * sigma

    def test_sampled_data_never_violates(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            p = lg.LGParams(rng.uniform(0.1, 3), *rng.uniform(0, 4, 3))
            ds = lg.sample_triples(p, 500, seed=trial)
            rep = check_boole_triple(correlations(ds)[(1, 2)],
                                     correlations(ds)[(1, 3)],
                                     correlations(ds)[(2, 3)])
            assert rep.all_satisfied

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            lg.sample_triples(lg.LGParams(1.0, 0, 0, 0), 0, seed=1)


class TestWitness:
    def test_programmatic_witness(self):
        # equal spacings with omega * dt = pi/3: the pair-experiment values
        # fail the triple family while the actual triple values pass it
        p = lg.LGParams(1.0, 0.0, np.pi / 3, np.pi / 3)
        assert lg.lg_inequality_check(*lg.lg_triple_correlations(p)).all_satisfied
        pair = lg.lg_pair_correlations(p)
        assert not lg.lg_inequality_check(*pair).all_satisfied
        assert pair == (pytest.approx(-0.5), pytest.approx(-0.5), pytest.approx(-0.5))
