"""Three-probe temporal correlations: exact state, closed forms, sampling."""

import tracemalloc

import numpy as np
import pytest

from boolebell import check_boole_triple, correlations
from boolebell import leggett_garg as lg
from oracles import fresh_call


class TestEvolve:
    def test_zero_intervals(self):
        amps = lg.evolve_triple(lg.LGParams(1.0, 0, 0, 0))
        assert abs(amps.amplitudes[0] - 1.0) <= 1e-15
        assert np.max(np.abs(amps.amplitudes[1:])) <= 1e-15
        probs = dict(zip((basis[1:] for basis in lg.BASIS), np.abs(amps.amplitudes) ** 2))
        assert probs[(1, 1, 1)] == pytest.approx(1.0)

    @pytest.mark.parametrize("amplitudes, message", [
        (np.eye(8)[0][:7], "need 8 amplitudes"),
        (np.eye(2, 8), "need 8 amplitudes"),
        (np.full(8, 0.5), r"amplitudes must be normalized, got norm\^2 2.0"),
    ], ids=["7 amplitudes", "2x8 amplitudes", "norm 2"])
    def test_amplitudes_are_eight_normalized_numbers(self, amplitudes, message):
        with pytest.raises(ValueError, match=message):
            lg.LGAmplitudes(amplitudes)

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
        # all the mass on +++: every sample lands there
        for m in (1, 100, 2 ** 53):
            ds = lg.sample_triples(lg.LGParams(1.0, 0, 0, 0), m, seed=5)
            assert ds.value(1, 1, 1) == ds.m == m
            assert np.count_nonzero(ds.values) == 1

    def test_seed_determinism(self):
        p = lg.LGParams(1.0, 0.3, 0.7, 0.2)
        for m in (1, 7, 1000, 10 ** 12):
            a = lg.sample_triples(p, m, seed=9)
            assert a == lg.sample_triples(p, m, seed=9) and a.m == m
        assert lg.sample_triples(p, 1000, seed=9) != lg.sample_triples(p, 1000, seed=10)

    def test_cell_means_lie_within_binomial_bounds(self):
        p, m, seeds = lg.LGParams(1.0, 0.3, 0.7, 0.2), 1000, range(200)
        probs = dict(zip((basis[1:] for basis in lg.BASIS),
                         np.abs(lg.evolve_triple(p).amplitudes) ** 2))
        tables = [lg.sample_triples(p, m, seed=seed) for seed in seeds]
        for triple, prob in probs.items():
            mean = np.mean([table.value(*triple) for table in tables])
            sigma = np.sqrt(m * prob * (1 - prob) / len(seeds))
            assert abs(mean - m * prob) <= 5 * sigma, triple

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

    def test_memory_is_flat_in_the_samples(self):
        p = lg.LGParams(1.0, 0.3, 0.7, 0.2)
        for m in (10 ** 6, 10 ** 7):
            tracemalloc.start()
            try:
                assert lg.sample_triples(p, m, seed=1).m == m
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2 ** 20, m

    def test_a_huge_count_returns_at_once(self):
        counts, seconds, peak = fresh_call(
            "leggett_garg.sample_triples(leggett_garg.LGParams(1.0, 0.3, 0.7, 0.2), "
            "10 ** 14, seed=1).values.ravel().tolist()")
        assert sum(counts) == 10 ** 14 and all(c > 0 for c in counts)
        assert seconds < 1.0 and peak < 2 ** 20

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            lg.sample_triples(lg.LGParams(1.0, 0, 0, 0), 0, seed=1)

    @pytest.mark.parametrize("m", [2 ** 53 + 1, 2 ** 63])
    def test_counts_beyond_the_exact_range_are_refused(self, m):
        # a CountTable holds counts exactly only to 2^53, and numpy's
        # multinomial overflows from 2^63
        with pytest.raises(ValueError, match=r"need 1 to 2\^53 samples"):
            lg.sample_triples(lg.LGParams(1.0, 0, 0, 0), m, seed=1)


class TestWitness:
    def test_programmatic_witness(self):
        # equal spacings with omega * dt = pi/3: the pair-experiment values
        # fail the triple family while the actual triple values pass it
        p = lg.LGParams(1.0, 0.0, np.pi / 3, np.pi / 3)
        assert lg.lg_inequality_check(*lg.lg_triple_correlations(p)).all_satisfied
        pair = lg.lg_pair_correlations(p)
        assert not lg.lg_inequality_check(*pair).all_satisfied
        assert pair == (pytest.approx(-0.5), pytest.approx(-0.5), pytest.approx(-0.5))
