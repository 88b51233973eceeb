"""Allergy scenario exactness and factorizable threshold models."""

import numpy as np
import pytest

from boolebell import classical as cl
from boolebell import correlation
from boolebell.datasets import check_boole_triple


class TestAllergyTable:
    def test_lookup_examples(self):
        assert cl.allergy_outcome("a", 1, 2) == +1   # even day
        assert cl.allergy_outcome("c", 3, 3) == +1   # odd day
        assert cl.allergy_outcome("b", 2, 2) == -1   # even day

    def test_parity_flips_every_entry(self):
        for o in "abc":
            for l in (1, 2, 3):
                assert cl.allergy_outcome(o, l, 2) == -cl.allergy_outcome(o, l, 3)

    def test_invalid_labels(self):
        with pytest.raises(ValueError):
            cl.allergy_outcome("d", 1, 1)
        with pytest.raises(ValueError):
            cl.allergy_outcome("a", 4, 1)


class TestGammaTriples:
    @pytest.mark.parametrize("days", [1, 2, 3, 10, 101, 1000])
    def test_exactly_minus_one(self, days):
        assert cl.allergy_gamma_triples(days) == -1.0

    def test_random_schedule_also_exact(self):
        assert cl.allergy_gamma_triples(501, seed=7) == -1.0

    def test_all_plus_table(self):
        lookup = {(o, l, p): +1 for o in "abc" for l in (1, 2, 3)
                  for p in ("even", "odd")}
        assert cl.allergy_gamma_triples(10, cl.AllergyScenario(lookup)) == 3.0

    def test_bound_holds_for_any_table(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            lookup = {(o, l, p): int(rng.choice([-1, 1]))
                      for o in "abc" for l in (1, 2, 3) for p in ("even", "odd")}
            g = cl.allergy_gamma_triples(64, cl.AllergyScenario(lookup))
            assert g >= -1.0 - 1e-12


class TestGammaPairs:
    @pytest.mark.parametrize("days", [1, 2, 5, 100, 999])
    def test_exactly_minus_three(self, days):
        assert cl.allergy_gamma_pairs(days) == -3.0

    def test_random_schedule_also_exact(self):
        assert cl.allergy_gamma_pairs(123, seed=3) == -3.0

    def test_city_independent_table_obeys_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            per_parity = {(o, p): int(rng.choice([-1, 1]))
                          for o in "abc" for p in ("even", "odd")}
            lookup = {(o, l, p): per_parity[(o, p)]
                      for o in "abc" for l in (1, 2, 3) for p in ("even", "odd")}
            g = cl.allergy_gamma_pairs(64, cl.AllergyScenario(lookup))
            assert g >= -1.0 - 1e-12

    def test_single_outcomes_average_to_zero(self):
        days = 100  # balanced parity
        for o, l in (("a", 1), ("b", 1), ("b", 2), ("c", 2)):
            total = sum(cl.allergy_outcome(o, l, n) for n in range(1, days + 1))
            assert total == 0


class TestAnalyticCorrelation:
    def test_equal_settings(self):
        eq = cl.FactorizableModel("delta_equal")
        opp = cl.FactorizableModel("delta_opposite")
        uni = cl.FactorizableModel("uniform")
        assert cl.analytic_correlation(eq, 0.7, 0.7) == pytest.approx(1.0)
        assert cl.analytic_correlation(opp, 0.7, 0.7) == \
            pytest.approx(4 / np.pi - 1)
        assert cl.analytic_correlation(uni, 0.7, 0.7) == pytest.approx(-0.5)

    def test_witness_values(self):
        opp = cl.FactorizableModel("delta_opposite")
        a = 0.3
        assert cl.analytic_correlation(opp, a, a + 2 * np.pi) == \
            pytest.approx(4 / np.pi - 1)
        assert cl.analytic_correlation(opp, a, a + np.pi) == pytest.approx(-1.0)

    def test_four_pi_periodicity(self):
        rng = np.random.default_rng(10)
        for kind in ("uniform", "delta_equal", "delta_opposite"):
            m = cl.FactorizableModel(kind)
            for _ in range(20):
                a, b = rng.uniform(-5, 5, 2)
                assert cl.analytic_correlation(m, a, b) == pytest.approx(
                    cl.analytic_correlation(m, a, b + 4 * np.pi), abs=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            cl.FactorizableModel("gaussian")


class TestSampling:
    def test_equal_thresholds_same_setting(self):
        m = cl.FactorizableModel("delta_equal")
        ds = cl.sample_pair(m, 1.2, 1.2, seed=4, count=2000)
        assert np.all(ds.data[:, 0] == ds.data[:, 1])

    @pytest.mark.parametrize("kind", ["uniform", "delta_equal", "delta_opposite"])
    def test_int8_outcomes_match_the_difference_rule(self, kind):
        # the signs compare cos(x) >= r; the rule as stated is cos(x) - r >= 0
        a, b, count = 0.3, 2.2, 50_000
        phi, s1, s2 = cl.sample_pair_arrays(cl.FactorizableModel(kind), a, b,
                                            np.random.default_rng(6), count)
        rng = np.random.default_rng(6)
        assert np.array_equal(phi, rng.uniform(0.0, 2.0 * np.pi, count))
        r = rng.uniform(-1.0, 1.0, count)
        diff2 = {"uniform": np.cos(phi + np.pi - b) - rng.uniform(-1.0, 1.0, count),
                 "delta_equal": np.cos(phi - b) - r,
                 "delta_opposite": np.cos(phi - b) + r}[kind]
        assert s1.dtype == s2.dtype == np.int8
        assert np.array_equal(s1, np.where(np.cos(phi - a) - r >= 0.0, 1, -1))
        assert np.array_equal(s2, np.where(diff2 >= 0.0, 1, -1))

    def test_seed_determinism(self):
        m = cl.FactorizableModel("delta_opposite")
        a = cl.sample_pair(m, 0.1, 0.9, seed=5, count=500)
        b = cl.sample_pair(m, 0.1, 0.9, seed=5, count=500)
        assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("kind", ["uniform", "delta_equal", "delta_opposite"])
    def test_monte_carlo_matches_analytic(self, kind):
        m = cl.FactorizableModel(kind)
        rng = np.random.default_rng(11)
        count = 200_000
        for trial in range(4):
            a, b = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            expect = cl.analytic_correlation(m, a, b)
            ds = cl.sample_pair(m, a, b, seed=100 + trial, count=count)
            got = correlation(ds, 1, 2).value
            sigma = np.sqrt((1 - expect ** 2) / count)
            assert abs(got - expect) <= 4 * sigma + 1e-9

    @pytest.mark.parametrize("kind", ["uniform", "delta_equal", "delta_opposite"])
    def test_malus_law_per_station(self, kind):
        from scipy import stats
        m = cl.FactorizableModel(kind)
        a, b = 0.4, 1.9
        rng = np.random.default_rng(21)
        count = 200_000
        phi, s1, s2 = cl.sample_pair_arrays(m, a, b, rng, count)
        h1, h2 = cl.station_orientations(m, phi)
        for setting, h, s in ((a, h1, s1), (b, h2, s2)):
            # exact per-event success probabilities, 36 bins over the source angle
            p = np.cos((setting - h) / 2.0) ** 2
            bins = np.floor(36 * (phi % (2 * np.pi)) / (2 * np.pi)).astype(int)
            chi2 = 0.0
            for k in range(36):
                mask = bins == k
                nk = int(mask.sum())
                exp_plus = float(p[mask].sum())
                obs_plus = float(np.count_nonzero(s[mask] == 1))
                pbar = exp_plus / nk
                var = nk * pbar * (1 - pbar)
                chi2 += (obs_plus - exp_plus) ** 2 / var
            assert chi2 < stats.chi2.ppf(0.99, 36)
            # overall +1 frequency integrates the cos^2 law to 1/2
            assert abs(np.mean(s == 1) - 0.5) <= 4 * np.sqrt(0.25 / count)


class TestSweep:
    def test_uniform_no_bell_violations(self):
        m = cl.FactorizableModel("uniform")
        grid = np.arange(0.0, 2 * np.pi + 1e-9, np.pi / 6)
        s = cl.model_inequality_sweep(m, grid, chsh=True)
        assert s.bell_violations == 0
        assert s.chsh_violations == 0

    def test_delta_equal_direct_family_clean(self):
        # identical thresholds form a genuine shared-parameter model, so the
        # direct Boole family holds on any grid
        m = cl.FactorizableModel("delta_equal")
        grid = np.arange(0.0, 4 * np.pi + 1e-9, np.pi / 5)
        s = cl.model_inequality_sweep(m, grid, chsh=False)
        assert s.boole_violations == 0

    def test_delta_opposite_witness(self):
        m = cl.FactorizableModel("delta_opposite")
        a = 0.0
        grid = [a, a + np.pi, a + 2 * np.pi]
        s = cl.model_inequality_sweep(m, grid, chsh=True)
        assert s.bell_violations >= 1
        assert s.worst_bell is not None
        # worst clause: |E(a,b) - E(a,c)| = 4/pi against 1 + E(b,c) = 0
        assert s.worst_bell.lhs == pytest.approx(4 / np.pi, abs=1e-12)
        assert s.worst_bell.rhs == pytest.approx(0.0, abs=1e-12)
        assert s.worst_bell.slack == pytest.approx(-4 / np.pi, abs=1e-12)

    def test_delta_opposite_chsh_clean(self):
        m = cl.FactorizableModel("delta_opposite")
        grid = np.arange(0.0, 4 * np.pi, np.pi / 7)
        s = cl.model_inequality_sweep(m, grid, chsh=True)
        assert s.chsh_violations == 0
        assert s.chsh_max <= 2.0 + 1e-9

    def test_witness_survives_modular_reduction(self):
        # the violating witness uses b = a + 2 pi, but the correlation law is
        # 2 pi periodic, so the equivalent in-range triple (a, a, a + pi)
        # violates too
        m = cl.FactorizableModel("delta_opposite")
        assert cl.analytic_correlation(m, 0.0, 2 * np.pi) == \
            pytest.approx(cl.analytic_correlation(m, 0.0, 0.0))
        s = cl.model_inequality_sweep(m, [0.0, np.pi], chsh=False)
        assert s.bell_violations >= 1

    def test_common_parameter_fit(self):
        # identical thresholds: one shared parameter exists at any angles
        eq = cl.FactorizableModel("delta_equal")
        rng = np.random.default_rng(12)
        for _ in range(20):
            a, b, c = rng.uniform(-2 * np.pi, 2 * np.pi, 3)
            assert cl.common_parameter_fit(eq, a, b, c).compatible
        # opposite thresholds: no shared parameter at the witness angles
        opp = cl.FactorizableModel("delta_opposite")
        res = cl.common_parameter_fit(opp, 0.0, 2 * np.pi, np.pi)
        assert not res.compatible

    def test_sampled_pairs_reproduce_witness_violation(self):
        m = cl.FactorizableModel("delta_opposite")
        a = 0.0
        angles = [(a, a + 2 * np.pi), (a, a + np.pi), (a + 2 * np.pi, a + np.pi)]
        cors = []
        for i, (x, y) in enumerate(angles):
            ds = cl.sample_pair(m, x, y, seed=50 + i, count=100_000)
            cors.append(correlation(ds, 1, 2).value)
        assert not check_boole_triple(*cors).all_satisfied
