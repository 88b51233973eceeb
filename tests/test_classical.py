"""Allergy scenario exactness and factorizable threshold models."""

import tracemalloc

import numpy as np
import pytest

from boolebell import classical as cl
from boolebell import correlations
from boolebell.datasets import check_boole_triple
from oracles import common_parameter_fit, fresh_call, row_counts

KINDS = ("uniform", "delta_equal", "delta_opposite")


class TestAllergyTable:
    def test_lookup_examples(self):
        assert cl.AllergyScenario().outcome("a", 1, 2) == +1   # even day
        assert cl.AllergyScenario().outcome("c", 3, 3) == +1   # odd day
        assert cl.AllergyScenario().outcome("b", 2, 2) == -1   # even day

    def test_parity_flips_every_entry(self):
        for o in "abc":
            for l in (1, 2, 3):
                assert (cl.AllergyScenario().outcome(o, l, 2)
                        == -cl.AllergyScenario().outcome(o, l, 3))

    @pytest.mark.parametrize("entry", [None, 0, 2])
    def test_each_lookup_entry_must_be_a_sign(self, entry):
        lookup = dict(cl.STANDARD_ALLERGY_TABLE)
        if entry is None:
            del lookup[("b", 3, "odd")]
        else:
            lookup[("b", 3, "odd")] = entry
        with pytest.raises(ValueError, match=r"missing or invalid entry \(b, 3, odd\)"):
            cl.AllergyScenario(lookup)

    def test_invalid_labels(self):
        with pytest.raises(ValueError):
            cl.AllergyScenario().outcome("d", 1, 1)
        with pytest.raises(ValueError):
            cl.AllergyScenario().outcome("a", 4, 1)


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
            total = sum(cl.AllergyScenario().outcome(o, l, n) for n in range(1, days + 1))
            assert total == 0


# the six (birthplace, city) factors of each variant, as three products
PRODUCTS = {cl.allergy_gamma_triples: ((("a", 1), ("b", 2)), (("a", 1), ("c", 3)),
                                       (("b", 2), ("c", 3))),
            cl.allergy_gamma_pairs: ((("a", 1), ("b", 2)), (("a", 1), ("c", 2)),
                                     (("b", 1), ("c", 2)))}


def per_day_gamma(gamma, n_days, scenario, seed):
    """The average as a loop over the days of the schedule: days 1..n without
    a seed, and with one a schedule of as many even days as it drew."""
    if seed is None:
        days = range(1, n_days + 1)
    else:
        even = cl._even_days(n_days, seed)
        days = [2] * even + [1] * (n_days - even)
    return sum(scenario.outcome(*x, day) * scenario.outcome(*y, day)
               for day in days for x, y in PRODUCTS[gamma]) / n_days


class TestGammaFromParityCounts:
    def test_equals_the_per_day_loop(self):
        rng = np.random.default_rng(10)
        for trial in range(80):
            lookup = {(o, l, p): int(rng.choice([-1, 1]))
                      for o in "abc" for l in (1, 2, 3) for p in ("even", "odd")}
            sc = cl.AllergyScenario(lookup)
            n_days = (1, 400)[trial] if trial < 2 else int(rng.integers(1, 401))
            for seed in (None, int(rng.integers(0, 2 ** 32))):
                for gamma in PRODUCTS:
                    assert gamma(n_days, sc, seed) == per_day_gamma(gamma, n_days, sc, seed)

    def test_outcome_calls_do_not_grow_with_the_days(self, monkeypatch):
        calls = []
        outcome = cl.AllergyScenario.outcome

        def counting(self, *args):
            calls.append(args)
            return outcome(self, *args)

        monkeypatch.setattr(cl.AllergyScenario, "outcome", counting)
        assert cl.allergy_gamma_pairs(100_000, seed=1) == -3.0
        assert len(calls) <= 12


class TestSeededSchedule:
    def test_even_days_lie_within_a_binomial_bound_of_half(self):
        n, seeds = 1000, range(200)
        even = [cl._even_days(n, seed) for seed in seeds]
        assert all(0 <= e <= n for e in even)
        assert even == [cl._even_days(n, seed) for seed in seeds]
        assert abs(np.mean(even) - n / 2) <= 5 * np.sqrt(n / 4 / len(seeds))
        assert {cl._even_days(1, seed) for seed in seeds} == {0, 1}

    def test_a_huge_schedule_returns_at_once(self):
        (gamma, even), seconds, peak = fresh_call(
            "[classical.allergy_gamma_pairs(10 ** 15, seed=1), "
            "classical._even_days(10 ** 15, seed=1)]")
        assert gamma == -3.0 and 0 <= even <= 10 ** 15
        assert abs(even - 10 ** 15 / 2) <= 5 * np.sqrt(10 ** 15 / 4)
        assert seconds < 1.0 and peak < 2 ** 20

    def test_days_beyond_the_binomial_domain_are_refused(self):
        # numpy's binomial takes an int64 count; without a seed any count is kept
        big = 2 ** 63
        assert cl._even_days(big - 1, seed=1) <= big - 1
        with pytest.raises(ValueError, match=r"at most 2\^63 - 1 days"):
            cl.allergy_gamma_pairs(big, seed=1)
        assert cl.allergy_gamma_pairs(big) == -3.0

    def test_requires_a_day(self):
        for seed in (None, 1):
            with pytest.raises(ValueError, match="need at least one day"):
                cl._even_days(0, seed)

    def test_memory_stays_bounded(self):
        tracemalloc.start()
        try:
            assert cl.allergy_gamma_pairs(10 ** 7, seed=3) == -3.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20


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
        assert ds.value(1, -1) == ds.value(-1, 1) == 0 and ds.m == 2000

    @pytest.mark.parametrize("kind, a, b, count", [
        *(pytest.param(kind, 0.3, 2.2, 50_000, id=kind) for kind in KINDS),
        *(pytest.param(kind, a, b, count, id=f"{kind}-{a:g}-{b:g}-{count}")
          for kind in KINDS for a, b, count in (
              (0.3, 2.2, 1), (0.3, 2.2, cl.SIGN_BLOCK - 1), (0.3, 2.2, cl.SIGN_BLOCK + 1),
              (1e3, -1e3, 50_000), (-1e6, 1e6, 50_000),
              (1e7, -1e7, 5_000)))])  # tol = 2^-20 max|x| + 2^-18 reaches 2: float64 only
    def test_int8_outcomes_match_the_difference_rule(self, kind, a, b, count):
        # the signs compare cos(x) >= r; the rule as stated is cos(x) - r >= 0
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

    @pytest.mark.parametrize("anti_aligned", [False, True])
    @pytest.mark.parametrize("block", [None, 7])
    def test_thresholds_on_the_cosine_take_the_float64_rule(self, monkeypatch, block,
                                                            anti_aligned):
        # every threshold is the float64 cosine or one of its two neighbours,
        # so the float32 screen can decide none of them
        if block:   # many blocks, the last one short
            monkeypatch.setattr(cl, "SIGN_BLOCK", block)
        rng = np.random.default_rng(12)
        phi = np.concatenate([rng.uniform(-10.0, 10.0, 30_000),
                              rng.uniform(-1e3, 1e3, 5000), rng.uniform(-1e6, 1e6, 5000),
                              np.pi / 2 * np.arange(-8, 9), [0.0]])
        rng.shuffle(phi)
        # the last block holds NaN and angles beyond the float32 range
        phi = np.concatenate([phi, [np.nan, 1e308, -1e308]])
        x = (phi + np.pi if anti_aligned else phi) - 2.2
        cos = np.cos(x)
        r = np.choose(rng.integers(0, 3, phi.size),
                      [cos, np.nextafter(cos, 2.0), np.nextafter(cos, -2.0)])
        r[:5] = np.nan
        got = cl._threshold_signs(phi, 2.2, r, anti_aligned=anti_aligned)
        assert got.dtype == np.int8
        assert np.array_equal(got, np.where(np.cos(x) >= r, 1, -1))
        assert 0 < np.count_nonzero(got == 1) < phi.size

    @pytest.mark.parametrize("kind", KINDS)
    def test_sample_pair_memory_per_sample(self, kind):
        count = 10 ** 6
        tracemalloc.start()
        try:
            cl.sample_pair(cl.FactorizableModel(kind), 0.3, 2.2, seed=1, count=count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * count

    def test_seed_determinism(self):
        m = cl.FactorizableModel("delta_opposite")
        a = cl.sample_pair(m, 0.1, 0.9, seed=5, count=500)
        b = cl.sample_pair(m, 0.1, 0.9, seed=5, count=500)
        assert a == b

    @pytest.mark.parametrize("count", [0, -1])
    def test_requires_a_sample(self, count):
        with pytest.raises(ValueError, match="need at least one sample"):
            cl.sample_pair_arrays(cl.FactorizableModel("uniform"), 0.0, 1.0,
                                  np.random.default_rng(1), count)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("count", [1, 7, cl.SIGN_BLOCK + 1, 50_000])
    def test_counts_are_those_of_the_drawn_columns(self, kind, count):
        model = cl.FactorizableModel(kind)
        _, s1, s2 = cl.sample_pair_arrays(model, 0.3, 2.2, np.random.default_rng(8), count)
        table = cl.sample_pair(model, 0.3, 2.2, seed=8, count=count)
        assert table == row_counts(np.column_stack([s1, s2])) and table.m == count

    @pytest.mark.parametrize("kind", ["uniform", "delta_equal", "delta_opposite"])
    def test_monte_carlo_matches_analytic(self, kind):
        m = cl.FactorizableModel(kind)
        rng = np.random.default_rng(11)
        count = 200_000
        for trial in range(4):
            a, b = rng.uniform(-2 * np.pi, 2 * np.pi, 2)
            expect = cl.analytic_correlation(m, a, b)
            ds = cl.sample_pair(m, a, b, seed=100 + trial, count=count)
            got = correlations(ds)[(1, 2)]
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

    def test_memory_at_145_angles(self):
        # the north-star grid, 0 to 720 degrees in 5 degree steps
        angles = np.radians(np.arange(0.0, 720.0 + 1e-9, 5.0))
        n = len(angles)
        peaks = {}
        tracemalloc.start()
        try:
            for law in ("uniform", "delta_equal", "delta_opposite"):
                emat = cl.correlation_law(law, angles[:, None] - angles[None, :])
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                cl._chsh_scan(emat)
                peaks[law] = tracemalloc.get_traced_memory()[1] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            cl.model_inequality_sweep(cl.FactorizableModel("uniform"), angles)
            peaks["sweep"] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert n == 145
        assert max(peaks[law] for law in ("uniform", "delta_equal", "delta_opposite")) < 2 * n ** 3
        # the triple indices set the peak (5.95 n^3); the Boole scans gather
        # one block of triples at a time
        assert peaks["sweep"] < 8 * n ** 3

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
            assert common_parameter_fit(eq, a, b, c).compatible
        # opposite thresholds: no shared parameter at the witness angles
        opp = cl.FactorizableModel("delta_opposite")
        res = common_parameter_fit(opp, 0.0, 2 * np.pi, np.pi)
        assert not res.compatible

    def test_sampled_pairs_reproduce_witness_violation(self):
        m = cl.FactorizableModel("delta_opposite")
        a = 0.0
        angles = [(a, a + 2 * np.pi), (a, a + np.pi), (a + 2 * np.pi, a + np.pi)]
        cors = []
        for i, (x, y) in enumerate(angles):
            ds = cl.sample_pair(m, x, y, seed=50 + i, count=100_000)
            cors.append(correlations(ds)[(1, 2)])
        assert not check_boole_triple(*cors).all_satisfied
