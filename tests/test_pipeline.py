"""Event generation, coincidence filtering and the three-setting runner."""

import math

import numpy as np
import pytest

from boolebell import classical as cl
from boolebell import pipeline as pl
from boolebell import construct_g3, correlation, expand3


def make_triple_source(rng=None):
    if rng is None:
        coeffs = (1.0, 0.25, 0.25, 0.25)
    else:
        while True:
            cand = rng.uniform(-1, 1, 3)
            from boolebell import ebbi_check
            if ebbi_check(1.0, *cand).all_satisfied:
                coeffs = (1.0, *cand)
                break
    table = construct_g3(*coeffs)
    return pl.TripleProcessSource(table, {"a": 1, "b": 2, "c": 3}), table


def standard_schedule(angles=(0.0, np.pi / 3, 2 * np.pi / 3)):
    a, b, c = (pl.Setting(n, t) for n, t in zip("abc", angles))
    return [pl.SettingPair(a, b), pl.SettingPair(a, c), pl.SettingPair(b, c)]


class TestGeneration:
    def test_counts_and_settings(self):
        source, _ = make_triple_source()
        raw = pl.generate_events(source, standard_schedule(), 99,
                                 pl.TimingModel(), seed=1)
        assert raw.m == 99
        assert tuple(raw.id1[:3]) == ("a", "a", "b")
        assert tuple(raw.id2[:3]) == ("b", "c", "c")

    def test_columns_are_read_only_arrays(self):
        raw = pl.generate_events(pl.SingletSource(), standard_schedule(), 12,
                                 pl.TimingModel(), seed=1)
        for name, col in vars(raw).items():
            assert isinstance(col, np.ndarray) and col.shape == (12,), name
            assert col.dtype != object and not col.flags.writeable, name
        assert raw.angle2[1] == 2 * np.pi / 3

    def test_zero_delay_times_are_periods(self):
        source = pl.SingletSource()
        raw = pl.generate_events(source, standard_schedule(), 10,
                                 pl.TimingModel(), seed=2)
        assert np.array_equal(raw.t1, np.arange(1.0, 11.0))
        assert np.array_equal(raw.t1, raw.t2)

    def test_determinism_bit_identical_logs(self, tmp_path):
        source = pl.PairModelSource(cl.FactorizableModel("delta_opposite"))
        timing = pl.TimingModel(jitter=0.3, exponent=2.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        pl.generate_events(source, standard_schedule(), 500, timing, seed=7).write_csv(p1)
        pl.generate_events(source, standard_schedule(), 500, timing, seed=7).write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        pl.generate_events(source, standard_schedule(), 500, timing, seed=8).write_csv(p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_event_csv_format(self, tmp_path):
        source = pl.SingletSource()
        raw = pl.generate_events(source, standard_schedule(), 3,
                                 pl.TimingModel(), seed=3)
        path = tmp_path / "events.csv"
        raw.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "alpha,station,s,t,setting_id,angle"
        assert len(lines) == 1 + 2 * 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "1" and first[4] == "a"

    def test_random_schedule_mode(self):
        source = pl.SingletSource()
        raw = pl.generate_events(source, standard_schedule(), 300,
                                 pl.TimingModel(), seed=4,
                                 schedule_mode="random")
        keys = set(zip(raw.id1, raw.id2))
        assert keys == {("a", "b"), ("a", "c"), ("b", "c")}

    def test_validation(self):
        source = pl.SingletSource()
        with pytest.raises(ValueError):
            pl.generate_events(source, [], 10, pl.TimingModel(), seed=0)
        with pytest.raises(ValueError):
            pl.generate_events(source, standard_schedule(), 0,
                               pl.TimingModel(), seed=0)


class TestCoincidenceFilter:
    def test_infinite_window_keeps_matched(self):
        source, _ = make_triple_source()
        raw = pl.generate_events(source, standard_schedule(), 90,
                                 pl.TimingModel(), seed=5)
        ds = pl.coincidence_filter(raw, math.inf, ("a", "b"))
        assert ds is not None and ds.m == 30

    def test_tiny_window_zero_delays(self):
        source, _ = make_triple_source()
        raw = pl.generate_events(source, standard_schedule(), 30,
                                 pl.TimingModel(), seed=6)
        ds = pl.coincidence_filter(raw, 1e-9, ("a", "b"))
        assert ds is not None and ds.m == 10

    def test_empty_selection_signal(self):
        source, _ = make_triple_source()
        raw = pl.generate_events(source, standard_schedule(), 9,
                                 pl.TimingModel(), seed=7)
        assert pl.coincidence_filter(raw, math.inf, ("c", "a")) is None

    def test_monotone_in_window(self):
        source = pl.PairModelSource(cl.FactorizableModel("uniform"))
        timing = pl.TimingModel(jitter=0.9, exponent=1.0)
        raw = pl.generate_events(source, standard_schedule(), 600, timing, seed=8)
        kept = []
        for w in (0.05, 0.2, 0.5, math.inf):
            ds = pl.coincidence_filter(raw, w, ("a", "b"))
            kept.append(0 if ds is None else ds.m)
        assert kept == sorted(kept)
        assert kept[0] < kept[-1]  # jitter actually rejects some pairs

    def test_window_validation(self):
        raw = pl.generate_events(pl.SingletSource(), standard_schedule(), 3,
                                 pl.TimingModel(), seed=0)
        with pytest.raises(ValueError):
            pl.coincidence_filter(raw, 0.0, ("a", "b"))


class TestRunThreeSettings:
    def test_triple_source_consistent(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            source, table = make_triple_source(rng)
            rep = pl.run_three_settings(0.0, 1.0, 2.0, source,
                                        pl.TimingModel(), 3000, math.inf,
                                        seed=trial)
            assert rep.boole_direct.all_satisfied
            assert rep.verdict_direct == "consistent with triples"
            assert rep.pair_bound.all_satisfied

    def test_triple_source_matches_marginals(self):
        source, table = make_triple_source()
        coeffs = expand3(table)
        rep = pl.run_three_settings(0.0, 1.0, 2.0, source, pl.TimingModel(),
                                    120_000, math.inf, seed=11)
        for key, expect in (("ab", coeffs.e12), ("ac", coeffs.e13),
                            ("bc", coeffs.e23)):
            sigma = np.sqrt((1 - expect ** 2) / rep.counts[key])
            assert abs(rep.correlations[key] - expect) <= 4 * sigma + 1e-9

    def test_singlet_witness(self):
        rep = pl.run_three_settings(0.0, np.pi / 3, 2 * np.pi / 3,
                                    pl.SingletSource(), pl.TimingModel(),
                                    60_000, math.inf, seed=12)
        assert rep.pair_bound.all_satisfied
        assert not rep.boole_anticorrelated.all_satisfied
        assert rep.verdict_anticorrelated == "triples hypothesis rejected"
        assert rep.correlations["ab"] == pytest.approx(-0.5, abs=0.02)
        assert rep.correlations["ac"] == pytest.approx(0.5, abs=0.02)
        assert rep.correlations["bc"] == pytest.approx(-0.5, abs=0.02)

    def test_singlet_empirical_matches_quantum(self):
        rep = pl.run_three_settings(0.2, 0.9, 2.1, pl.SingletSource(),
                                    pl.TimingModel(), 150_000, math.inf, seed=13)
        for key, (x, y) in (("ab", (0.2, 0.9)), ("ac", (0.2, 2.1)),
                            ("bc", (0.9, 2.1))):
            expect = -np.cos(x - y)
            sigma = np.sqrt((1 - expect ** 2) / rep.counts[key])
            assert abs(rep.correlations[key] - expect) <= 4 * sigma + 1e-9

    def test_delta_opposite_witness_through_pipeline(self):
        source = pl.PairModelSource(cl.FactorizableModel("delta_opposite"))
        rep = pl.run_three_settings(0.0, 2 * np.pi, np.pi, source,
                                    pl.TimingModel(), 90_000, math.inf, seed=14)
        assert not rep.boole_direct.all_satisfied
        assert rep.verdict_direct == "triples hypothesis rejected"
        assert rep.pair_bound.all_satisfied

    def test_window_changes_statistics_reported_only(self):
        source = pl.PairModelSource(cl.FactorizableModel("uniform"))
        timing = pl.TimingModel(jitter=0.9, exponent=1.0)
        wide = pl.run_three_settings(0.0, 1.0, 2.0, source, timing, 30_000,
                                     math.inf, seed=15)
        narrow = pl.run_three_settings(0.0, 1.0, 2.0, source, timing, 30_000,
                                       0.15, seed=15)
        assert narrow.counts["ab"] < wide.counts["ab"]
        # trend is reported, not asserted: both remain valid reports
        assert narrow.pair_bound.all_satisfied
