"""Event generation, coincidence filtering and the three-setting runner."""

import csv
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
        stored = ("s1", "t1", "s2", "t2", "pair")
        assert set(vars(raw)) == {*stored, "schedule"}
        for name in (*stored, "id1", "angle1", "id2", "angle2"):
            col = getattr(raw, name)
            assert isinstance(col, np.ndarray) and col.shape == (12,), name
            assert col.dtype != object and not col.flags.writeable, name
        assert raw.angle2[1] == 2 * np.pi / 3
        assert raw.schedule == tuple(standard_schedule())

    def test_settings_are_stored_once_per_schedule_entry(self):
        # s1, s2 and pair take a byte each, t1 and t2 eight: the setting ids
        # and angles of the three entries live in the schedule alone
        raw = pl.generate_events(pl.SingletSource(), standard_schedule(), 1000,
                                 pl.TimingModel(), seed=1)
        stored = sum(col.nbytes for col in vars(raw).values() if isinstance(col, np.ndarray))
        assert stored == 19 * raw.m

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

    def test_csv_log_matches_the_row_by_row_writer(self, tmp_path):
        # ids that the csv module must quote, a random schedule and more
        # pairs than one write block
        a, b = pl.Setting("x,1", 0.1), pl.Setting('say "b"', 2)
        schedule = [pl.SettingPair(a, b), pl.SettingPair(b, a), pl.SettingPair(a, a)]
        raw = pl.generate_events(pl.SingletSource(), schedule, pl.WRITE_BLOCK + 7,
                                 pl.TimingModel(0.7, 2.7), seed=9, schedule_mode="random")
        raw.write_csv(tmp_path / "events.csv")
        with open(tmp_path / "reference.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "station", "s", "t", "setting_id", "angle"])
            columns = (raw.s1, raw.t1, raw.id1, raw.angle1, raw.s2, raw.t2, raw.id2, raw.angle2)
            for i, (s1, t1, id1, a1, s2, t2, id2, a2) in enumerate(
                    zip(*(col.tolist() for col in columns)), 1):
                writer.writerow([i, 1, s1, repr(t1), id1, repr(a1)])
                writer.writerow([i, 2, s2, repr(t2), id2, repr(a2)])
        assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("jitter, exponent", [
        (math.inf, 2.0), (math.nan, 2.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan)])
    def test_timing_model_rejects_non_finite_values(self, jitter, exponent):
        with pytest.raises(ValueError, match="finite"):
            pl.TimingModel(jitter, exponent)

    def test_validation(self):
        source = pl.SingletSource()
        with pytest.raises(ValueError):
            pl.generate_events(source, [], 10, pl.TimingModel(), seed=0)
        with pytest.raises(ValueError):
            pl.generate_events(source, standard_schedule(), 0,
                               pl.TimingModel(), seed=0)
        ones = np.ones(2, dtype=np.int8)
        with pytest.raises(ValueError, match="index the schedule"):
            pl.RawDataset(ones, np.ones(2), ones, np.ones(2), np.array([0, 3]),
                          tuple(standard_schedule()))


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

    def test_schedule_entries_sharing_a_key_are_all_kept(self):
        a = pl.Setting("a", 0.0)
        schedule = [pl.SettingPair(a, pl.Setting("b", 1.0)),
                    pl.SettingPair(a, pl.Setting("c", 2.0)),
                    pl.SettingPair(a, pl.Setting("b", 2.0))]
        raw = pl.generate_events(pl.SingletSource(), schedule, 90, pl.TimingModel(1.0, 1.0),
                                 seed=3)
        ds = pl.coincidence_filter(raw, 0.5, ("a", "b"))
        # the per-pair id match the filter selected with before
        mask = (raw.id1 == "a") & (raw.id2 == "b") & (np.abs(raw.t1 - raw.t2) <= 0.5)
        assert set(raw.pair[mask].tolist()) == {0, 2}
        assert np.array_equal(ds.data, np.column_stack([raw.s1[mask], raw.s2[mask]]))

    def test_window_validation(self):
        raw = pl.generate_events(pl.SingletSource(), standard_schedule(), 3,
                                 pl.TimingModel(), seed=0)
        with pytest.raises(ValueError):
            pl.coincidence_filter(raw, 0.0, ("a", "b"))


SOURCES = {
    "singlet": pl.SingletSource(),
    "triple": make_triple_source()[0],
    **{kind: pl.PairModelSource(cl.FactorizableModel(kind))
       for kind in ("uniform", "delta_equal", "delta_opposite")},
}


class TestRunThreeSettings:
    # with 60 pairs and seed 27, the 0.02 window empties exactly one setting
    # pair for every source
    @pytest.mark.parametrize("window", [math.inf, 0.3, 0.02])
    @pytest.mark.parametrize("name", list(SOURCES))
    @pytest.mark.parametrize("block", [None, 7])
    def test_reduction_matches_the_filter_oracle(self, monkeypatch, block, name, window):
        if block:   # reduce in several blocks, the last one short
            monkeypatch.setattr(pl, "REDUCE_BLOCK", block)
        rep = pl.run_three_settings(0.0, 1.0, 2.0, SOURCES[name], pl.TimingModel(1.0, 0.0),
                                    60, window, seed=27)
        counts, corr, empties = {}, {}, []
        for pair in (("a", "b"), ("a", "c"), ("b", "c")):
            ds = pl.coincidence_filter(rep.raw, window, pair)
            key = "".join(pair)
            counts[key] = 0 if ds is None else ds.m
            if ds is None:
                empties.append(key)
            else:
                corr[key] = correlation(ds, 1, 2).value
        assert rep.counts == counts
        assert rep.empty_pairs == tuple(empties)
        assert rep.correlations == (None if empties else corr)
        assert len(empties) == (1 if window == 0.02 else 0)

    def test_reduction_drops_nan_gaps_like_the_filter(self):
        # a NaN setting angle makes every delay at that setting NaN, so the
        # pairs (a, b) and (a, c) have NaN gaps even under an infinite window
        rep = pl.run_three_settings(math.nan, 1.0, 2.0, SOURCES["triple"],
                                    pl.TimingModel(1.0, 1.0), 60, math.inf, seed=27)
        assert np.isnan(rep.raw.t1[rep.raw.id1 == "a"]).all()
        assert pl.coincidence_filter(rep.raw, math.inf, ("a", "b")) is None
        assert rep.empty_pairs == ("ab", "ac")
        assert rep.counts == {"ab": 0, "ac": 0, "bc": 20}

    def test_window_is_checked_before_generation(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("generated events for an invalid window")
        monkeypatch.setattr(pl, "generate_events", boom)
        for window in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="window must be positive"):
                pl.run_three_settings(0.0, 1.0, 2.0, pl.SingletSource(),
                                      pl.TimingModel(), 30, window, seed=0)

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
