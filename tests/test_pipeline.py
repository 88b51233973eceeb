"""Event generation, coincidence filtering and the three-setting runner."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boolebell import classical as cl
from boolebell import pipeline as pl
from boolebell import tables
from boolebell import FuncTable3, construct_g3, correlations, expand3
from oracles import coincidence_filter, row_counts, write_csv_rows


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


def reference_events(source, schedule, m, timing, seed):
    """The generator loop with the round-robin assignment written out, every
    entry's rows found by flatnonzero and every column written through that
    index, drawing the hidden angles and the delays' uniforms at zero jitter
    too; returns s1, t1, s2, t2 and the schedule index."""
    n_pairs = len(schedule)
    children = np.random.SeedSequence(seed).spawn(n_pairs)
    assignment = (np.arange(m) % n_pairs).astype(np.min_scalar_type(n_pairs - 1))

    def delays(hidden, angle, rng):
        u = rng.random(hidden.size)
        if timing.jitter == 0.0:
            return np.zeros(hidden.size)
        return timing.jitter * u * np.float_power(np.abs(np.sin(hidden - angle)), timing.exponent)

    s1, s2 = np.empty(m, dtype=np.int8), np.empty(m, dtype=np.int8)
    t1 = np.arange(1, m + 1) * pl.EVENT_PERIOD
    t2 = t1.copy()
    for p, pair in enumerate(schedule):
        rows = np.flatnonzero(assignment == p)
        if rows.size == 0:
            continue
        rng = np.random.default_rng(children[p])
        # the source's draws in one block from rng itself: its whole draws
        # one after another, the hidden angles after the outcomes
        k, draw = source.sampler(pair.left, pair.right)
        codes, orientations = draw([rng] * k, rows.size)
        s1[rows], s2[rows] = tables.sign_rows(2)[codes].T
        h1, h2 = orientations()
        t1[rows] += delays(h1, pair.left.angle, rng)
        t2[rows] += delays(h2, pair.right.angle, rng)
    return s1, t1, s2, t2, assignment


def _no_screen(*args):
    raise AssertionError("screened a block that float32 cannot hold")


def _never(*args):
    raise AssertionError("formed a delay under a window that keeps every gap")


def _no_draw(*args):
    raise AssertionError("drew events before the arguments were checked")


class RecordingGenerator:
    """A numpy Generator, the index-th stream cursor of its entry, that
    records (index, method, size) for every draw from it."""

    def __init__(self, rng, index, calls):
        self._rng, self._index, self._calls = rng, index, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args):
            self._calls.append((self._index, name, args[-1]))
            return method(*args)
        return draw


def record_streams(monkeypatch):
    """The (count, k, draws) of every stream_cursors call of the pipeline,
    its cursors recording their draws as RecordingGenerator does."""
    streams, make = [], pl.stream_cursors

    def recording(rng, count, k):
        streams.append((count, k, []))
        return [RecordingGenerator(cursor, i, streams[-1][2])
                for i, cursor in enumerate(make(rng, count, k))]
    monkeypatch.setattr(pl, "stream_cursors", recording)
    return streams


def drawn_whole(draws, count) -> dict:
    """The method that drew each stream offset of ``draws``, checking that
    it drew exactly count doubles there, block after block."""
    methods = {}
    for index, method, size in draws:
        assert methods.setdefault(index, method) == method
    for index in methods:
        assert sum(size for i, _, size in draws if i == index) == count
    return methods


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def keep_all_threshold(pair, timing, m):
    """The least double window at which _keeps_every_gap holds, by bisection
    over the bit patterns of the positive doubles, which they order."""
    lo, hi = 0, int(np.float64(math.inf).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pl._keeps_every_gap(pair, timing, m, float(np.int64(mid).view(np.float64))):
            hi = mid
        else:
            lo = mid
    return float(np.int64(hi).view(np.float64))


def assert_counts_equal_the_oracle(rep, raw, window):
    grids = np.array([grid.values for grid in raw.window_counts(window)])
    kept = grids.sum(axis=(1, 2))
    assert rep.counts == dict(zip(("ab", "ac", "bc"), kept.tolist()))
    if rep.correlations is not None:
        for key, grid in zip(("ab", "ac", "bc"), grids):
            assert rep.correlations[key] == (grid[0, 0] + grid[1, 1] - grid[0, 1]
                                             - grid[1, 0]) / grid.sum()


SOURCES = {
    "singlet": pl.SingletSource(),
    "triple": make_triple_source()[0],
    **{kind: pl.PairModelSource(cl.FactorizableModel(kind))
       for kind in ("uniform", "delta_equal", "delta_opposite")},
}


class TestGeneration:
    @pytest.mark.parametrize("jitter, exponent",
                             [(0.0, 0.0), (0.0, 2.0), (0.7, 0.0), (1.0, 1.0), (0.5, 2.7)])
    @pytest.mark.parametrize("name", list(SOURCES))
    def test_columns_equal_the_index_scatter_loop(self, name, jitter, exponent):
        # schedules of 1, 3 and 5 entries; with m below the schedule length
        # some entries get no rows
        a, b, c = (pl.Setting(n, t) for n, t in zip("abc", (0.0, 1.1, -2.3)))
        ab, ac, bc = pl.SettingPair(a, b), pl.SettingPair(a, c), pl.SettingPair(b, c)
        schedules = [[ac], [ab, ac, bc], [ab, ac, bc, pl.SettingPair(c, a), pl.SettingPair(b, b)]]
        source, timing = SOURCES[name], pl.TimingModel(jitter, exponent)
        for schedule in schedules:
            for m in (1, 2, 3, 4, 1000):
                raw = pl.generate_events(source, schedule, m, timing, seed=m + 11)
                ref = reference_events(source, schedule, m, timing, m + 11)
                got = (raw.s1, raw.t1, raw.s2, raw.t2, raw.pair)
                for col, want in zip(got, ref):
                    assert col.dtype == want.dtype and np.array_equal(col, want), \
                        (len(schedule), m)

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

    def test_per_pair_settings_follow_the_pair_column_in_any_order(self):
        # a log read back may hold its schedule indices in no order
        schedule = tuple(standard_schedule())
        pair = np.random.default_rng(4).permutation(np.arange(30) % 3).astype(np.uint8)
        ones, times = np.ones(30, dtype=np.int8), np.arange(1.0, 31.0)
        raw = pl.RawDataset(ones, times, ones, times.copy(), pair, schedule)
        for row, p in enumerate(pair):
            left, right = schedule[p].left, schedule[p].right
            assert (raw.id1[row], raw.angle1[row], raw.id2[row], raw.angle2[row]) == \
                (left.id, left.angle, right.id, right.angle)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_entry_p_draws_from_the_pth_seed_child_for_pairs_p_plus_n_j(self, monkeypatch, n):
        # every m up to past two rounds of the schedule: an entry p >= m has
        # no pairs and is skipped, and an untimed entry yields no station;
        # its codes, in blocks of 2, are the source's draw of all its pairs
        # at the start of the p-th child's stream
        monkeypatch.setattr(tables, "BLOCK", 2)
        settings = [pl.Setting(f"s{k}", 0.4 * k) for k in range(n + 1)]
        schedule = [pl.SettingPair(settings[k], settings[k + 1]) for k in range(n)]
        source, timing = pl.SingletSource(), pl.TimingModel()
        for m in range(1, 2 * n + 3):
            children = np.random.SeedSequence(5).spawn(n)
            entries = list(pl._entries(source, schedule, m, timing, 5, lambda pair: False))
            assert [entry[0] for entry in entries] == list(range(min(n, m)))
            for p, draws in entries:
                draws, count = list(draws), len(range(p, m, n))
                k, draw = source.sampler(schedule[p].left, schedule[p].right)
                want = draw([np.random.default_rng(children[p])] * k, count)[0]
                assert [block for block, _, _ in draws] == list(tables.blocks(count))
                assert np.array_equal(np.concatenate([codes for _, codes, _ in draws]), want)
                assert all(stations == [] for _, _, stations in draws)
            raw = pl.generate_events(source, schedule, m, timing, seed=5)
            assert np.array_equal(raw.pair, np.arange(m) % n)
            assert np.array_equal(raw.t1, np.arange(1.0, m + 1.0))

    def test_zero_delay_times_are_periods(self):
        source = pl.SingletSource()
        raw = pl.generate_events(source, standard_schedule(), 10,
                                 pl.TimingModel(), seed=2)
        assert np.array_equal(raw.t1, np.arange(1.0, 11.0))
        assert np.array_equal(raw.t1, raw.t2)

    @pytest.mark.parametrize("jitter", [0.0, 0.7, 1.0, 2.5])
    def test_zero_exponent_delays_are_the_scaled_uniforms(self, jitter):
        # |sin|^0 is 1.0 for every double, NaN included: no sine is taken
        hidden = np.concatenate([np.random.default_rng(3).uniform(-10.0, 10.0, 999),
                                 [np.nan]])
        want = jitter * np.random.default_rng(8).random(hidden.size)
        got = pl.TimingModel(jitter, 0.0).delays(hidden, 0.4, want.copy())
        assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("ids, m, offset", [
        # ids that the csv module must quote, more pairs than one write block
        (("x,1", 'say "b"'), pl.WRITE_BLOCK + 7, 0.0),
        # a NUL byte is kept by the tail's length, not dropped as padding
        (("a\0b", "ün-α"), pl.WRITE_BLOCK, 0.0),
        (("", "c"), pl.WRITE_BLOCK + 1, 0.0),
        (("a", "b"), 1, 0.0),
        # times with 7 integer digits, beyond those of the alphas
        (("a", "b"), 300, 4_000_000.0),
    ], ids=["quoted-ids", "nul-and-non-ascii-ids", "empty-id", "one-pair", "seven-digit-times"])
    def test_csv_log_matches_the_row_by_row_writer(self, tmp_path, ids, m, offset):
        # schedule indices in no order, as a log read back may hold them
        a, b = pl.Setting(ids[0], 0.1), pl.Setting(ids[1], 2)
        schedule = [pl.SettingPair(a, b), pl.SettingPair(b, a), pl.SettingPair(a, a)]
        rng = np.random.default_rng(9)
        s1, s2 = rng.choice(np.int8([-1, 1]), (2, m))
        t1, t2 = offset + np.arange(1.0, m + 1) + rng.uniform(0.0, 0.7, (2, m))
        pair = rng.permutation(np.arange(m) % 3).astype(np.uint8)
        raw = pl.RawDataset(s1, t1, s2, t2, pair, tuple(schedule))
        raw.write_csv(tmp_path / "events.csv")
        write_csv_rows(raw, tmp_path / "reference.csv")
        assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_csv_log_writes_other_times_by_repr(self, tmp_path):
        # values beyond the integer renderer's domain, among ordinary ones,
        # in the first and in a later block
        odd = [math.nan, math.inf, -math.inf, 0.5, -1.0, 0.0, 2.0 ** 32, 1e16, 1e300, 5e-324,
               -1.2345678901234567e-300]
        m = pl.WRITE_BLOCK + len(odd)
        t1 = np.arange(1.0, m + 1) + 0.25
        t2 = t1.copy()
        t1[:len(odd)] = t2[-len(odd):] = odd
        ones = np.ones(m, dtype=np.int8)
        raw = pl.RawDataset(ones, t1, -ones, t2, np.arange(m) % 3, tuple(standard_schedule()))
        raw.write_csv(tmp_path / "events.csv")
        write_csv_rows(raw, tmp_path / "reference.csv")
        assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_csv_writer_memory_does_not_grow_with_the_log(self, tmp_path):
        timing = pl.TimingModel(1.0, 2.7)
        peaks = []
        for m in (20_000, 200_000):
            raw = pl.generate_events(pl.SingletSource(), standard_schedule(), m, timing, seed=1)
            peaks.append(traced_peak(lambda: raw.write_csv(tmp_path / "events.csv")))
        assert abs(peaks[1] - peaks[0]) < 2 ** 20
        assert max(peaks) < 16 * 2 ** 20

    @pytest.mark.parametrize("column, value, match", [
        ("s1", np.zeros(3, dtype=np.int8), "outcomes"),
        ("s2", np.ones(3), "outcomes"),
        ("t1", np.arange(1, 4), "float64"),
        ("t2", np.arange(1.0, 4.0, dtype=np.float32), "float64"),
    ])
    def test_raw_dataset_columns_are_checked(self, column, value, match):
        ones = np.ones(3, dtype=np.int8)
        columns = dict(s1=ones, t1=np.arange(1.0, 4.0), s2=-ones, t2=np.arange(1.0, 4.0),
                       pair=np.arange(3))
        columns[column] = value
        with pytest.raises(ValueError, match=match):
            pl.RawDataset(**columns, schedule=tuple(standard_schedule()))

    @pytest.mark.parametrize("m", [0, -1])
    def test_pair_count_is_checked_before_any_draw(self, monkeypatch, m):
        monkeypatch.setattr(pl, "_entry_draws", _no_draw)
        timing = pl.TimingModel(1.0, 1.0)
        with pytest.raises(ValueError, match="need at least one event pair"):
            pl.generate_events(pl.SingletSource(), standard_schedule(), m, timing, seed=0)
        with pytest.raises(ValueError, match="need at least one event pair"):
            pl.run_three_settings(0.0, 1.0, 2.0, pl.SingletSource(), timing, m, 0.3, seed=0)

    def test_empty_schedule_is_refused_before_any_draw(self, monkeypatch):
        monkeypatch.setattr(pl, "_entry_draws", _no_draw)
        timing = pl.TimingModel(1.0, 1.0)
        with pytest.raises(ValueError, match="schedule must not be empty"):
            pl.generate_events(pl.SingletSource(), [], 10, timing, seed=0)
        with pytest.raises(ValueError, match="schedule must not be empty"):
            pl._window_counts(pl.SingletSource(), [], 10, timing, 0, 0.3)

    @pytest.mark.parametrize("jitter, exponent", [
        (math.inf, 2.0), (math.nan, 2.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan)])
    def test_timing_model_rejects_non_finite_values(self, jitter, exponent):
        with pytest.raises(ValueError, match="finite"):
            pl.TimingModel(jitter, exponent)

    @pytest.mark.parametrize("jitter, exponent", [(-1.0, 2.0), (1.0, -400.0), (1.0, -1e-9)])
    def test_timing_model_rejects_negative_values(self, jitter, exponent):
        with pytest.raises(ValueError, match="must be non-negative"):
            pl.TimingModel(jitter, exponent)

    @pytest.mark.parametrize("values, slots, message", [
        (np.eye(8)[0] - np.eye(8)[5] / 2, {"a": 1, "b": 2, "c": 3}, "entrywise non-negative"),
        (np.zeros(8), {"a": 1, "b": 2, "c": 3}, "positive mass"),
        (np.full(8, 0.125), {"a": 1, "b": 1, "c": 3}, "distinct values in 1..3"),
        (np.full(8, 0.125), {"a": 1, "b": 2, "c": 4}, "distinct values in 1..3"),
    ], ids=["negative entry", "no mass", "shared slot", "slot 4"])
    def test_triple_source_refusals(self, values, slots, message):
        with pytest.raises(ValueError, match=message):
            pl.TripleProcessSource(FuncTable3(values.reshape(2, 2, 2)), slots)

    def test_validation(self):
        source = pl.SingletSource()
        with pytest.raises(ValueError):
            pl.generate_events(source, [], 10, pl.TimingModel(), seed=0)
        with pytest.raises(ValueError):
            pl.generate_events(source, standard_schedule(), 0,
                               pl.TimingModel(), seed=0)
        empty = np.empty(0)
        with pytest.raises(ValueError, match="at least one pair"):
            pl.RawDataset(empty.astype(np.int8), empty, empty.astype(np.int8), empty,
                          empty.astype(np.intp), tuple(standard_schedule()))
        ones = np.ones(2, dtype=np.int8)
        with pytest.raises(ValueError, match="index the schedule"):
            pl.RawDataset(ones, np.ones(2), ones, np.ones(2), np.array([0, 3]),
                          tuple(standard_schedule()))


class TestCoincidenceFilter:
    def test_infinite_window_keeps_matched(self):
        source, _ = make_triple_source()
        raw = pl.generate_events(source, standard_schedule(), 90,
                                 pl.TimingModel(), seed=5)
        ds = coincidence_filter(raw, math.inf, ("a", "b"))
        assert ds is not None and ds.m == 30

    def test_tiny_window_zero_delays(self):
        source, _ = make_triple_source()
        raw = pl.generate_events(source, standard_schedule(), 30,
                                 pl.TimingModel(), seed=6)
        ds = coincidence_filter(raw, 1e-9, ("a", "b"))
        assert ds is not None and ds.m == 10

    def test_empty_selection_signal(self):
        source, _ = make_triple_source()
        raw = pl.generate_events(source, standard_schedule(), 9,
                                 pl.TimingModel(), seed=7)
        assert coincidence_filter(raw, math.inf, ("c", "a")) is None

    def test_monotone_in_window(self):
        source = pl.PairModelSource(cl.FactorizableModel("uniform"))
        timing = pl.TimingModel(jitter=0.9, exponent=1.0)
        raw = pl.generate_events(source, standard_schedule(), 600, timing, seed=8)
        kept = []
        for w in (0.05, 0.2, 0.5, math.inf):
            ds = coincidence_filter(raw, w, ("a", "b"))
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
        ds = coincidence_filter(raw, 0.5, ("a", "b"))
        # the per-pair id match the filter selected with before
        mask = (raw.id1 == "a") & (raw.id2 == "b") & (np.abs(raw.t1 - raw.t2) <= 0.5)
        assert set(raw.pair[mask].tolist()) == {0, 2}
        assert ds == row_counts(np.column_stack([raw.s1[mask], raw.s2[mask]]))

    def test_window_validation(self):
        raw = pl.generate_events(pl.SingletSource(), standard_schedule(), 3,
                                 pl.TimingModel(), seed=0)
        with pytest.raises(ValueError):
            coincidence_filter(raw, 0.0, ("a", "b"))
        for window in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="window must be positive"):
                raw.window_counts(window)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_keep_all_predicate_implies_the_float64_rule(data):
    # at the least windows where the predicate holds, every pair of delays
    # from 0, the jitter, one ulp inside each and one drawn value, at the
    # alphas 1, m and one drawn, has a float64 gap within the window
    m = data.draw(st.integers(1, 2 ** 45), "m")
    jitter = data.draw(st.sampled_from([0.0, 5e-324, 2.0 ** -40, 0.1, 1.0, 17592.7 * 2.0 ** -44])
                       | st.floats(0.0, 1e300), "jitter")
    delays = {0.0, min(float(np.nextafter(0.0, 1.0)), jitter), float(np.nextafter(jitter, 0.0)),
              jitter, data.draw(st.floats(0.0, jitter), "delay")}
    alphas = [a * pl.EVENT_PERIOD for a in (1, m, data.draw(st.integers(1, m), "alpha"))]
    pair = standard_schedule()[0]
    timing = pl.TimingModel(jitter, data.draw(st.sampled_from([0.0, 1.0]), "exponent"))
    window = keep_all_threshold(pair, timing, m)
    for _ in range(data.draw(st.integers(0, 2), "ulps above the threshold")):
        window = float(np.nextafter(window, math.inf))
    assert pl._keeps_every_gap(pair, timing, m, window)
    for alpha in alphas:
        for d1 in delays:
            for d2 in delays:
                assert abs((alpha + d1) - (alpha + d2)) <= window, (alpha, d1, d2)


class TestRunThreeSettings:
    @pytest.mark.parametrize("window", [math.inf, 0.3])
    @pytest.mark.parametrize("name", ["singlet", "uniform"])
    def test_counts_memory_is_flat_in_the_pairs(self, name, window):
        # no event time and no whole-entry array is stored: one block's draws
        # and temporaries, whether the window keeps every gap undrawn or the
        # delays are screened
        for m in (10 ** 5, 10 ** 6, 10 ** 7):
            grids = []
            peak = traced_peak(lambda: grids.extend(pl._window_counts(
                SOURCES[name], standard_schedule(), m, pl.TimingModel(1.0, 2.7), 1, window)))
            kept = sum(grid.m for grid in grids)
            assert peak < 4 * 2 ** 20, m
            assert kept == m if window == math.inf else 0 < kept < m

    @pytest.mark.parametrize("m", [2 ** 53 + 1, 2 ** 63, 10 ** 30])
    def test_pair_counts_beyond_2_to_the_53_are_refused_before_any_draw(self, monkeypatch, m):
        monkeypatch.setattr(pl, "_entry_draws", _no_draw)
        timing = pl.TimingModel(1.0, 1.0)
        message = rf"need 1 to 2\^53 event pairs, got {m}"
        with pytest.raises(ValueError, match=message):
            pl.run_three_settings(0.0, 1.0, 2.0, pl.SingletSource(), timing, m, 0.3, seed=0)
        with pytest.raises(ValueError, match=message):
            pl.generate_events(pl.SingletSource(), standard_schedule(), m, timing, seed=0)

    @pytest.mark.parametrize("jitter, exponent, window", [
        pytest.param(0.0, 0.0, 0.3, id="zero-jitter"),
        pytest.param(1.0, 2.7, math.inf, id="keeps-every-gap"),
        pytest.param(1.0, 2.7, 0.3, id="screened"),
        pytest.param(1.0, 0.0, 0.3, id="exponent-0")])
    @pytest.mark.parametrize("name", list(SOURCES))
    def test_counts_over_many_blocks_equal_the_filter_oracle(self, name, jitter, exponent,
                                                            window):
        # each entry's pairs span two full blocks and a short one
        m = 3 * (2 * tables.BLOCK + 5) - 1
        timing, angles = pl.TimingModel(jitter, exponent), (0.3, 1.4, -2.0)
        rep = pl.run_three_settings(*angles, SOURCES[name], timing, m, window, seed=19)
        raw = pl.generate_events(SOURCES[name], standard_schedule(angles), m, timing, seed=19)
        for pair in standard_schedule(angles):
            kept = coincidence_filter(raw, window, pair.key)
            assert rep.counts["".join(pair.key)] == kept.m
            assert rep.correlations["".join(pair.key)] == correlations(kept)[(1, 2)]

    # 2^-40 jitter covers 2^-50 (m + jitter) from a jitter of about m / 1023 up
    @pytest.mark.parametrize("jitter, exponent, window", [
        pytest.param(0.5, 1.0, math.inf, id="infinite"),
        pytest.param(4.0, 2.7, 4.0 * (1 + 2.0 ** -40), id="jitter-widened"),
        pytest.param(0.0, 0.0, 0.3, id="zero-jitter")])
    @pytest.mark.parametrize("name", list(SOURCES))
    def test_no_delay_formed_draws_only_the_outcomes(self, monkeypatch, name, jitter, exponent,
                                                     window):
        # a window that keeps every gap, or zero jitter: no station uniform,
        # no delay, no screen and no hidden angle; each entry draws only the
        # outcome streams at the start of its stream, each whole
        monkeypatch.setattr(tables, "BLOCK", 300)
        streams = record_streams(monkeypatch)
        monkeypatch.setattr(pl.TimingModel, "delays", _never)
        monkeypatch.setattr(pl, "_coincident", _never)
        monkeypatch.setattr(pl, "station_orientations", _never)
        angles, timing = (0.3, 1.4, -2.0), pl.TimingModel(jitter, exponent)
        rep = pl.run_three_settings(*angles, SOURCES[name], timing, 3000, window, seed=5)
        assert [count for count, _, _ in streams] == [1000] * 3
        for count, k, draws in streams:
            if name in ("singlet", "triple"):  # only the outcomes' inverse-CDF uniforms
                assert drawn_whole(draws, count) == {0: "random"}
            else:  # the model's angle and thresholds
                assert drawn_whole(draws, count) == dict.fromkeys(range(k), "random")
        monkeypatch.undo()
        raw = pl.generate_events(SOURCES[name], standard_schedule(angles), 3000, timing, seed=5)
        assert_counts_equal_the_oracle(rep, raw, window)
        assert sum(rep.counts.values()) == 3000

    @pytest.mark.parametrize("exponent", [2.7, 0.0])
    @pytest.mark.parametrize("name", list(SOURCES))
    def test_a_timed_entry_draws_its_hidden_angles_after_the_outcomes(self, monkeypatch, name,
                                                                      exponent):
        # the same entry untimed and timed, in blocks of 7: untimed, only the
        # outcomes' draws; timed, a singlet or triple entry adds one whole
        # draw of hidden angles, which both stations share, and a pair-model
        # entry reads the model's source angle; each station's uniforms come
        # last.  At exponent 0 no hidden angle is read, so none is drawn, and
        # the stations' uniforms keep their place in the stream
        monkeypatch.setattr(tables, "BLOCK", 7)
        streams = record_streams(monkeypatch)
        source, pair, count = SOURCES[name], standard_schedule()[0], 100
        timing = pl.TimingModel(0.5, exponent)
        sampler = source.sampler(pair.left, pair.right)
        blocks = {timed: list(pl._entry_draws(sampler, pair, timing, np.random.default_rng(5),
                                              count, timed))
                  for timed in (False, True)}
        assert all(stations == [] for _, _, stations in blocks[False])
        # the whole draws of the entry's stream, one after another
        rng = np.random.default_rng(5)
        if name in ("singlet", "triple"):
            rng.random(count)  # the outcomes' inverse-CDF uniforms
            want_hidden = (rng.uniform(0.0, 2.0 * np.pi, count),) * 2
            outcomes = {0: "random"}
        else:
            phi = rng.uniform(0.0, 2.0 * np.pi, count)
            for _ in range(source.model.streams - 1):
                rng.uniform(-1.0, 1.0, count)  # the thresholds
            want_hidden = cl.station_orientations(source.model, phi)
            outcomes = dict.fromkeys(range(source.model.streams), "random")
        want_scaled = [rng.random(count) * 0.5 for _ in range(2)]
        (_, _, untimed), (_, k, timed) = streams
        assert drawn_whole(untimed, count) == outcomes
        stations = {k - 2: "random", k - 1: "random"}  # the last two cursors
        if exponent == 0.0:
            assert drawn_whole(timed, count) == {**outcomes, **stations}
            assert all(h is None for _, _, st in blocks[True] for h, _, _ in st)
        else:
            hidden = {1: "random"} if name in ("singlet", "triple") else {}
            assert drawn_whole(timed, count) == {**outcomes, **hidden, **stations}
            for station, want in enumerate(want_hidden):
                got = np.concatenate([st[station][0] for _, _, st in blocks[True]])
                assert np.array_equal(got, want)
            if name in ("singlet", "triple"):
                assert all(st[0][0] is st[1][0] for _, _, st in blocks[True])
        for station, want in enumerate(want_scaled):
            got = np.concatenate([st[station][2] for _, _, st in blocks[True]])
            assert np.array_equal(got, want)
        assert all([st[0][1], st[1][1]] == [pair.left.angle, pair.right.angle]
                   for _, _, st in blocks[True])

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [name for name in SOURCES if name != "singlet"])
    def test_non_finite_settings_take_the_draws_under_an_infinite_window(self, monkeypatch,
                                                                         name, angle):
        # the delays at setting a are NaN, so the entries (a, b) and (a, c)
        # draw them and drop every NaN gap; (b, c) keeps every pair undrawn
        screened = []
        coincident = pl._coincident
        monkeypatch.setattr(pl, "_coincident", lambda stations, block, first, *rest:
                            screened.append(first) or coincident(stations, block, first, *rest))
        angles, timing = (angle, 1.0, 2.0), pl.TimingModel(1.0, 2.7)
        with np.errstate(invalid="ignore"):  # cos and sin of an infinite angle are NaN
            rep = pl.run_three_settings(*angles, SOURCES[name], timing, 300, math.inf, seed=8)
            raw = pl.generate_events(SOURCES[name], standard_schedule(angles), 300, timing, 8)
        assert sorted(set(screened)) == [1, 2]
        assert rep.counts == {"ab": 0, "ac": 0, "bc": 100}
        assert_counts_equal_the_oracle(rep, raw, math.inf)

    @pytest.mark.parametrize("exponent", [0.0, 1.0, 2.7])
    @pytest.mark.parametrize("name", list(SOURCES))
    def test_counts_equal_the_float64_rule_around_the_keep_all_threshold(self, name, exponent):
        angles, m, seed = (0.3, 1.4, -2.0), 600, 41
        schedule = standard_schedule(angles)
        for jitter in (1e-9, 1.0):
            timing = pl.TimingModel(jitter, exponent)
            threshold = keep_all_threshold(schedule[0], timing, m)
            below, widened = float(np.nextafter(threshold, 0.0)), jitter * (1 + 2.0 ** -40)
            assert not pl._keeps_every_gap(schedule[0], timing, m, below)
            # 2^-40 jitter covers 2^-50 (m + jitter) at a jitter of 1 only
            assert pl._keeps_every_gap(schedule[0], timing, m, widened) == (jitter == 1.0)
            raw = pl.generate_events(SOURCES[name], schedule, m, timing, seed)
            for window in (math.inf, widened, below):
                assert_counts_equal_the_oracle(
                    pl.run_three_settings(*angles, SOURCES[name], timing, m, window, seed),
                    raw, window)

    # with 60 pairs and seed 27, the 0.02 window empties exactly one setting
    # pair for every source
    @pytest.mark.parametrize("window", [math.inf, 0.3, 0.02])
    @pytest.mark.parametrize("name", list(SOURCES))
    @pytest.mark.parametrize("block", [None, 7])
    def test_reduction_matches_the_filter_oracle(self, monkeypatch, block, name, window):
        if block:   # reduce in several blocks, the last one short
            monkeypatch.setattr(tables, "BLOCK", block)
        timing = pl.TimingModel(1.0, 0.0)
        rep = pl.run_three_settings(0.0, 1.0, 2.0, SOURCES[name], timing, 60, window, seed=27)
        raw = pl.generate_events(SOURCES[name], pl.three_settings_schedule(0.0, 1.0, 2.0), 60,
                                 timing, seed=27)
        counts, corr, empties = {}, {}, []
        for pair in (("a", "b"), ("a", "c"), ("b", "c")):
            ds = coincidence_filter(raw, window, pair)
            key = "".join(pair)
            counts[key] = 0 if ds is None else ds.m
            if ds is None:
                empties.append(key)
            else:
                corr[key] = correlations(ds)[(1, 2)]
        assert rep.counts == counts
        assert rep.empty_pairs == tuple(empties)
        assert rep.correlations == (None if empties else corr)
        assert len(empties) == (1 if window == 0.02 else 0)

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("exponent", [0.0, 0.1, 0.5, 1.0, 2.0, 2.7, 4.0])
    @pytest.mark.parametrize("name", list(SOURCES))
    def test_screened_counts_equal_the_float64_rule(self, monkeypatch, name, exponent, block):
        # the delay screen against the stored float64 times: a window equal to
        # a real gap keeps that pair, and the float below it drops it
        if block:   # screen in several blocks, the last one short
            monkeypatch.setattr(tables, "BLOCK", block)
        angles, m, seed = (0.3, 1.4, -2.0), 400, 31
        for jitter in (1e-9, 1.0, 1e300):
            if jitter == 1e300:  # beyond float32: every block takes the float64 rule
                monkeypatch.setattr(pl, "_float32_delay", _no_screen)
            timing = pl.TimingModel(jitter, exponent)
            raw = pl.generate_events(SOURCES[name], standard_schedule(angles), m, timing, seed)
            gap = float(np.abs(raw.t1 - raw.t2)[m // 2])
            for window in (math.inf, gap, float(np.nextafter(gap, 0.0))):
                if window > 0.0:
                    assert_counts_equal_the_oracle(
                        pl.run_three_settings(*angles, SOURCES[name], timing, m, window, seed),
                        raw, window)

    @pytest.mark.parametrize("exponent", [0.0, 0.5, 2.7])
    @pytest.mark.parametrize("name", [name for name in SOURCES if name != "singlet"])
    def test_screen_passes_nan_settings_to_the_float64_rule(self, name, exponent):
        # NaN delays at setting a unless the exponent is 0, where they are
        # jitter * u; the singlet source refuses a NaN angle
        angles, timing = (math.nan, 1.0, 2.0), pl.TimingModel(1.0, exponent)
        raw = pl.generate_events(SOURCES[name], standard_schedule(angles), 300, timing, 8)
        for window in (math.inf, 0.3):
            rep = pl.run_three_settings(*angles, SOURCES[name], timing, 300, window, seed=8)
            assert_counts_equal_the_oracle(rep, raw, window)
            assert (rep.counts["ab"] == 0) == (exponent != 0.0)

    @pytest.mark.parametrize("exponent", [0.5, 2.7])
    def test_screen_bound_holds_for_large_angles_near_sine_zeros(self, exponent):
        # x = hidden - setting within 1e-3 of k pi, |x| up to 1e4: the float32
        # cast moves x by up to 2^-24 |x|, and the small sines by as much
        rng = np.random.default_rng(17)
        n = 2000
        x = np.round(rng.uniform(0.0, 3000.0, n)) * np.pi + rng.uniform(-1e-3, 1e-3, n)
        stations = [(x + 0.5, 0.5, rng.random(n)), (rng.uniform(0.0, 6.0, n), 0.0, rng.random(n))]
        timing = pl.TimingModel(1.0, exponent)
        t1, t2 = (np.arange(1, n + 1) + timing.delays(h, angle, v.copy())
                  for h, angle, v in stations)
        gap = np.abs(t1 - t2)
        for w in gap[rng.integers(0, n, 40)]:
            for window in (w, np.nextafter(w, 0.0)):
                got = pl._coincident(stations, slice(0, n), 1, 1, timing, window)
                assert np.array_equal(got, gap <= window)

    def test_window_beyond_the_jitter_keeps_only_gaps_within_it(self):
        # 300 + jitter rounds up to 17,593 ulps of 300: the gap exceeds a
        # window equal to the jitter by rounding alone
        jitter = 17592.7 * 2.0 ** -44
        stations = [(np.array([np.pi / 2]), 0.0, np.array([jitter])),
                    (np.array([0.0]), 0.0, np.array([0.0]))]
        timing = pl.TimingModel(jitter, 1.0)
        gap = (300.0 + jitter) - 300.0
        assert gap > jitter
        for window in (jitter, gap):
            got = pl._coincident(stations, slice(0, 1), 300, 3, timing, window)
            assert got.tolist() == [gap <= window]

    def test_screen_decides_most_pairs(self, monkeypatch):
        # the float64 delays run only for the near-ties of the screen
        rows = []
        delays = pl.TimingModel.delays
        monkeypatch.setattr(pl.TimingModel, "delays",
                            lambda self, h, angle, v: rows.append(v.size) or delays(self, h, angle, v))
        rep = pl.run_three_settings(0.0, 1.0, 2.0, SOURCES["uniform"],
                                    pl.TimingModel(1.0, 2.7), 30_000, 0.3, seed=4)
        assert 0 < sum(rows) < 0.001 * 2 * 30_000
        assert rep == pl.run_three_settings(0.0, 1.0, 2.0, SOURCES["uniform"],
                                            pl.TimingModel(1.0, 2.7), 30_000, 0.3, seed=4)
        raw = pl.generate_events(SOURCES["uniform"], pl.three_settings_schedule(0.0, 1.0, 2.0),
                                 30_000, pl.TimingModel(1.0, 2.7), seed=4)
        assert_counts_equal_the_oracle(rep, raw, 0.3)

    def test_counts_are_sign_grids_per_schedule_entry(self):
        raw = pl.generate_events(pl.SingletSource(), standard_schedule(), 300,
                                 pl.TimingModel(1.0, 1.0), seed=3)
        counts = np.array([grid.values for grid in raw.window_counts(0.5)])
        assert counts.shape == (3, 2, 2)
        kept = np.abs(raw.t1 - raw.t2) <= 0.5
        for p in range(3):
            for i, s1 in enumerate((1, -1)):
                for j, s2 in enumerate((1, -1)):
                    assert counts[p, i, j] == np.count_nonzero(
                        kept & (raw.pair == p) & (raw.s1 == s1) & (raw.s2 == s2))

    def test_reduction_drops_nan_gaps_like_the_filter(self):
        # a NaN setting angle makes every delay at that setting NaN, so the
        # pairs (a, b) and (a, c) have NaN gaps even under an infinite window
        timing = pl.TimingModel(1.0, 1.0)
        rep = pl.run_three_settings(math.nan, 1.0, 2.0, SOURCES["triple"], timing, 60,
                                    math.inf, seed=27)
        raw = pl.generate_events(SOURCES["triple"], pl.three_settings_schedule(math.nan, 1.0, 2.0),
                                 60, timing, seed=27)
        assert np.isnan(raw.t1[raw.id1 == "a"]).all()
        assert coincidence_filter(raw, math.inf, ("a", "b")) is None
        assert [grid.m for grid in raw.window_counts(math.inf)] == [0, 0, 20]
        assert rep.empty_pairs == ("ab", "ac")
        assert rep.counts == {"ab": 0, "ac": 0, "bc": 20}

    def test_window_is_checked_before_generation(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("generated events for an invalid window")
        monkeypatch.setattr(pl, "generate_events", boom)
        monkeypatch.setattr(pl, "_entry_draws", boom)
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


def rendered_times(values) -> list[str]:
    """The strings of ``pl._repr_columns``, its NUL padding removed."""
    columns = pl._repr_columns(np.array(values, dtype=np.float64))
    return [bytes(col[col != 0]).decode() for col in columns.T]


def half_way_ties(draw):
    """t = 2^j + k + odd / 2^(d+1) with 0 <= k < 2^j: exactly half-way
    between two d-digit decimals, where repr rounds half-even."""
    j = draw(st.integers(0, 31))
    d = draw(st.integers(0, 51 - j))
    k = draw(st.integers(0, 2 ** j - 1))
    odd = 2 * draw(st.integers(0, 2 ** d - 1)) + 1
    return math.ldexp(((2 ** j + k) << (d + 1)) + odd, -(d + 1))


def integer_neighbours(draw):
    """An integer in [1, 2^32] or a double next to one (those below 1 and from
    2^32 on take the repr escape)."""
    whole = float(draw(st.integers(1, 2 ** 32)))
    return draw(st.sampled_from([whole, math.nextafter(whole, 0.0),
                                 math.nextafter(whole, math.inf)]))


TIMES = st.one_of(st.floats(1.0, 2.0 ** 32, exclude_max=True), st.composite(half_way_ties)(),
                  st.composite(integer_neighbours)(),
                  st.sampled_from([math.nan, math.inf, -math.inf, 0.5, -1.0, 2.0 ** 32, 1e16,
                                   1e300]))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(TIMES, min_size=1, max_size=40))
def test_time_renderer_is_repr(values):
    assert rendered_times(values) == [repr(v) for v in values]


def test_time_renderer_is_repr_on_every_binade():
    # random significands in every binade of [1, 2^32), and the ties the
    # docstring names, in one block that mixes their lengths
    rng = np.random.default_rng(2)
    bits = rng.integers(0x3FF0_0000_0000_0000, 0x41F0_0000_0000_0000, 100_000, dtype=np.uint64)
    values = bits.view(np.float64).tolist() + [524288 + 1 / 2048, 1.5, 2.0 ** 32 - 2.0 ** -21]
    assert rendered_times(values) == [repr(v) for v in values]
    assert rendered_times([524288 + 1 / 2048]) == ["524288.0004882812"]
