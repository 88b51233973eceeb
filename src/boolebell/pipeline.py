"""Laboratory-style pair experiment pipeline: time-tagged event generation,
coincidence-window reduction and inequality evaluation on the processed data.

A run produces M event pairs.  Each pair carries outcomes from a configurable
source (a fixed triple distribution projected to the scheduled pair, the
two-spin singlet, or a factorizable threshold model), detection times
t = alpha * period + delay with an optional setting-dependent jitter, and the
local instrument settings.  Post-processing keeps the pairs whose settings
match a scheduled pair and whose time difference lies within the coincidence
window, and feeds the correlations of those pairs to the inequality checks.

A Boole-family failure on windowed pair data is reported as the rejection of
the triples hypothesis for the corresponding convention, never as an
arithmetic or physical impossibility.

Every run takes an explicit seed.  ``_entries`` gives schedule entry p of n
the p-th child of ``numpy.random.SeedSequence(seed)`` and the pairs p, p + n,
...; the event log (``generate_events``) and the counts
(``run_three_settings``) both draw through it, so equal seeds give
bit-identical event logs and the counts are the log's.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import FactorizableModel, sample_pair_arrays, station_orientations
from .datasets import (InequalityReport, check_boole_triple, check_boole_triple_anticorrelated,
                       check_pair_bound)
from .tables import (FuncTable3, chain_coeffs, draw_rows, pair_coefficients, sign_codes,
                     sign_rows, sign_transform)

EVENT_PERIOD = 1.0
# event pairs rendered per write by RawDataset.write_csv
WRITE_BLOCK = 4096
# event pairs per block of run_three_settings's counts pass: the block's
# temporaries stay well inside the CPU caches
REDUCE_BLOCK = 1 << 15


@dataclass(frozen=True)
class Setting:
    id: str
    angle: float


@dataclass(frozen=True)
class SettingPair:
    left: Setting
    right: Setting

    @property
    def key(self) -> tuple[str, str]:
        return (self.left.id, self.right.id)


@dataclass(frozen=True)
class TimingModel:
    """Detection delay law: delay = jitter * u * |sin(hidden - setting)|^exponent
    with u ~ U[0,1) per station and event.  Default is zero delay.

    ``delays`` computes them in float64, and only the event log needs those
    bits.  The counts of ``run_three_settings`` need only |t1 - t2| <= W,
    which a float32 screen decides (``_coincident``): at an exponent e > 0
    the gap g is formed from fl32(jitter u) |sin fl32(x)|^e, x = hidden -
    setting, and decides wherever it lies farther than B from W.  B bounds
    the error for every pair of a block:
      - the sine moves by delta = 2^-22 max|x| + 2^-20 at most: the float32
        cast of x by 2^-24 |x|, numpy's float32 sine by about 2^-24;
      - the power by e delta for e >= 1 and by delta^e (its Holder growth)
        for 0 < e < 1; the float32 and float64 powers add 2^-19;
      - the float32 products, difference and W -+ B add 2^-20 jitter, and
        the float64 roundings of t = alpha + d and of t1 - t2 add
        2^-50 (alpha + jitter).
    Every other pair takes the float64 rule, and so does every pair of a
    block whose B is NaN or not below jitter / 4, or whose jitter lies
    beyond 2^100, where float32 may not hold it.  A schedule entry whose
    window keeps every gap (``_keeps_every_gap``) draws no delay at all."""

    jitter: float = 0.0
    exponent: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.jitter) and math.isfinite(self.exponent)):
            raise ValueError("jitter and exponent must be finite")
        if self.jitter < 0.0 or self.exponent < 0.0:
            raise ValueError("jitter and exponent must be non-negative")

    def delays(self, hidden: np.ndarray | None, setting_angle: float,
               scaled: np.ndarray) -> np.ndarray:
        """The delays of the scaled uniforms jitter * u, computed in place;
        ``hidden`` is not read at exponent 0."""
        if self.exponent == 0.0:  # |sin|^0 is 1.0 for every double, NaN included
            return scaled
        # (jitter * u) * |sin(hidden - setting)| ** exponent
        sin = np.subtract(hidden, setting_angle)
        np.sin(sin, out=sin)
        np.abs(sin, out=sin)
        if self.exponent in (0.5, 1.0, 2.0):  # `**=` takes sqrt, a copy or the square
            sin **= self.exponent
        else:  # numpy's float64 power kernels differ by an ulp between SIMD targets
            np.float_power(sin, self.exponent, out=sin)
        scaled *= sin
        return scaled


class TripleProcessSource:
    """Emits pairs by drawing a complete triple from a fixed non-negative
    three-variable table and projecting it onto the scheduled setting pair.
    Setting ids map to tuple slots 1..3."""

    def __init__(self, table: FuncTable3, slots: dict[str, int]):
        if not table.is_nonnegative():
            raise ValueError("triple table must be entrywise non-negative")
        flat = table.values.reshape(-1)
        total = float(flat.sum())
        if total <= 0.0:
            raise ValueError("triple table must have positive mass")
        self.probs = np.clip(flat / total, 0.0, None)
        if sorted(slots.values()) != sorted(set(slots.values())) or \
                any(v not in (1, 2, 3) for v in slots.values()):
            raise ValueError("slots must map setting ids to distinct values in 1..3")
        self.slots = dict(slots)

    def draw(self, left: Setting, right: Setting, rng: np.random.Generator, count: int):
        triples = draw_rows(self.probs, sign_rows(3), rng, count)
        return triples[:, self.slots[left.id] - 1], triples[:, self.slots[right.id] - 1], None


class SingletSource:
    """Emits singlet pairs from the +-1 chain with c0 = 0 and link
    -cos(angle_left - angle_right):
    P(S1, S2) = (1 - S1 S2 cos(angle_left - angle_right)) / 4."""

    def draw(self, left: Setting, right: Setting, rng: np.random.Generator, count: int):
        # Python float arithmetic overflows to inf without a numpy warning
        d = float(left.angle) - float(right.angle)
        if not math.isfinite(d):
            raise ValueError(f"singlet setting angles and their difference must be "
                             f"finite, got {left.angle} and {right.angle}")
        e = chain_coeffs(0.0, (-np.cos(d),))
        pairs = draw_rows(sign_transform(e).ravel() / 4.0, sign_rows(2), rng, count)
        return pairs[:, 0], pairs[:, 1], None


class PairModelSource:
    """Emits pairs from a factorizable threshold model; the hidden orientation
    of each station is the model's local source angle."""

    def __init__(self, model: FactorizableModel):
        self.model = model

    def draw(self, left: Setting, right: Setting, rng: np.random.Generator, count: int):
        phi, s1, s2 = sample_pair_arrays(self.model, left.angle, right.angle, rng, count)
        return s1, s2, lambda: station_orientations(self.model, phi)


@dataclass(frozen=True)
class RawDataset:
    """M time-tagged event pairs, stored column-wise as read-only numpy
    arrays, and the schedule they were generated from.  ``pair`` is each
    event pair's index into ``schedule``, the one store of the settings:
    ``id1``, ``angle1``, ``id2`` and ``angle2`` are per-pair columns derived
    from it on each read.  The CSV log leaves ``pair`` out."""

    s1: np.ndarray
    t1: np.ndarray
    s2: np.ndarray
    t2: np.ndarray
    pair: np.ndarray
    schedule: tuple[SettingPair, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("raw dataset must contain at least one pair")
        if self.pair.min() < 0 or self.pair.max() >= len(self.schedule):
            raise ValueError("pair indices must index the schedule")
        for arr in (self.s1, self.t1, self.s2, self.t2, self.pair):
            arr.setflags(write=False)

    @property
    def m(self) -> int:
        return self.s1.size

    def _settings(self, station: int) -> tuple[np.ndarray, np.ndarray]:
        """The setting ids and angles of station 1 or 2, one per schedule entry."""
        sides = [pair.left if station == 1 else pair.right for pair in self.schedule]
        return np.array([s.id for s in sides]), np.array([s.angle for s in sides])

    def _per_pair(self, station: int, field: int) -> np.ndarray:
        col = self._settings(station)[field][self.pair]
        col.setflags(write=False)
        return col

    id1 = property(lambda self: self._per_pair(1, 0))
    angle1 = property(lambda self: self._per_pair(1, 1))
    id2 = property(lambda self: self._per_pair(2, 0))
    angle2 = property(lambda self: self._per_pair(2, 1))

    def write_csv(self, path: str | Path) -> None:
        """One line per event record (two per pair):
        alpha,station,s,t,setting_id,angle."""
        # the ",setting_id,angle" tail of each station and schedule entry,
        # rendered once by the csv module, which quotes ids where needed
        tails1, tails2 = [], []
        for station, tails in ((1, tails1), (2, tails2)):
            for setting_id, angle in zip(*self._settings(station)):
                tail = io.StringIO()
                csv.writer(tail).writerow(["", setting_id, repr(angle.item())])
                tails.append(tail.getvalue())
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["alpha", "station", "s", "t", "setting_id", "angle"])
            for lo in range(0, self.m, WRITE_BLOCK):
                block = slice(lo, lo + WRITE_BLOCK)
                fh.write("".join([
                    f"{i},1,{s1},{t1!r}{tails1[p]}{i},2,{s2},{t2!r}{tails2[p]}"
                    for i, s1, t1, s2, t2, p in zip(
                        range(lo + 1, lo + WRITE_BLOCK + 1),
                        *(col[block].tolist() for col in
                          (self.s1, self.t1, self.s2, self.t2, self.pair)))]))


def _entry_draws(source, pair: SettingPair, timing: TimingModel,
                 rng: np.random.Generator, count: int, timed: bool):
    """The draws of one schedule entry's count event pairs, in the stream
    order that every route shares: the outcomes, the hidden orientations,
    then each station's scaled uniforms jitter * u.  The source draws the
    outcomes and gives the orientations as None, for one uniform angle that
    both stations share, or as a callable that forms them.  An entry that
    forms no delay (not ``timed``) stops after the outcomes.  Returns s1, s2
    and an iterator of one (hidden, setting angle, jitter * u) per station,
    which draws each station's uniforms when it reaches it."""
    s1, s2, orientations = source.draw(pair.left, pair.right, rng, count)
    if not timed:
        return s1, s2, iter(())
    h1, h2 = orientations() if orientations else (rng.uniform(0.0, 2.0 * np.pi, count),) * 2
    return s1, s2, ((hidden, setting.angle, rng.random(count) * timing.jitter)
                    for hidden, setting in ((h1, pair.left), (h2, pair.right)))


def _entries(source, schedule: list[SettingPair], m: int, timing: TimingModel,
             seed: int, timed):
    """Checks the arguments, then yields, lazily and in order, p and the
    ``_entry_draws`` of every schedule entry p of n that has pairs: from the
    p-th child of ``SeedSequence(seed)``, for its pairs p, p + n, ... at
    alphas p + 1 + n j.  ``timed(pair)`` says whether an entry forms delays."""
    if m < 1:
        raise ValueError("need at least one event pair")
    if not schedule:
        raise ValueError("schedule must not be empty")
    n = len(schedule)
    children = np.random.SeedSequence(int(seed)).spawn(n)
    return ((p, *_entry_draws(source, pair, timing, np.random.default_rng(child),
                              len(range(p, m, n)), timed(pair)))
            for p, (pair, child) in enumerate(zip(schedule, children)) if p < m)


def generate_events(source, schedule: list[SettingPair], m: int,
                    timing: TimingModel, seed: int) -> RawDataset:
    """Generate M event pairs, the settings cycling round robin through the
    schedule, from the draws of ``_entries``: equal seeds give bit-identical
    datasets."""
    entries = _entries(source, schedule, m, timing, seed, lambda pair: timing.jitter != 0.0)
    n_pairs = len(schedule)
    code = np.min_scalar_type(n_pairs - 1)
    s1 = np.empty(m, dtype=np.int8)
    s2 = np.empty(m, dtype=np.int8)
    # detection time = alpha * period + delay
    t1 = np.arange(1, m + 1) * EVENT_PERIOD
    t2 = t1.copy()
    for p, e1, e2, stations in entries:
        rows = slice(p, None, n_pairs)
        s1[rows], s2[rows] = e1, e2
        # one station's uniforms and delays at a time
        for t, station in zip((t1, t2), stations):
            t[rows] += timing.delays(*station)
        e1 = e2 = stations = station = None  # free this entry's draws before the next entry's
    index = np.tile(np.arange(n_pairs, dtype=code), -(-m // n_pairs))[:m]
    return RawDataset(s1, t1, s2, t2, index, tuple(schedule))


@dataclass(frozen=True)
class ThreeSettingsReport:
    counts: dict[str, int]
    correlations: dict[str, float] | None
    empty_pairs: tuple[str, ...]
    pair_bound: InequalityReport | None
    boole_direct: InequalityReport | None
    boole_anticorrelated: InequalityReport | None
    verdict_direct: str | None
    verdict_anticorrelated: str | None


def three_settings_schedule(angle_a: float, angle_b: float,
                            angle_c: float) -> list[SettingPair]:
    """The setting pairs (a,b), (a,c), (b,c) of run_three_settings, the
    settings named "a", "b" and "c"."""
    a, b, c = Setting("a", angle_a), Setting("b", angle_b), Setting("c", angle_c)
    return [SettingPair(a, b), SettingPair(a, c), SettingPair(b, c)]


def _keeps_every_gap(pair: SettingPair, timing: TimingModel, m: int, window: float) -> bool:
    """Whether the window keeps every event pair of a schedule entry, decided
    before any draw: each delay lies in [0, jitter] and is finite at exponent
    0 or at finite setting angles (the hidden angles are), and then each
    float64 gap at alpha <= m period is at most jitter + 2^-50 (m period + jitter)."""
    finite = timing.exponent == 0.0 or (math.isfinite(pair.left.angle)
                                        and math.isfinite(pair.right.angle))
    return finite and window - 2.0 ** -50 * (m * EVENT_PERIOD + timing.jitter) >= timing.jitter


def _coincident(stations, block: slice, first: int, step: int,
                timing: TimingModel, window: float) -> np.ndarray:
    """|t1 - t2| <= window for the event pairs ``block`` of one schedule
    entry, whose j-th pair has alpha = first + step * j, by the float64 rule
    on the times of ``generate_events`` (a NaN gap dropped), behind the
    float32 screen that ``TimingModel`` describes."""
    j = np.arange(block.start, block.start + stations[0][2][block].size)
    jitter, e = timing.jitter, timing.exponent

    def exact(rows):
        alpha = (rows * step + first) * EVENT_PERIOD
        t1, t2 = (alpha + timing.delays(h[rows] if e else None, angle, v[rows])
                  for h, angle, v in stations)  # at exponent 0 no hidden angle is read
        return np.abs(t1 - t2) <= window

    if e == 0.0:  # the delays are the scaled uniforms: no sine to screen
        return exact(j)
    xs = [np.subtract(h[block], angle) for h, angle, _ in stations]

    def power_error(x):
        delta = 2.0 ** -22 * float(np.abs(x).max()) + 2.0 ** -20
        return (e * delta if e >= 1.0 else delta ** e) + 2.0 ** -19

    bound = jitter * (power_error(xs[0]) + power_error(xs[1]) + 2.0 ** -20) \
        + 2.0 ** -50 * ((j[-1] * step + first) * EVENT_PERIOD + jitter)
    if not (bound < jitter / 4 and jitter < 2.0 ** 100):
        return exact(j)
    d1, d2 = (_float32_delay(x, v[block], e) for x, (_, _, v) in zip(xs, stations))
    np.subtract(d1, d2, out=d1)
    np.abs(d1, out=d1)
    keep = d1 <= np.float32(window - bound)
    near = j[~keep & (d1 <= np.float32(window + bound))]
    keep[near - block.start] = exact(near)
    return keep


def _float32_delay(x: np.ndarray, scaled: np.ndarray, exponent: float) -> np.ndarray:
    """fl32(scaled) * |sin fl32(x)|^exponent, all in float32."""
    d = np.sin(x.astype(np.float32))
    np.abs(d, out=d)
    d **= exponent
    d *= scaled.astype(np.float32)
    return d


def _window_counts(source, schedule: list[SettingPair], m: int, timing: TimingModel,
                   seed: int, window: float) -> np.ndarray:
    """The coincidences of ``generate_events(source, schedule, m, timing,
    seed)`` per schedule index and outcome pair: one 2x2 count grid of
    (S1, S2) per schedule index, in sign-grid order, over the event pairs
    with |t1 - t2| <= window, a NaN gap dropped.  An entry at zero jitter or
    where ``_keeps_every_gap`` holds draws only its outcomes; any other makes
    the event log's draws, and ``_coincident`` decides the window in blocks
    of REDUCE_BLOCK pairs.  No event time is stored."""
    entries = _entries(source, schedule, m, timing, seed, lambda pair: (
        timing.jitter != 0.0 and not _keeps_every_gap(pair, timing, m, window)))
    n_pairs = len(schedule)
    # code 4 is the discard bin
    counts = np.zeros((n_pairs, 5), dtype=np.int64)
    for p, s1, s2, stations in entries:
        stations = list(stations)
        for lo in range(0, s1.size, REDUCE_BLOCK):
            block = slice(lo, lo + REDUCE_BLOCK)
            codes = sign_codes(s1[block], s2[block])
            if stations:
                np.putmask(codes, ~_coincident(stations, block, p + 1, n_pairs,
                                               timing, window), 4)
            counts[p] += np.bincount(codes, minlength=5)
        del s1, s2, stations  # free this entry's draws before the next entry's
    return counts[:, :4].reshape(n_pairs, 2, 2)


def run_three_settings(angle_a: float, angle_b: float, angle_c: float,
                       source, timing: TimingModel, m: int, window: float,
                       seed: int) -> ThreeSettingsReport:
    """Schedule the setting pairs (a,b), (a,c), (b,c), generate M event
    pairs, window-filter each setting pair and evaluate the inequality
    families on the three filtered correlations.

    The events are counted, not stored: each schedule entry makes the draws
    of ``generate_events`` that its counts read: none after the outcomes
    where the window keeps every gap the delay law can give.  Elsewhere a
    float32 delay screen decides the window wherever its error bound allows
    (see ``TimingModel``); near-ties, NaN gaps and blocks it cannot bound
    take the float64 rule.  So the counts, and the integer correlation
    numerators, equal those of the pairs of ``generate_events(source,
    three_settings_schedule(angle_a, angle_b, angle_c), m, timing, seed)``
    with |t1 - t2| <= window, per setting pair.

    The pair-bound check holds for any three correlations.  The two Boole
    checks test the triples hypothesis in the direct and in the
    anti-correlated variable convention; a failure means that hypothesis is
    rejected for the data, nothing more.
    """
    if not (window > 0.0):
        raise ValueError("window must be positive (math.inf allowed)")
    schedule = three_settings_schedule(angle_a, angle_b, angle_c)
    counts, corr, empties = {}, {}, []
    grids = _window_counts(source, schedule, m, timing, seed, window)
    for pair, grid in zip(schedule, grids):
        key = "".join(pair.key)
        counts[key] = kept = int(grid.sum())
        if kept == 0:
            empties.append(key)
        else:
            corr[key] = pair_coefficients(sign_transform(grid))[(1, 2)] / kept
    if empties:
        return ThreeSettingsReport(counts, None, tuple(empties),
                                   None, None, None, None, None)
    f_ab, f_ac, f_bc = corr["ab"], corr["ac"], corr["bc"]
    direct = check_boole_triple(f_ab, f_ac, f_bc)
    anti = check_boole_triple_anticorrelated(f_ab, f_ac, f_bc)

    def verdict(report: InequalityReport) -> str:
        return "consistent with triples" if report.all_satisfied \
            else "triples hypothesis rejected"

    return ThreeSettingsReport(
        counts, corr, (),
        check_pair_bound(f_ab, f_ac, f_bc), direct, anti,
        verdict(direct), verdict(anti))
