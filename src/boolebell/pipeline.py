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

from .classical import FactorizableModel, station_orientations, threshold_codes
from .datasets import (InequalityReport, check_boole_triple, check_boole_triple_anticorrelated,
                       check_pair_bound, correlations)
from .tables import (CountTable, FuncTable3, blocks, chain_coeffs, code_signs, draw_codes,
                     draw_uniform, sign_codes, sign_transform, stream_cursors)

EVENT_PERIOD = 1.0
# event pairs rendered per write by RawDataset.write_csv: the block's byte
# columns (about 60 a line) and the digit remainders of its times (8 bytes a
# digit) stay inside the CPU caches, and its temporaries do not grow with M
WRITE_BLOCK = 4096


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

    def sampler(self, left: Setting, right: Setting):
        """See ``_entry_draws``: a table of 8 projects the code of a triple
        onto the setting pair's slots."""
        codes = np.arange(8, dtype=np.uint8)
        i, j = (3 - self.slots[s.id] for s in (left, right))  # the bit of each slot
        project = (codes >> i & 1) << 1 | codes >> j & 1
        return 2, lambda cursors, size: (project.take(draw_codes(self.probs, cursors[0], size)),
                                         _shared_angle(cursors[1], size))


class SingletSource:
    """Emits singlet pairs from the +-1 chain with c0 = 0 and link
    -cos(angle_left - angle_right):
    P(S1, S2) = (1 - S1 S2 cos(angle_left - angle_right)) / 4."""

    def sampler(self, left: Setting, right: Setting):
        """See ``_entry_draws``: the inverse-CDF index of a pair is its code."""
        # Python float arithmetic overflows to inf without a numpy warning
        d = float(left.angle) - float(right.angle)
        if not math.isfinite(d):
            raise ValueError(f"singlet setting angles and their difference must be "
                             f"finite, got {left.angle} and {right.angle}")
        probs = sign_transform(chain_coeffs(0.0, (-np.cos(d),))).ravel() / 4.0
        return 2, lambda cursors, size: (draw_codes(probs, cursors[0], size),
                                         _shared_angle(cursors[1], size))


def _shared_angle(cursor: np.random.Generator, size: int):
    """Forms a block's orientations: one uniform angle on [0, 2pi) per pair,
    drawn from ``cursor``, that both stations share."""
    return lambda: (draw_uniform(cursor, 0.0, 2.0 * np.pi, size),) * 2


class PairModelSource:
    """Emits pairs from a factorizable threshold model; the hidden orientation
    of each station is the model's local source angle."""

    def __init__(self, model: FactorizableModel):
        self.model = model

    def sampler(self, left: Setting, right: Setting):
        """See ``_entry_draws``: ``classical.threshold_codes``."""
        def draw(cursors, size):
            phi, codes = threshold_codes(self.model, left.angle, right.angle, cursors, size)
            return codes, lambda: station_orientations(self.model, phi)
        return self.model.streams, draw


# ",station,s," for station 1 or 2 (first index) and s = 1 or -1 (last), NUL-padded
_STATION_OUTCOME = np.array([[b",1,1,", b",1,-1,"], [b",2,1,", b",2,-1,"]],
                            dtype="S6").view(np.uint8).reshape(2, 2, 6).transpose(0, 2, 1)


def _int_columns(v: np.ndarray, width: int) -> np.ndarray:
    """The positive integers ``v`` (below 10^width) in decimal, as a
    (width, v.size) uint8 block of ASCII columns, right-aligned and
    NUL-padded."""
    out = np.empty((width, v.size), np.uint8)
    for col in range(width - 1, -1, -1):
        q = v // 10  # numpy divides by a scalar quickly, but its % is slow
        out[col] = (v - q * 10 + 48) * (v != 0)  # a leading zero is padding
        v = q
    return out


def _repr_columns(t: np.ndarray) -> np.ndarray:
    """``repr`` of each double of the 1-d array ``t``: a (width, t.size)
    uint8 block of NUL-padded ASCII columns.  Any value but a finite t in
    [1, 2^32) takes repr() itself; those are rendered in exact integers.
    With t in [2^j, 2^(j+1)), I = floor(t) and r_0 = (t - I) 2^53 below 2^53,
    the fraction's d-th digit is 10 r_(d-1) >> 53, leaving r_d.  In units of
    2^-53 10^-d the nearest d-digit decimal lies min(r_d, 2^53 - r_d) from t
    and half an ulp is 2^j 10^d; repr takes the least d where the decimal
    lies within it, and rounds the last digit half-even (it never carries).
    A decimal exactly half an ulp away would need 53 - j >= 22 digits, so no
    significand's parity decides, and at d = 0 only integers hit.  Hitting is
    monotone in d and sure within repr's 17 significant digits: the test runs
    from there down, on the values that still hit."""
    fast = (t >= 1.0) & (t < 2.0 ** 32)
    x = np.where(fast, t, 1.0)
    whole = np.floor(x)
    r = np.empty((17 - len(str(int(whole.min()))) + 1, t.size), np.uint64)
    r[0] = (x - whole) * 2.0 ** 53
    digits = np.empty((len(r) - 1, t.size), np.uint8)
    for d in range(1, len(r)):
        np.multiply(r[d - 1], 10, out=r[d])
        np.right_shift(r[d], 53, out=digits[d - 1], casting="unsafe")
        r[d] &= np.uint64(2 ** 53 - 1)
    # the shortest length: 1 + the last d that misses
    e = np.frexp(x)[1]  # j + 1
    length = np.zeros(t.size, np.intp)
    open_ = np.flatnonzero(r[0])
    for d in range(len(digits) - 1, -1, -1):
        if not open_.size:
            break
        rd = r[d].take(open_)
        # the half-ulp in float64: exact, and it cannot wrap
        miss = np.minimum(rd, 2 ** 53 - rd) > np.ldexp(0.5 * 10.0 ** d, e.take(open_))
        length[open_[miss]] = d + 1
        open_ = open_[~miss]
    cut = np.flatnonzero(length)
    last = cut + (length.take(cut) - 1) * t.size  # flat index into digits
    last_digit = digits.take(last)
    up = r.take(last + t.size) + (last_digit & 1) > np.uint64(2 ** 52)
    digits.put(last, last_digit + up)
    digits += 48
    digits *= np.arange(len(digits))[:, None] < np.maximum(length, 1)
    out = np.concatenate([_int_columns(whole.astype(np.uint32), len(str(int(whole.max())))),
                          np.full((1, t.size), ord("."), np.uint8), digits])
    escaped = np.flatnonzero(~fast)
    if escaped.size:
        text = [repr(v).encode() for v in t.take(escaped).tolist()]
        width = max(len(out), *map(len, text))
        out = np.concatenate([out, np.zeros((width - len(out), t.size), np.uint8)])
        out[:, escaped] = np.array(text, dtype=f"S{width}").view(np.uint8).reshape(-1, width).T
    return out


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
        if not all(np.issubdtype(s.dtype, np.integer) and np.all(np.abs(s) == 1)
                   for s in (self.s1, self.s2)):
            raise ValueError("outcomes must be integers +-1")
        if not self.t1.dtype == self.t2.dtype == np.float64:
            raise ValueError("detection times must be float64")
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

    def window_counts(self, window: float) -> list[CountTable]:
        """The coincidences per schedule index: one ``CountTable`` of
        (S1, S2) per schedule index over the event pairs with
        |t1 - t2| <= window (positive or infinite), a NaN gap dropped."""
        if not (window > 0.0):
            raise ValueError("window must be positive (math.inf allowed)")
        n_pairs = len(self.schedule)
        # codes 4 pair + sign_codes(S1, S2); code 4 n_pairs is the discard bin
        counts = np.zeros(4 * n_pairs + 1, dtype=np.int64)
        for block in blocks(self.m):  # temporaries of one block
            codes = self.pair[block].astype(np.min_scalar_type(4 * n_pairs))
            codes *= 4
            codes += sign_codes(self.s1[block], self.s2[block])
            np.putmask(codes, ~(np.abs(self.t1[block] - self.t2[block]) <= window), 4 * n_pairs)
            counts += np.bincount(codes, minlength=4 * n_pairs + 1)
        return [CountTable(grid) for grid in counts[:-1].reshape(n_pairs, 2, 2)]

    def write_csv(self, path: str | Path) -> None:
        """One line per event record (two per pair),
        alpha,station,s,t,setting_id,angle: the csv module's bytes with t and
        angle as ``repr`` floats.  numpy lays WRITE_BLOCK pairs at a time
        into NUL-padded byte columns, column-major, and writes them
        transposed with the padding removed.  The csv module renders the
        ",setting_id,angle" tail once per station and schedule entry, and
        each tail is kept by its length, so a NUL byte of an id stays."""
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(["alpha", "station", "s", "t", "setting_id", "angle"])
            tails = []
            for station in (1, 2):
                for setting_id, angle in zip(*self._settings(station)):
                    tail = io.StringIO()
                    csv.writer(tail).writerow(["", setting_id, repr(angle.item())])
                    tails.append(tail.getvalue().encode(fh.encoding))
            width = max(map(len, tails))
            # (station, byte, schedule index)
            tail_cols = np.array(tails, dtype=f"S{width}").view(np.uint8).reshape(
                2, -1, width).transpose(0, 2, 1)
            # (schedule index, station, byte): the tail bytes to keep
            kept = np.arange(width) < np.array([len(tail) for tail in tails])[:, None]
            kept = kept.reshape(2, -1, width).swapaxes(0, 1)
            fh.flush()
            for lo in range(0, self.m, WRITE_BLOCK):
                fh.buffer.write(self._csv_block(slice(lo, lo + WRITE_BLOCK), tail_cols, kept))

    def _csv_block(self, block: slice, tail_cols: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """The CSV bytes of the event pairs ``block``."""
        p = self.pair[block]
        n = p.size
        alpha = _int_columns(np.arange(block.start + 1, block.start + n + 1,
                                       dtype=np.min_scalar_type(self.m)), len(str(self.m)))
        times = _repr_columns(np.concatenate([self.t1[block], self.t2[block]]))
        tail = len(alpha) + 6 + len(times)
        # column-major: (byte of the line, station, pair)
        cols = np.empty((tail + tail_cols.shape[1], 2, n), np.uint8)
        cols[:len(alpha)] = alpha[:, None]
        cols[len(alpha) + 6:tail] = times.reshape(-1, 2, n)
        for k, s in enumerate((self.s1, self.s2)):
            cols[len(alpha):len(alpha) + 6, k] = _STATION_OUTCOME[k].take(
                (s[block] < 0).view(np.uint8), axis=1)
            cols[tail:, k] = tail_cols[k].take(p, axis=1)
        rows = cols.transpose(2, 1, 0).copy()
        keep = rows != 0
        keep[:, :, tail:] = kept[p]
        return rows[keep]


def _entry_draws(sampler, pair: SettingPair, timing: TimingModel,
                 rng: np.random.Generator, count: int, timed: bool):
    """The draws of one schedule entry's count event pairs, block by block,
    in the stream order that every route shares: the outcomes, the hidden
    orientations, then each station's uniforms u, each a whole draw of count
    doubles from rng and one of its ``stream_cursors``.  ``sampler`` is the
    source's ``sampler(pair.left, pair.right)``: its k cursors (the singlet
    and triple sources' second holds the hidden angle both stations share)
    and a function drawing a block's sign codes and a callable that forms
    their orientations.  Yields each block's slice of the entry's pairs,
    codes and one (hidden, setting angle, jitter * u) per station, from the
    cursors k and k + 1.  An entry that forms no delay (not ``timed``) yields
    no station and draws only the outcomes; at exponent 0 hidden is None."""
    k, draw = sampler
    cursors = stream_cursors(rng, count, k + 2 if timed else k)
    for block in blocks(count):
        size = block.stop - block.start
        codes, orientations = draw(cursors, size)
        hidden = orientations() if timed and timing.exponent else (None, None)
        yield block, codes, [(h, setting.angle, cursor.random(size) * timing.jitter)
                             for h, setting, cursor in zip(hidden, (pair.left, pair.right),
                                                           cursors[k:])]


def _entries(source, schedule: list[SettingPair], m: int, timing: TimingModel,
             seed: int, timed):
    """Checks the arguments and builds the sampler of every schedule entry p
    of n that has pairs, so a refused entry stops the run before any draw;
    then yields, lazily and in order, p and its ``_entry_draws``: from the
    p-th child of ``SeedSequence(seed)``, for its pairs p, p + n, ... at
    alphas p + 1 + n j.  ``timed(pair)`` says whether an entry forms delays."""
    if m < 1:
        raise ValueError("need at least one event pair")
    if m > 2 ** 53:  # the largest count a CountTable holds exactly
        raise ValueError(f"need 1 to 2^53 event pairs, got {m}")
    if not schedule:
        raise ValueError("schedule must not be empty")
    n = len(schedule)
    samplers = [source.sampler(pair.left, pair.right) for pair in schedule[:m]]
    children = np.random.SeedSequence(int(seed)).spawn(n)
    return ((p, _entry_draws(sampler, pair, timing, np.random.default_rng(child),
                             len(range(p, m, n)), timed(pair)))
            for p, (pair, sampler, child) in enumerate(zip(schedule, samplers, children)))


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
    for p, draws in entries:
        # entry p's pairs, every n-th from p on
        columns = [col[p::n_pairs] for col in (s1, s2, t1, t2)]
        for block, codes, stations in draws:
            columns[0][block], columns[1][block] = code_signs(codes, 2)
            for t, station in zip(columns[2:], stations):
                t[block] += timing.delays(*station)
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
    float32 screen that ``TimingModel`` describes.  The stations' arrays
    hold the pairs of the block."""
    j = np.arange(block.start, block.start + stations[0][2].size)
    jitter, e = timing.jitter, timing.exponent

    def exact(rows):  # indices into the block, or all of it
        alpha = (j[rows] * step + first) * EVENT_PERIOD
        t1, t2 = (alpha + timing.delays(h[rows] if e else None, angle, v[rows])
                  for h, angle, v in stations)  # at exponent 0 no hidden angle is read
        return np.abs(t1 - t2) <= window

    if e == 0.0:  # the delays are the scaled uniforms: no sine to screen
        return exact(slice(None))
    xs = [np.subtract(h, angle) for h, angle, _ in stations]

    def power_error(x):
        delta = 2.0 ** -22 * float(np.abs(x).max()) + 2.0 ** -20
        return (e * delta if e >= 1.0 else delta ** e) + 2.0 ** -19

    bound = jitter * (power_error(xs[0]) + power_error(xs[1]) + 2.0 ** -20) \
        + 2.0 ** -50 * ((j[-1] * step + first) * EVENT_PERIOD + jitter)
    if not (bound < jitter / 4 and jitter < 2.0 ** 100):
        return exact(slice(None))
    d1, d2 = (_float32_delay(x, v, e) for x, (_, _, v) in zip(xs, stations))
    np.subtract(d1, d2, out=d1)
    np.abs(d1, out=d1)
    keep = d1 <= np.float32(window - bound)
    near = np.flatnonzero(~keep & (d1 <= np.float32(window + bound)))
    keep[near] = exact(near)
    return keep


def _float32_delay(x: np.ndarray, scaled: np.ndarray, exponent: float) -> np.ndarray:
    """fl32(scaled) * |sin fl32(x)|^exponent, all in float32."""
    d = np.sin(x.astype(np.float32))
    np.abs(d, out=d)
    d **= exponent
    d *= scaled.astype(np.float32)
    return d


def _window_counts(source, schedule: list[SettingPair], m: int, timing: TimingModel,
                   seed: int, window: float) -> list[CountTable]:
    """The coincidences of ``generate_events(source, schedule, m, timing,
    seed)`` per schedule index and outcome pair: one ``CountTable`` of
    (S1, S2) per schedule index over the event pairs with
    |t1 - t2| <= window, a NaN gap dropped.  An entry at zero jitter or
    where ``_keeps_every_gap`` holds draws only its outcomes; any other makes
    the event log's draws, and ``_coincident`` decides the window, block by
    block.  No event time and no whole-entry array is stored."""
    entries = _entries(source, schedule, m, timing, seed, lambda pair: (
        timing.jitter != 0.0 and not _keeps_every_gap(pair, timing, m, window)))
    n_pairs = len(schedule)
    # code 4 is the discard bin
    counts = np.zeros((n_pairs, 5), dtype=np.int64)
    for p, draws in entries:
        for block, codes, stations in draws:
            if stations:
                np.putmask(codes, ~_coincident(stations, block, p + 1, n_pairs,
                                               timing, window), 4)
            counts[p] += np.bincount(codes, minlength=5)
    return [CountTable(grid[:4].reshape(2, 2)) for grid in counts]


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
    return three_settings_report(schedule,
                                 _window_counts(source, schedule, m, timing, seed, window))


def three_settings_report(schedule: list[SettingPair],
                          grids: list[CountTable]) -> ThreeSettingsReport:
    """The report of ``run_three_settings`` from the coincidence counts
    ``grids`` of ``three_settings_schedule(a, b, c)``, one ``CountTable``
    per entry: those of a run's event log are ``raw.window_counts(window)``."""
    counts, corr, empties = {}, {}, []
    for pair, grid in zip(schedule, grids):
        key = "".join(pair.key)
        counts[key] = grid.m
        if grid.m == 0:
            empties.append(key)
        else:
            corr[key] = correlations(grid)[(1, 2)]
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
