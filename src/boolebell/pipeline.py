"""Laboratory-style pair experiment pipeline: time-tagged event generation,
coincidence-window reduction and inequality evaluation on the processed data.

A run produces M event pairs.  Each pair carries outcomes from a configurable
source (a fixed triple distribution projected to the scheduled pair, the
two-spin singlet, or a factorizable threshold model), detection times
t = alpha * period + delay with an optional setting-dependent jitter, and the
local instrument settings.  Post-processing keeps the pairs whose settings
match a requested pair and whose time difference lies within the coincidence
window, then feeds the per-setting correlations to the inequality checks.

A Boole-family failure on windowed pair data is reported as the rejection of
the triples hypothesis for the corresponding convention, never as an
arithmetic or physical impossibility.

Every run takes an explicit seed.  ``generate_events`` spawns one child seed
per schedule entry, plus one for a random schedule, from
``numpy.random.SeedSequence(seed)``; the children depend only on the seed and
the schedule length, so equal seeds give bit-identical event logs.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .classical import FactorizableModel, sample_pair_arrays, station_orientations
from .datasets import (DichotomicDataset, InequalityReport, check_boole_triple,
                       check_boole_triple_anticorrelated, check_pair_bound)
from .tables import (FuncTable3, chain_coeffs, draw_rows, pair_coefficients, sign_codes,
                     sign_rows, sign_transform)

EVENT_PERIOD = 1.0
# event pairs rendered per write by RawDataset.write_csv
WRITE_BLOCK = 4096
# event pairs per bincount in run_three_settings: the block's temporaries
# stay well inside the CPU caches
REDUCE_BLOCK = 1 << 16


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
    with u ~ U[0,1) per station and event.  Default is zero delay."""

    jitter: float = 0.0
    exponent: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.jitter) and math.isfinite(self.exponent)):
            raise ValueError("jitter and exponent must be finite")
        if self.jitter < 0.0 or self.exponent < 0.0:
            raise ValueError("jitter and exponent must be non-negative")

    def delays(self, hidden: np.ndarray, setting_angle: float,
               rng: np.random.Generator) -> np.ndarray:
        u = rng.random(hidden.size)
        # (jitter * u) * |sin(hidden - setting)| ** exponent, in place; `**=`
        # keeps the fast paths (square, sqrt, ..) that `**` takes
        u *= self.jitter
        sin = np.subtract(hidden, setting_angle)
        np.sin(sin, out=sin)
        np.abs(sin, out=sin)
        sin **= self.exponent
        u *= sin
        return u


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

    def draw(self, left: Setting, right: Setting, rng: np.random.Generator,
             count: int):
        triples = draw_rows(self.probs, sign_rows(3), rng, count)
        s1 = triples[:, self.slots[left.id] - 1]
        s2 = triples[:, self.slots[right.id] - 1]
        hidden = rng.uniform(0.0, 2.0 * np.pi, count)
        return s1, s2, hidden, hidden


class SingletSource:
    """Emits singlet pairs from the +-1 chain with c0 = 0 and link
    -cos(angle_left - angle_right):
    P(S1, S2) = (1 - S1 S2 cos(angle_left - angle_right)) / 4."""

    def draw(self, left: Setting, right: Setting, rng: np.random.Generator,
             count: int):
        # Python float arithmetic overflows to inf without a numpy warning
        d = float(left.angle) - float(right.angle)
        if not math.isfinite(d):
            raise ValueError(f"singlet setting angles and their difference must be "
                             f"finite, got {left.angle} and {right.angle}")
        e = chain_coeffs(0.0, (-np.cos(d),))
        pairs = draw_rows(sign_transform(e).ravel() / 4.0, sign_rows(2), rng, count)
        hidden = rng.uniform(0.0, 2.0 * np.pi, count)
        return pairs[:, 0], pairs[:, 1], hidden, hidden


class PairModelSource:
    """Emits pairs from a factorizable threshold model; the hidden orientation
    of each station is the model's local source angle."""

    def __init__(self, model: FactorizableModel):
        self.model = model

    def draw(self, left: Setting, right: Setting, rng: np.random.Generator,
             count: int):
        phi, s1, s2 = sample_pair_arrays(self.model, left.angle, right.angle,
                                         rng, count)
        h1, h2 = station_orientations(self.model, phi)
        return s1, s2, h1, h2


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


def generate_events(source, schedule: list[SettingPair], m: int,
                    timing: TimingModel, seed: int,
                    schedule_mode: str = "round_robin") -> RawDataset:
    """Generate M event pairs.  Settings cycle round-robin through the
    schedule or are chosen per event at random (seeded); outcomes, hidden
    orientations and delays are drawn from per-pair child generators derived
    from the master seed, so equal seeds give bit-identical datasets."""
    if m < 1:
        raise ValueError("need at least one event pair")
    if not schedule:
        raise ValueError("schedule must not be empty")
    if schedule_mode not in ("round_robin", "random"):
        raise ValueError(f"unknown schedule mode {schedule_mode!r}")
    n_pairs = len(schedule)
    children = np.random.SeedSequence(int(seed)).spawn(n_pairs + 1)
    code = np.min_scalar_type(n_pairs - 1)
    if schedule_mode == "round_robin":
        assignment = np.tile(np.arange(n_pairs, dtype=code), -(-m // n_pairs))[:m]
    else:
        assignment = np.random.default_rng(children[-1]).integers(0, n_pairs, m).astype(code)

    s1 = np.empty(m, dtype=np.int8)
    s2 = np.empty(m, dtype=np.int8)
    # detection time = alpha * period + delay
    t1 = np.arange(1, m + 1) * EVENT_PERIOD
    t2 = t1.copy()
    for p, pair in enumerate(schedule):
        rows = slice(p, None, n_pairs) if schedule_mode == "round_robin" \
            else np.flatnonzero(assignment == p)
        count = s1[rows].size
        if count == 0:
            continue
        rng = np.random.default_rng(children[p])
        s1[rows], s2[rows], h1, h2 = source.draw(pair.left, pair.right, rng, count)
        # zero delays change no time, and rng draws nothing after them
        if timing.jitter != 0.0:
            t1[rows] += timing.delays(h1, pair.left.angle, rng)
            t2[rows] += timing.delays(h2, pair.right.angle, rng)
    return RawDataset(s1, t1, s2, t2, assignment, tuple(schedule))


def _check_window(window: float) -> None:
    if not (window > 0.0):
        raise ValueError("window must be positive (math.inf allowed)")


def coincidence_filter(raw: RawDataset, window: float,
                       setting_filter: tuple[str, str]) -> DichotomicDataset | None:
    """Keep the pairs of every schedule entry whose key is the filter (left
    id, right id) and whose detection times differ by at most the window W
    (positive or infinite).  Returns None when nothing survives (the
    explicit empty-selection signal)."""
    _check_window(window)
    entries = [k for k, pair in enumerate(raw.schedule) if pair.key == tuple(setting_filter)]
    mask = np.isin(raw.pair, entries) & (np.abs(raw.t1 - raw.t2) <= window)
    if not np.any(mask):
        return None
    return DichotomicDataset(np.column_stack([raw.s1[mask], raw.s2[mask]]))


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
    # the event pairs the report was computed from
    raw: RawDataset = field(repr=False, compare=False)


def _coincidence_counts(raw: RawDataset, window: float) -> np.ndarray:
    """Coincidences per schedule index and outcome pair, in one pass: one
    2x2 count grid of (S1, S2) per schedule index, in sign-grid order, over
    the event pairs with |t1 - t2| <= window.  A NaN gap fails the
    comparison and is dropped, as in ``coincidence_filter``."""
    # codes 4 pair + sign_codes(S1, S2); code 4 n_pairs is the discard bin
    n_pairs = len(raw.schedule)
    discard = 4 * n_pairs
    counts = np.zeros(discard + 1, dtype=np.int64)
    for lo in range(0, raw.m, REDUCE_BLOCK):
        block = slice(lo, lo + REDUCE_BLOCK)
        codes = raw.pair[block].astype(np.min_scalar_type(discard))
        codes *= 4
        codes += sign_codes(raw.s1[block], raw.s2[block])
        gap = np.subtract(raw.t1[block], raw.t2[block])
        np.abs(gap, out=gap)
        np.putmask(codes, ~(gap <= window), discard)
        counts += np.bincount(codes, minlength=discard + 1)
    return counts[:-1].reshape(n_pairs, 2, 2)


def run_three_settings(angle_a: float, angle_b: float, angle_c: float,
                       source, timing: TimingModel, m: int, window: float,
                       seed: int) -> ThreeSettingsReport:
    """Schedule the setting pairs (a,b), (a,c), (b,c), generate M event
    pairs, window-filter each setting pair and evaluate the inequality
    families on the three filtered correlations.  The generated events are
    returned with the report (``raw``).

    All three setting pairs are reduced in one pass over the events; the
    counts and the integer correlation numerators are exact, so the values
    equal those of ``coincidence_filter`` and ``correlation`` per pair.

    The pair-bound check holds for any three correlations.  The two Boole
    checks test the triples hypothesis in the direct and in the
    anti-correlated variable convention; a failure means that hypothesis is
    rejected for the data, nothing more.
    """
    _check_window(window)
    a, b, c = Setting("a", angle_a), Setting("b", angle_b), Setting("c", angle_c)
    schedule = [SettingPair(a, b), SettingPair(a, c), SettingPair(b, c)]
    raw = generate_events(source, schedule, m, timing, seed)
    counts, corr, empties = {}, {}, []
    for pair, grid in zip(schedule, _coincidence_counts(raw, window)):
        key = "".join(pair.key)
        counts[key] = kept = int(grid.sum())
        if kept == 0:
            empties.append(key)
        else:
            corr[key] = pair_coefficients(sign_transform(grid))[(1, 2)] / kept
    if empties:
        return ThreeSettingsReport(counts, None, tuple(empties),
                                   None, None, None, None, None, raw)
    f_ab, f_ac, f_bc = corr["ab"], corr["ac"], corr["bc"]
    direct = check_boole_triple(f_ab, f_ac, f_bc)
    anti = check_boole_triple_anticorrelated(f_ab, f_ac, f_bc)

    def verdict(report: InequalityReport) -> str:
        return "consistent with triples" if report.all_satisfied \
            else "triples hypothesis rejected"

    return ThreeSettingsReport(
        counts, corr, (),
        check_pair_bound(f_ab, f_ac, f_bc), direct, anti,
        verdict(direct), verdict(anti), raw)
