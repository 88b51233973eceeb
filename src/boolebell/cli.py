"""Command-line entry point: one subcommand per scenario.

Output is a JSON envelope {scenario, params, values, reports} validating
against ``schemas/report.schema.json``; ``--format table`` renders the same
content as text, and ``factorizable --format csv`` writes the sampled pairs.
Every handler returns its envelope through ``_envelope``, the one code that
writes it: the scenario is the subcommand, suffixed ``-MODE`` by the value of
``--which``, ``--scenario`` or ``--what``; every envelope carries all four
keys; and each report, an InequalityReport or None, is serialized there, None
as null.
Each subcommand declares only flags that one of its modes reads, so a flag
no mode reads, or an invalid value, exits 2 at argument parsing, before any
work is done.  The modes chosen by ``--which``, ``--scenario`` and ``--what``
share their subcommand's flags, and a mode ignores the flags it does not
read.  An inequality violation is a reported finding, not an error: the exit
status is nonzero only for invalid invocations.  All randomized scenarios
require an explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import classical, leggett_garg as lg, pipeline, quantum, tables
from .datasets import (check_boole_triple, check_boole_triple_anticorrelated,
                       check_chsh, check_pair_bound, correlations, dataset_csv_text,
                       read_dataset_csv, require_in_unit_interval)
from .reports import SLACK_TOL, NonFiniteClauseError


class CliError(Exception):
    pass


def _to_rad(value: float, radians: bool) -> float:
    return value if radians else math.radians(value)


def _flag_value(flag: str, check, *values):
    """check(*values), a library refusal of the values prefixed by their flag;
    a non-finite clause is refused by its own name."""
    try:
        return check(*values)
    except NonFiniteClauseError:
        raise
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}") from None


def _sampled(draw, *args):
    """draw(*args) for a route that holds whole per-sample columns (the
    event log, the csv rows), an allocation numpy refuses for them prefixed
    by the flag that sized them."""
    try:
        return draw(*args)
    except MemoryError as exc:
        raise CliError(f"--samples: {exc}") from None


def _directions(args, names: str) -> list[np.ndarray]:
    """The unit vectors of the direction flags named ("abc" names --a, --b, --c)."""
    return [_flag_value(f"--{k}", quantum.as_direction, getattr(args, k)) for k in names]


def _render_table(envelope: dict) -> str:
    lines = [f"scenario: {envelope['scenario']}"]
    for section in ("params", "values"):
        if envelope.get(section):
            lines.append(f"{section}:")
            lines.extend(f"  {k} = {v}" for k, v in envelope[section].items())
    for name, rep in (envelope.get("reports") or {}).items():
        if rep is None:
            lines.append(f"report {name}: (not evaluated)")
            continue
        verdict = "satisfied" if rep["all_satisfied"] else "VIOLATED"
        lines.append(f"report {name} [{rep['family']}]: {verdict}")
        for cl in rep["clauses"]:
            mark = "ok " if cl["satisfied"] else "VIO"
            lines.append(f"  {mark} {cl['description']}: lhs={cl['lhs']:.12g} "
                         f"rhs={cl['rhs']:.12g} slack={cl['slack']:.12g}")
    return "\n".join(lines) + "\n"


def _emit(result: dict | str, args) -> None:
    """Write a handler's envelope as JSON or a table, or the csv it rendered."""
    if args.format == "json":
        text = json.dumps(result, indent=2, default=float, allow_nan=False) + "\n"
    elif args.format == "table":
        text = _render_table(result)
    else:
        text = result
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _envelope(args, params: dict, values: dict | None = None,
              reports: dict | None = None) -> dict:
    """The envelope of a handler's answer (see the module docstring): absent
    values or reports are {}, and each report is serialized, None as null."""
    mode = next((getattr(args, flag) for flag in ("which", "scenario", "what")
                 if hasattr(args, flag)), None)
    return {"scenario": args.command if mode is None else f"{args.command}-{mode}",
            "params": params, "values": values or {},
            "reports": {name: None if rep is None else rep.to_dict()
                        for name, rep in (reports or {}).items()}}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_dataset(args) -> dict:
    counts = read_dataset_csv(args.input)
    corr = {f"F{i}{j}": value for (i, j), value in correlations(counts).items()}
    reports = {}
    if counts.n == 3:
        reports["boole_triple"] = check_boole_triple(corr["F12"], corr["F13"], corr["F23"])
        reports["pair_bound"] = check_pair_bound(corr["F12"], corr["F13"], corr["F23"])
    elif counts.n == 4:
        reports["chsh"] = check_chsh(corr["F13"], corr["F23"], corr["F14"], corr["F24"])
    return _envelope(args, {"input": args.input, "n": counts.n, "m": counts.m}, corr, reports)


def cmd_ebbi(args) -> dict:
    e0, e12, e13, e23 = args.e
    reports = {"ebbi": _flag_value("--e", tables.ebbi_check, e0, e12, e13, e23)}
    if e0 > 0:
        ratios = (e12 / e0, e13 / e0, e23 / e0)
        require_in_unit_interval(zip(("--e E12/E0", "--e E13/E0", "--e E23/E0"), ratios))
        reports["boole_anticorrelated"] = check_boole_triple_anticorrelated(*ratios)
    return _envelope(args, {"e0": e0, "e12": e12, "e13": e13, "e23": e23}, reports=reports)


def cmd_theorem(args) -> dict:
    which = args.which
    if which != "reconstruct" and args.coeffs is None:
        raise CliError(f"--coeffs is required for --which {which}")
    if which == "1":
        c = tables.ExpansionCoeffs2(*args.coeffs)
        rep = tables.theorem1_check(c)
        return _envelope(args, c.to_dict(), {"table": tables.synth2(c).to_dict()},
                         {"theorem1": rep})
    elif which == "3":
        e, ehat, etilde, e0 = args.coeffs
        rep = _flag_value("--coeffs", tables.theorem3_check, e, ehat, etilde, e0)
        return _envelope(args, {"e": e, "ehat": ehat, "etilde": etilde, "e0": e0},
                         reports={"theorem3": rep})
    elif which == "construct":
        a0, a12, a13, a23 = args.coeffs
        table, report = _flag_value("--coeffs", tables.construction_g3, a0, a12, a13, a23)
        return _envelope(args, {"a0": a0, "a12": a12, "a13": a13, "a23": a23},
                         {"table": table.to_dict(), "min_entry": float(np.min(table.values))},
                         {"ebbi": report})
    else:  # reconstruct
        if not args.tables:
            raise CliError("--tables FILE is required for reconstruct")
        try:
            spec = json.loads(Path(args.tables).read_text())
        except RecursionError:
            raise CliError("--tables: JSON nested too deeply to read") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CliError(f"--tables: {args.tables}: {exc}") from None
        keys = ("f", "fhat", "ftilde")
        if not (isinstance(spec, dict) and all(isinstance(spec.get(k), dict) for k in keys)):
            raise CliError("--tables needs a JSON object holding the tables f, fhat and "
                           "ftilde, each an object of sign keys")
        f, fhat, ftilde = (_flag_value(f"--tables {k}", tables.FuncTable2.from_dict, spec[k])
                           for k in keys)
        try:   # a clause or a triple table beyond the float range, or no triple table
            compat = tables.marginals_compatible(f, fhat, ftilde)
            rec = compat.reconstruct() if compat.compatible else None
        except ValueError as exc:
            raise CliError(f"--tables: {exc}") from None
        values: dict = {"compatible": compat.compatible,
                        "failures": list(compat.failures)}
        if rec is not None:
            values.update(table=rec.table.to_dict(), e123=rec.e123,
                          e123_interval=list(rec.e123_interval))
        return _envelope(args, {"tables": args.tables}, values,
                         {"compatibility": compat.clause_report})


def cmd_quantum(args) -> dict:
    rad = args.radians
    if args.scenario == "singlet":
        a, b = _directions(args, "ab")
        e = quantum.expectation(quantum.singlet(), quantum.correlation_operator(a, b))
        return _envelope(args, {"a": list(a), "b": list(b)},
                         {"correlation": e, "minus_a_dot_b": float(-(a @ b)),
                          "table": quantum.singlet_pair_table(a, b).to_dict()})
    elif args.scenario in ("filter2", "filter3"):
        x = np.asarray(args.x, dtype=float)
        rho = _flag_value("--x", quantum.spin_half_state, x)
        if args.scenario == "filter2":
            a, b = _directions(args, "ab")
            chain = quantum.filter_prob2(rho, a, b)
            closed = quantum.filter_prob2_closed(x, a, b)
        else:
            a, b, c = _directions(args, "abc")
            chain = quantum.filter_prob3(rho, a, b, c)
            closed = quantum.filter_prob3_closed(x, a, b, c)
        return _envelope(args, {"x": list(x), "a": args.a, "b": args.b,
                                **({"c": args.c} if args.scenario == "filter3" else {})},
                         {"chain": chain.to_dict(), "closed_form": closed.to_dict(),
                          "max_gap": float(np.max(np.abs(chain.p - closed.p)))})
    elif args.scenario == "substitution":
        ta, tb, tc = (_to_rad(v, rad) for v in args.angles)
        dirs = [quantum.coplanar_direction(t) for t in (ta, tb, tc)]
        rep = quantum.eprb_substitution_report(*dirs)
        return _envelope(args, {"angles": list(args.angles), "radians": rad},
                         {"E": rep.e, "Ehat": rep.ehat, "Etilde": rep.etilde,
                          "marginals_direct": rep.marginals_direct.to_dict(),
                          "marginals_anticorrelated": rep.marginals_anticorrelated.to_dict()},
                         {"boole_direct": rep.boole_direct,
                          "boole_anticorrelated": rep.boole_anticorrelated})
    elif args.scenario == "commutators":
        diag = quantum.commutator_diagnostics(*_directions(args, "abc"), quantum.singlet())
        return _envelope(args, {"a": args.a, "b": args.b, "c": args.c, "state": "singlet"},
                         diag.to_dict())
    else:  # separable
        up = quantum.spin_half_state([0.0, 0.0, 1.0])
        down = quantum.spin_half_state([0.0, 0.0, -1.0])
        comps = [(0.5, up), (0.5, down)]
        rep = quantum.separable_bound_check(comps, *_directions(args, "abc"))
        return _envelope(args, {"components": "equal mix of up/up and down/down",
                                "a": args.a, "b": args.b, "c": args.c},
                         reports={"separable": rep})


def cmd_leggett_garg(args) -> dict:
    p = lg.LGParams(args.omega, *args.dt)
    e12, e13, e23 = lg.lg_triple_correlations(p)
    pe, pehat, petilde = lg.lg_pair_correlations(p)
    values = {
        "triple_correlations": {"E12": e12, "E13": e13, "E23": e23},
        "pair_correlations": {"E": pe, "Ehat": pehat, "Etilde": petilde},
    }
    if args.samples:
        counts = lg.sample_triples(p, args.samples, args.seed)
        values["empirical_correlations"] = {
            f"E{i}{j}": value for (i, j), value in correlations(counts).items()}
    return _envelope(args, {"omega": args.omega, "dt": list(args.dt),
                            "samples": args.samples, "seed": args.seed}, values,
                     {"triple": lg.lg_inequality_check(e12, e13, e23),
                      "pair_substitution": lg.lg_inequality_check(pe, pehat, petilde)})


def cmd_extended_eprb(args) -> dict:
    angles = [_to_rad(v, args.radians) for v in args.angles]
    params = {"angles": list(args.angles), "radians": args.radians}
    if len(angles) == 3:
        table, coeffs = quantum.extended_eprb_prob3(*angles)
        return _envelope(args, params, {"table": table.to_dict(), "coeffs": coeffs.to_dict()},
                         {"ebbi": tables.ebbi_check(1.0, coeffs.e12, coeffs.e13, coeffs.e23)})
    elif len(angles) == 4:
        dirs = [quantum.coplanar_direction(t) for t in angles]
        pairs = quantum.extended_eprb_prob4_chain(*dirs)[1]
        closed = quantum.extended_eprb_prob4(*dirs)[1]
        return _envelope(args, params, {"pair_correlations": pairs, "closed_forms": closed},
                         {"chsh": quantum.check_chsh_quadruple(pairs)})
    else:
        raise CliError("--angles takes 3 (triple) or 4 (quadruple) values")


def cmd_allergy(args) -> dict:
    gamma = (classical.allergy_gamma_triples if args.variant == "triples"
             else classical.allergy_gamma_pairs)(args.days, seed=args.seed)
    bound = -1.0
    return _envelope(args, {"variant": args.variant, "days": args.days, "seed": args.seed},
                     {"gamma": gamma, "triples_bound": bound,
                      "bound_applies": args.variant == "triples",
                      "apparent_violation": gamma < bound - SLACK_TOL})


_MU = {"uniform": "uniform", "equal": "delta_equal", "opposite": "delta_opposite"}


def cmd_factorizable(args) -> dict | str:
    model = classical.FactorizableModel(_MU[args.mu])
    a, b = (_to_rad(v, args.radians) for v in args.angles)
    if args.format == "csv":
        _, s1, s2 = _sampled(classical.sample_pair_arrays, model, a, b,
                             np.random.default_rng(args.seed), args.samples)
        return dataset_csv_text(np.column_stack([s1, s2]), newline="\n")
    analytic = classical.analytic_correlation(model, a, b)  # decided before any draw
    emp = correlations(classical.sample_pair(model, a, b, args.seed, args.samples))[(1, 2)]
    sigma = math.sqrt(max(1.0 - analytic ** 2, 1e-30) / args.samples)
    return _envelope(args, {"mu": model.mu_kind, "angles": list(args.angles),
                            "radians": args.radians, "samples": args.samples,
                            "seed": args.seed},
                     {"analytic": analytic, "empirical": emp,
                      "abs_error": abs(emp - analytic), "four_sigma": 4.0 * sigma})


def _make_source(spec: str):
    if spec == "singlet":
        return pipeline.SingletSource()
    if spec == "triple":
        table = tables.construct_g3(1.0, 0.25, 0.25, 0.25)
        return pipeline.TripleProcessSource(table, {"a": 1, "b": 2, "c": 3})
    kind = _MU[spec.removeprefix("pair:")]
    return pipeline.PairModelSource(classical.FactorizableModel(kind))


def cmd_epr_pipeline(args) -> dict:
    a, b, c = (_to_rad(v, args.radians) for v in args.angles)
    window = float(args.window)
    timing = pipeline.TimingModel(args.jitter, args.jitter_exponent)
    source = _make_source(args.source)
    if args.events_out:  # one draw: the report counts the log's own times
        schedule = pipeline.three_settings_schedule(a, b, c)
        raw = _sampled(pipeline.generate_events, source, schedule, args.samples, timing,
                       args.seed)
        report = pipeline.three_settings_report(schedule, raw.window_counts(window))
        raw.write_csv(args.events_out)
    else:
        report = pipeline.run_three_settings(a, b, c, source, timing, args.samples, window,
                                             args.seed)
    return _envelope(args, {"source": args.source, "angles": list(args.angles),
                            "radians": args.radians, "window": args.window,
                            "samples": args.samples, "seed": args.seed,
                            "jitter": args.jitter, "jitter_exponent": args.jitter_exponent},
                     {"counts": report.counts, "correlations": report.correlations,
                      "empty_pairs": list(report.empty_pairs),
                      "verdict_direct": report.verdict_direct,
                      "verdict_anticorrelated": report.verdict_anticorrelated},
                     {name: getattr(report, name)
                      for name in ("pair_bound", "boole_direct", "boole_anticorrelated")})


# model_inequality_sweep peaks at about 6 n^3 bytes for n angles (7 n^3 on a
# degenerate grid), 137 MB at 300; the limit bounds time: a degenerate grid's
# CHSH recheck is O(n^4), 8 s at 200 angles (2-core x86-64), about 80 s at 300
MAX_FACTORIZABLE_ANGLES = 300
# the two other sweeps evaluate flat blocks of points whatever the axis length,
# so memory stays bounded; the limit bounds time: 32,768^2 points take about
# 80 s at the 0.08 us a point of leggett-garg (2-core x86-64)
MAX_AXIS_POINTS = 1 << 15


def _arange_length(start: float, stop: float, step: float) -> float:
    """len(np.arange(start, stop, step)) by numpy's rule, ceil((stop - start)
    / step) and at least 0, without building it; inf where the quotient is
    not finite (a step that is 0 after conversion to radians too)."""
    quotient = (stop - start) / step if step else math.inf
    return max(math.ceil(quotient), 0) if math.isfinite(quotient) else math.inf


def cmd_sweep(args) -> dict:
    start, stop, step = args.grid
    # the leggett-garg sweep does not read --grid
    if args.what != "leggett-garg" and not (
            math.isfinite(start) and math.isfinite(stop) and math.isfinite(step) and step > 0):
        raise CliError("--grid needs finite START and STOP and a positive finite STEP")
    rad = args.radians
    # points per axis, counted before anything is allocated, on the np.arange
    # arguments of the grid: the factorizable one includes STOP, the
    # extended-eprb one is half-open, so 0 360 STEP covers the circle once
    if args.what == "factorizable":
        arange = (start, stop + 1e-9, step)
        flag, count, limit = "--grid", _arange_length(*arange), MAX_FACTORIZABLE_ANGLES
    elif args.what == "extended-eprb":
        arange = (_to_rad(start, rad), _to_rad(stop, rad) - 1e-9, _to_rad(step, rad))
        flag, count, limit = "--grid", _arange_length(*arange), MAX_AXIS_POINTS
    else:
        flag, count, limit = "--points", args.points, MAX_AXIS_POINTS
    if count > limit:
        raise CliError(f"{flag}: the {args.what} sweep is limited to {limit} points per "
                       f"axis, asked for {count:.6g}")
    if args.what == "factorizable":
        model = classical.FactorizableModel(_MU[args.mu])
        grid = [_to_rad(v, rad) for v in np.arange(*arange)]
        summary = _flag_value("--grid", classical.model_inequality_sweep, model, grid,
                              not args.no_chsh)
        return _envelope(args, {"mu": model.mu_kind, "grid": list(args.grid), "radians": rad},
                         summary.to_dict())
    elif args.what == "extended-eprb":
        s = _flag_value("--grid", quantum.extended_eprb_sweep, np.arange(*arange))
        return _envelope(args, {"grid": list(args.grid), "radians": rad},
                         {"points": s.points, "violations": s.violations,
                          "worst_slack": s.worst_slack})
    else:  # leggett-garg
        s = _flag_value("--points", lg.lg_sweep, args.points)
        return _envelope(args, {"points": args.points},
                         {"violations": s.violations, "worst_slack": s.worst_slack})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _finite_float(text: str) -> float:
    value = _float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _non_negative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def _int_from(minimum: int):
    """The argparse type of an integer flag whose values start at minimum."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text!r}")
        return value
    return parse


def _window(text: str) -> str:
    """A positive float or inf, returned as typed: the envelope echoes it."""
    if not _float(text) > 0.0:   # NaN fails too
        raise argparse.ArgumentTypeError(f"must be positive or inf, got {text!r}")
    return text


class _Parser(argparse.ArgumentParser):
    """Reads every negative float as a value: argparse alone takes only -N and
    -N.N, so -1e2, -inf and -nan would be refused as unknown options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call and returned by every
    later one, so ``main`` pays for it once.  It is shared: callers must not
    mutate it.  Each parse fills a fresh namespace, and the handler is named
    by the subcommand (``cmd_<command>``), not stored in the parser."""
    parser = _Parser(
        prog="boolebell",
        description="Inequality checks for dichotomic data, non-negative "
                    "function tables, small spin systems and classical "
                    "counterexample models.")
    # every subparser is its own parser instance, so it needs the class too
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, seed=False, radians=False, csv=False):
        p.add_argument("--format", default="json",
                       choices=("json", "table", "csv") if csv else ("json", "table"))
        p.add_argument("--out", default=None, help="write output to this path")
        if radians:
            p.add_argument("--radians", action="store_true",
                           help="interpret angles as radians instead of degrees")
        if seed:
            p.add_argument("--seed", type=_int_from(0), required=True,
                           help="explicit RNG seed (reproducibility contract)")

    p = sub.add_parser("dataset", help="correlations and clause checks for a "
                                       "CSV dataset of +-1 tuples")
    p.add_argument("--input", required=True)
    common(p)

    p = sub.add_parser("ebbi", help="pair-coefficient inequality family for "
                                    "three-variable non-negative functions")
    p.add_argument("mode", nargs="?", default="check", choices=("check",))
    p.add_argument("--e", type=_finite_float, nargs=4, required=True,
                   metavar=("E0", "E12", "E13", "E23"))
    common(p)

    p = sub.add_parser("theorem", help="two-variable criterion, three-run "
                                       "bound, explicit construction, "
                                       "marginal reconstruction")
    p.add_argument("--which", choices=("1", "3", "construct", "reconstruct"),
                   required=True)
    p.add_argument("--coeffs", type=_finite_float, nargs=4, default=None)
    p.add_argument("--tables", default=None,
                   help="JSON file with keys f, fhat, ftilde (reconstruct)")
    common(p)

    p = sub.add_parser("quantum", help="spin-1/2 scenarios: singlet, "
                                       "filtering chains, substitution trap, "
                                       "separable bound, commutators")
    p.add_argument("--scenario", required=True,
                   choices=("singlet", "filter2", "filter3", "substitution",
                            "separable", "commutators"))
    p.add_argument("--x", type=_finite_float, nargs=3, default=(0.0, 0.0, 0.0),
                   help="polarization vector of the filtered spin")
    p.add_argument("--a", type=_finite_float, nargs=3, default=(0.0, 0.0, 1.0))
    p.add_argument("--b", type=_finite_float, nargs=3, default=(1.0, 0.0, 0.0))
    p.add_argument("--c", type=_finite_float, nargs=3, default=(0.0, 1.0, 0.0))
    p.add_argument("--angles", type=_finite_float, nargs=3, default=(0.0, 60.0, 120.0),
                   help="coplanar setting angles (substitution scenario)")
    common(p, radians=True)

    p = sub.add_parser("leggett-garg", help="three-probe temporal "
                                            "correlations, closed form and "
                                            "sampled")
    p.add_argument("--omega", type=_finite_float, required=True)
    p.add_argument("--dt", type=_non_negative_float, nargs=3, required=True,
                   metavar=("DT1", "DT2", "DT3"))
    p.add_argument("--samples", type=_int_from(0), default=0)
    common(p, seed=True)

    p = sub.add_parser("extended-eprb", help="two-sided analyzer chains on "
                                             "the singlet: triples (3 angles) "
                                             "or quadruples (4 angles)")
    p.add_argument("--angles", type=_finite_float, nargs="+", required=True)
    common(p, radians=True)

    p = sub.add_parser("allergy", help="city/parity outcome table collected "
                                       "as triples or as pairs")
    p.add_argument("--variant", choices=("triples", "pairs"), required=True)
    p.add_argument("--days", type=_int_from(1), default=100)
    p.add_argument("--seed", type=_int_from(0), default=None,
                   help="optional random day schedule; default alternates parity")
    common(p)

    p = sub.add_parser("factorizable", help="threshold pair model: analytic "
                                            "vs sampled correlation")
    p.add_argument("--mu", choices=tuple(_MU), required=True)
    p.add_argument("--angles", type=_finite_float, nargs=2, required=True)
    p.add_argument("--samples", type=_int_from(1), default=100000)
    common(p, seed=True, radians=True, csv=True)

    p = sub.add_parser("epr-pipeline", help="time-tagged pair generation, "
                                            "coincidence filtering and "
                                            "triples-hypothesis checks")
    p.add_argument("--source", required=True,
                   choices=("triple", "singlet", *(f"pair:{kind}" for kind in _MU)))
    p.add_argument("--angles", type=_finite_float, nargs=3, required=True)
    p.add_argument("--window", type=_window, default="inf",
                   help="coincidence window in event periods, or 'inf'")
    p.add_argument("--samples", type=_int_from(1), default=30000)
    p.add_argument("--jitter", type=_non_negative_float, default=0.0)
    p.add_argument("--jitter-exponent", type=_non_negative_float, default=0.0)
    p.add_argument("--events-out", default=None,
                   help="also write the raw event log CSV to this path")
    common(p, seed=True, radians=True)

    p = sub.add_parser("sweep", help="grid sweeps: factorizable clause "
                                     "families, analyzer-chain coefficients, "
                                     "temporal-correlation grid")
    p.add_argument("--what", choices=("factorizable", "extended-eprb",
                                      "leggett-garg"), required=True)
    p.add_argument("--mu", choices=tuple(_MU), default="opposite")
    p.add_argument("--grid", type=float, nargs=3, default=(0.0, 720.0, 30.0),
                   metavar=("START", "STOP", "STEP"))
    p.add_argument("--no-chsh", action="store_true")
    p.add_argument("--points", type=int, default=50)
    common(p, radians=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a rebinding of a cmd_* function is always seen
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        _emit(handler(args), args)
    except (CliError, ValueError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
