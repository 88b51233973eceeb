"""Command-line entry point: one subcommand per scenario.

Output is a JSON envelope {scenario, params, values, reports} validating
against ``schemas/report.schema.json``; ``--format table`` renders the same
content as text, ``--format csv`` is available for sample dumps.  An
inequality violation is a reported finding, not an error: the exit status is
nonzero only for invalid invocations.  All randomized scenarios require an
explicit ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import classical, leggett_garg as lg, pipeline, quantum, tables
from .datasets import (check_boole_triple, check_boole_triple_anticorrelated,
                       check_chsh, check_pair_bound, correlation,
                       dataset_csv_text, read_dataset_csv)
from .reports import GRID_BLOCK


class CliError(Exception):
    pass


def _to_rad(value: float, radians: bool) -> float:
    return value if radians else math.radians(value)


def _render_table(envelope: dict) -> str:
    lines = [f"scenario: {envelope['scenario']}"]
    if envelope.get("params"):
        lines.append("params:")
        for k, v in envelope["params"].items():
            lines.append(f"  {k} = {v}")
    if envelope.get("values"):
        lines.append("values:")
        for k, v in envelope["values"].items():
            lines.append(f"  {k} = {v}")
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


def _emit(envelope: dict, args, csv_text: str | None = None) -> None:
    if args.format == "json":
        text = json.dumps(envelope, indent=2, default=float, allow_nan=False) + "\n"
    elif args.format == "table":
        text = _render_table(envelope)
    else:
        if csv_text is None:
            raise CliError("csv format is only available for sample/event dumps")
        text = csv_text
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_dataset(args) -> None:
    ds = read_dataset_csv(args.input)
    pairs = [(i, j) for i in range(1, ds.n + 1) for j in range(i + 1, ds.n + 1)]
    corr = {f"F{i}{j}": correlation(ds, i, j).value for i, j in pairs}
    reports = {}
    if ds.n == 3:
        reports["boole_triple"] = check_boole_triple(
            corr["F12"], corr["F13"], corr["F23"]).to_dict()
        reports["pair_bound"] = check_pair_bound(
            corr["F12"], corr["F13"], corr["F23"]).to_dict()
    elif ds.n == 4:
        reports["chsh"] = check_chsh(corr["F13"], corr["F23"],
                                     corr["F14"], corr["F24"]).to_dict()
    _emit({"scenario": "dataset", "params": {"input": args.input, "n": ds.n,
                                             "m": ds.m},
           "values": corr, "reports": reports}, args)


def cmd_ebbi(args) -> None:
    e0, e12, e13, e23 = args.e
    report = tables.ebbi_check(e0, e12, e13, e23)
    reports = {"ebbi": report.to_dict()}
    if e0 > 0:
        reports["boole_anticorrelated"] = check_boole_triple_anticorrelated(
            e12 / e0, e13 / e0, e23 / e0).to_dict()
    _emit({"scenario": "ebbi",
           "params": {"e0": e0, "e12": e12, "e13": e13, "e23": e23},
           "values": {}, "reports": reports}, args)


def cmd_theorem(args) -> None:
    which = args.which
    if which != "reconstruct" and args.coeffs is None:
        raise CliError(f"--coeffs is required for --which {which}")
    if which == "1":
        e0, e1, e2, e12 = args.coeffs
        c = tables.ExpansionCoeffs2(e0, e1, e2, e12)
        rep = tables.theorem1_check(c)
        _emit({"scenario": "theorem-1",
               "params": c.to_dict(),
               "values": {"table": tables.synth2(c).to_dict()},
               "reports": {"theorem1": rep.to_dict()}}, args)
    elif which == "3":
        e, ehat, etilde, e0 = args.coeffs
        rep = tables.theorem3_check(e, ehat, etilde, e0)
        _emit({"scenario": "theorem-3",
               "params": {"e": e, "ehat": ehat, "etilde": etilde, "e0": e0},
               "values": {}, "reports": {"theorem3": rep.to_dict()}}, args)
    elif which == "construct":
        a0, a12, a13, a23 = args.coeffs
        try:
            table = tables.construct_g3(a0, a12, a13, a23)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        _emit({"scenario": "theorem-construct",
               "params": {"a0": a0, "a12": a12, "a13": a13, "a23": a23},
               "values": {"table": table.to_dict(),
                          "min_entry": float(np.min(table.values))},
               "reports": {"ebbi": tables.ebbi_check(a0, a12, a13, a23).to_dict()}},
              args)
    else:  # reconstruct
        if not args.tables:
            raise CliError("--tables FILE is required for reconstruct")
        spec = json.loads(Path(args.tables).read_text())
        f, fhat, ftilde = (tables.FuncTable2.from_dict(spec[k]) for k in ("f", "fhat", "ftilde"))
        try:
            rec = tables.reconstruct_f3(f, fhat, ftilde)
        except tables.IncompatibleMarginalsError as exc:
            if exc.compatibility is None:   # compatible, yet no triple table
                raise
            rec, compat = None, exc.compatibility
        else:
            compat = rec.compatibility
        values: dict = {"compatible": compat.compatible,
                        "failures": list(compat.failures)}
        if rec is not None:
            values["table"] = rec.table.to_dict()
            values["e123"] = rec.e123
            values["e123_interval"] = list(rec.e123_interval)
        _emit({"scenario": "theorem-reconstruct", "params": {"tables": args.tables},
               "values": values,
               "reports": {"compatibility": compat.clause_report.to_dict()}}, args)


def cmd_quantum(args) -> None:
    rad = args.radians
    if args.scenario == "singlet":
        a = quantum.as_direction(args.a)
        b = quantum.as_direction(args.b)
        rho = quantum.singlet()
        e = quantum.expectation(rho, quantum.correlation_operator(a, b))
        _emit({"scenario": "quantum-singlet",
               "params": {"a": list(a), "b": list(b)},
               "values": {"correlation": e, "minus_a_dot_b": float(-(a @ b)),
                          "table": quantum.singlet_pair_table(a, b).to_dict()},
               "reports": {}}, args)
    elif args.scenario in ("filter2", "filter3"):
        x = np.asarray(args.x, dtype=float)
        rho = quantum.spin_half_state(x)
        if args.scenario == "filter2":
            chain = quantum.filter_prob2(rho, args.a, args.b)
            closed = quantum.filter_prob2_closed(x, args.a, args.b)
        else:
            chain = quantum.filter_prob3(rho, args.a, args.b, args.c)
            closed = quantum.filter_prob3_closed(x, args.a, args.b, args.c)
        _emit({"scenario": f"quantum-{args.scenario}",
               "params": {"x": list(x), "a": args.a, "b": args.b,
                          **({"c": args.c} if args.scenario == "filter3" else {})},
               "values": {"chain": chain.to_dict(), "closed_form": closed.to_dict(),
                          "max_gap": float(np.max(np.abs(chain.p - closed.p)))},
               "reports": {}}, args)
    elif args.scenario == "substitution":
        ta, tb, tc = (_to_rad(v, rad) for v in args.angles)
        dirs = [quantum.coplanar_direction(t) for t in (ta, tb, tc)]
        rep = quantum.eprb_substitution_report(*dirs)
        _emit({"scenario": "quantum-substitution",
               "params": {"angles": list(args.angles), "radians": rad},
               "values": {"E": rep.e, "Ehat": rep.ehat, "Etilde": rep.etilde,
                          "marginals_direct": rep.marginals_direct.to_dict(),
                          "marginals_anticorrelated":
                              rep.marginals_anticorrelated.to_dict()},
               "reports": {"boole_direct": rep.boole_direct.to_dict(),
                           "boole_anticorrelated":
                               rep.boole_anticorrelated.to_dict()}}, args)
    elif args.scenario == "commutators":
        diag = quantum.commutator_diagnostics(args.a, args.b, args.c,
                                              quantum.singlet())
        _emit({"scenario": "quantum-commutators",
               "params": {"a": args.a, "b": args.b, "c": args.c,
                          "state": "singlet"},
               "values": diag.to_dict(), "reports": {}}, args)
    else:  # separable
        up = quantum.spin_half_state([0.0, 0.0, 1.0])
        down = quantum.spin_half_state([0.0, 0.0, -1.0])
        comps = [(0.5, up), (0.5, down)]
        rep = quantum.separable_bound_check(comps, args.a, args.b, args.c)
        _emit({"scenario": "quantum-separable",
               "params": {"components": "equal mix of up/up and down/down",
                          "a": args.a, "b": args.b, "c": args.c},
               "values": {}, "reports": {"separable": rep.to_dict()}}, args)


def cmd_leggett_garg(args) -> None:
    p = lg.LGParams(args.omega, *args.dt)
    e12, e13, e23 = lg.lg_triple_correlations(p)
    pe, pehat, petilde = lg.lg_pair_correlations(p)
    values = {
        "triple_correlations": {"E12": e12, "E13": e13, "E23": e23},
        "pair_correlations": {"E": pe, "Ehat": pehat, "Etilde": petilde},
    }
    if args.samples:
        ds = lg.sample_triples(p, args.samples, args.seed)
        values["empirical_correlations"] = {
            "E12": correlation(ds, 1, 2).value,
            "E13": correlation(ds, 1, 3).value,
            "E23": correlation(ds, 2, 3).value,
        }
    _emit({"scenario": "leggett-garg",
           "params": {"omega": args.omega, "dt": list(args.dt),
                      "samples": args.samples, "seed": args.seed},
           "values": values,
           "reports": {"triple": lg.lg_inequality_check(e12, e13, e23).to_dict(),
                       "pair_substitution":
                           lg.lg_inequality_check(pe, pehat, petilde).to_dict()}},
          args)


def cmd_extended_eprb(args) -> None:
    rad = args.radians
    angles = [_to_rad(v, rad) for v in args.angles]
    if len(angles) == 3:
        table, coeffs = quantum.extended_eprb_prob3(*angles)
        rep = tables.ebbi_check(1.0, coeffs.e12, coeffs.e13, coeffs.e23)
        _emit({"scenario": "extended-eprb",
               "params": {"angles": list(args.angles), "radians": rad},
               "values": {"table": table.to_dict(), "coeffs": coeffs.to_dict()},
               "reports": {"ebbi": rep.to_dict()}}, args)
    elif len(angles) == 4:
        dirs = [quantum.coplanar_direction(t) for t in angles]
        table, pairs = quantum.extended_eprb_prob4(*dirs)
        closed = quantum.chsh_pair_correlations_closed(*dirs)
        rep = quantum.check_chsh_quadruple(pairs)
        _emit({"scenario": "extended-eprb",
               "params": {"angles": list(args.angles), "radians": rad},
               "values": {"pair_correlations": pairs, "closed_forms": closed},
               "reports": {"chsh": rep.to_dict()}}, args)
    else:
        raise CliError("--angles takes 3 (triple) or 4 (quadruple) values")


def cmd_allergy(args) -> None:
    gamma = (classical.allergy_gamma_triples if args.variant == "triples"
             else classical.allergy_gamma_pairs)(args.days, seed=args.seed)
    bound = -1.0
    _emit({"scenario": "allergy",
           "params": {"variant": args.variant, "days": args.days,
                      "seed": args.seed},
           "values": {"gamma": gamma, "triples_bound": bound,
                      "bound_applies": args.variant == "triples",
                      "apparent_violation": gamma < bound - 1e-12},
           "reports": {}}, args)


_MU = {"uniform": "uniform", "equal": "delta_equal", "opposite": "delta_opposite"}


def cmd_factorizable(args) -> None:
    model = classical.FactorizableModel(_MU[args.mu])
    a, b = (_to_rad(v, args.radians) for v in args.angles)
    analytic = classical.analytic_correlation(model, a, b)
    ds = classical.sample_pair(model, a, b, args.seed, args.samples)
    emp = correlation(ds, 1, 2).value
    sigma = math.sqrt(max(1.0 - analytic ** 2, 1e-30) / args.samples)
    csv_text = dataset_csv_text(ds.data, newline="\n") if args.format == "csv" else None
    _emit({"scenario": "factorizable",
           "params": {"mu": model.mu_kind, "angles": list(args.angles),
                      "radians": args.radians, "samples": args.samples,
                      "seed": args.seed},
           "values": {"analytic": analytic, "empirical": emp,
                      "abs_error": abs(emp - analytic),
                      "four_sigma": 4.0 * sigma},
           "reports": {}}, args, csv_text=csv_text)


def _make_source(spec: str):
    if spec == "singlet":
        return pipeline.SingletSource()
    if spec == "triple":
        table = tables.construct_g3(1.0, 0.25, 0.25, 0.25)
        return pipeline.TripleProcessSource(table, {"a": 1, "b": 2, "c": 3})
    if spec.startswith("pair:"):
        kind = spec.split(":", 1)[1]
        if kind not in _MU:
            raise CliError(f"unknown pair model {kind!r}; use uniform/equal/opposite")
        return pipeline.PairModelSource(classical.FactorizableModel(_MU[kind]))
    raise CliError(f"unknown source {spec!r}")


def cmd_epr_pipeline(args) -> None:
    a, b, c = (_to_rad(v, args.radians) for v in args.angles)
    window = math.inf if args.window in ("inf", "INF") else float(args.window)
    timing = pipeline.TimingModel(args.jitter, args.jitter_exponent)
    source = _make_source(args.source)
    report = pipeline.run_three_settings(a, b, c, source, timing,
                                         args.samples, window, args.seed)
    if args.events_out:
        report.raw.write_csv(args.events_out)
    reports = {name: getattr(report, name)
               for name in ("pair_bound", "boole_direct", "boole_anticorrelated")}
    _emit({"scenario": "epr-pipeline",
           "params": {"source": args.source, "angles": list(args.angles),
                      "radians": args.radians, "window": args.window,
                      "samples": args.samples, "seed": args.seed,
                      "jitter": args.jitter,
                      "jitter_exponent": args.jitter_exponent},
           "values": {"counts": report.counts, "correlations": report.correlations,
                      "empty_pairs": list(report.empty_pairs),
                      "verdict_direct": report.verdict_direct,
                      "verdict_anticorrelated": report.verdict_anticorrelated},
           "reports": {name: rep.to_dict() if rep else None
                       for name, rep in reports.items()}}, args)


# model_inequality_sweep peaks at about 37 n^3 bytes for n angles (measured for
# n = 50..150), so 300 angles stay near 1 GB
MAX_FACTORIZABLE_ANGLES = 300
# the grid sweeps evaluate whole rows, so memory stays at about GRID_BLOCK
# points only while an axis holds at most that many
MAX_AXIS_POINTS = GRID_BLOCK


def cmd_sweep(args) -> None:
    start, stop, step = args.grid
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)
            and step > 0):
        raise CliError("--grid needs finite START and STOP and a positive finite STEP")
    if args.points < 1:
        raise CliError(f"--points must be at least 1, got {args.points}")
    # points per axis, counted before anything is allocated
    if args.what == "factorizable":   # STOP included
        count, limit = (stop - start) / step + 1, MAX_FACTORIZABLE_ANGLES
    elif args.what == "extended-eprb":
        count, limit = (stop - start) / step, MAX_AXIS_POINTS
    else:
        count, limit = args.points, MAX_AXIS_POINTS
    if count > limit:
        raise CliError(f"the {args.what} sweep is limited to {limit} points per axis, "
                       f"asked for about {count:.3g}")
    rad = args.radians
    if args.what == "factorizable":
        model = classical.FactorizableModel(_MU[args.mu])
        grid = [_to_rad(v, rad) for v in np.arange(start, stop + 1e-9, step)]
        summary = classical.model_inequality_sweep(model, grid, chsh=not args.no_chsh)
        _emit({"scenario": "sweep-factorizable",
               "params": {"mu": model.mu_kind, "grid": list(args.grid),
                          "radians": rad},
               "values": summary.to_dict(), "reports": {}}, args)
    elif args.what == "extended-eprb":
        # half-open [START, STOP): 0 360 STEP covers the circle once
        thetas = np.arange(_to_rad(start, rad), _to_rad(stop, rad) - 1e-9,
                           _to_rad(step, rad))
        s = quantum.extended_eprb_sweep(thetas)
        _emit({"scenario": "sweep-extended-eprb",
               "params": {"grid": list(args.grid), "radians": rad},
               "values": {"points": s.points, "violations": s.violations,
                          "worst_slack": s.worst_slack},
               "reports": {}}, args)
    else:  # leggett-garg
        s = lg.lg_sweep(args.points)
        _emit({"scenario": "sweep-leggett-garg",
               "params": {"points": args.points},
               "values": {"violations": s.violations, "worst_slack": s.worst_slack},
               "reports": {}}, args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _non_negative_float(text: str) -> float:
    value = _finite_float(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolebell",
        description="Inequality checks for dichotomic data, non-negative "
                    "function tables, small spin systems and classical "
                    "counterexample models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False):
        p.add_argument("--format", choices=("json", "table", "csv"),
                       default="json")
        p.add_argument("--out", default=None, help="write output to this path")
        p.add_argument("--radians", action="store_true",
                       help="interpret angles as radians instead of degrees")
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="explicit RNG seed (reproducibility contract)")

    p = sub.add_parser("dataset", help="correlations and clause checks for a "
                                       "CSV dataset of +-1 tuples")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("ebbi", help="pair-coefficient inequality family for "
                                    "three-variable non-negative functions")
    p.add_argument("mode", nargs="?", default="check", choices=("check",))
    p.add_argument("--e", type=_finite_float, nargs=4, required=True,
                   metavar=("E0", "E12", "E13", "E23"))
    common(p)
    p.set_defaults(func=cmd_ebbi)

    p = sub.add_parser("theorem", help="two-variable criterion, three-run "
                                       "bound, explicit construction, "
                                       "marginal reconstruction")
    p.add_argument("--which", choices=("1", "3", "construct", "reconstruct"),
                   required=True)
    p.add_argument("--coeffs", type=_finite_float, nargs=4, default=None)
    p.add_argument("--tables", default=None,
                   help="JSON file with keys f, fhat, ftilde (reconstruct)")
    common(p)
    p.set_defaults(func=cmd_theorem)

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
    common(p)
    p.set_defaults(func=cmd_quantum)

    p = sub.add_parser("leggett-garg", help="three-probe temporal "
                                            "correlations, closed form and "
                                            "sampled")
    p.add_argument("--omega", type=_finite_float, required=True)
    p.add_argument("--dt", type=_finite_float, nargs=3, required=True,
                   metavar=("DT1", "DT2", "DT3"))
    p.add_argument("--samples", type=int, default=0)
    common(p, seed=True)
    p.set_defaults(func=cmd_leggett_garg)

    p = sub.add_parser("extended-eprb", help="two-sided analyzer chains on "
                                             "the singlet: triples (3 angles) "
                                             "or quadruples (4 angles)")
    p.add_argument("--angles", type=_finite_float, nargs="+", required=True)
    common(p)
    p.set_defaults(func=cmd_extended_eprb)

    p = sub.add_parser("allergy", help="city/parity outcome table collected "
                                       "as triples or as pairs")
    p.add_argument("--variant", choices=("triples", "pairs"), required=True)
    p.add_argument("--days", type=int, default=100)
    p.add_argument("--seed", type=int, default=None,
                   help="optional random day schedule; default alternates parity")
    common(p)
    p.set_defaults(func=cmd_allergy)

    p = sub.add_parser("factorizable", help="threshold pair model: analytic "
                                            "vs sampled correlation")
    p.add_argument("--mu", choices=("uniform", "equal", "opposite"),
                   required=True)
    p.add_argument("--angles", type=_finite_float, nargs=2, required=True)
    p.add_argument("--samples", type=int, default=100000)
    common(p, seed=True)
    p.set_defaults(func=cmd_factorizable)

    p = sub.add_parser("epr-pipeline", help="time-tagged pair generation, "
                                            "coincidence filtering and "
                                            "triples-hypothesis checks")
    p.add_argument("--source", required=True,
                   help="triple | singlet | pair:uniform | pair:equal | pair:opposite")
    p.add_argument("--angles", type=_finite_float, nargs=3, required=True)
    p.add_argument("--window", default="inf",
                   help="coincidence window in event periods, or 'inf'")
    p.add_argument("--samples", type=int, default=30000)
    p.add_argument("--jitter", type=_non_negative_float, default=0.0)
    p.add_argument("--jitter-exponent", type=_finite_float, default=0.0)
    p.add_argument("--events-out", default=None,
                   help="also write the raw event log CSV to this path")
    common(p, seed=True)
    p.set_defaults(func=cmd_epr_pipeline)

    p = sub.add_parser("sweep", help="grid sweeps: factorizable clause "
                                     "families, analyzer-chain coefficients, "
                                     "temporal-correlation grid")
    p.add_argument("--what", choices=("factorizable", "extended-eprb",
                                      "leggett-garg"), required=True)
    p.add_argument("--mu", choices=("uniform", "equal", "opposite"),
                   default="opposite")
    p.add_argument("--grid", type=float, nargs=3, default=(0.0, 720.0, 30.0),
                   metavar=("START", "STOP", "STEP"))
    p.add_argument("--no-chsh", action="store_true")
    p.add_argument("--points", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (CliError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
