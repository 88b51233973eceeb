"""Property tests for the CLI's exit contract.

An invocation inside every subcommand's domain exits 0 with a strict,
schema-valid JSON envelope, whose scenario is the subcommand suffixed by the
mode that --which, --scenario or --what chooses.  An invocation the parser must refuse (a flag the
subcommand does not declare, a non-finite float, a value outside a choice
list) exits 2 with exactly one `error:` line and nothing on stdout; stderr
holds nothing else but argparse's usage.  Any invocation the parser accepts
ends in one of those two ways, never in a traceback.  Input files (`dataset`
CSVs, `theorem --which reconstruct` tables) are drawn too and written to a
scratch directory, as is the output of `--out`; `--format table` is drawn
alongside JSON.  Sizes stay small and the examples are derandomized, so the
suite is fast and repeatable.
"""

import contextlib
import io
import json
import math
from importlib import resources
from itertools import product

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from boolebell.cli import main

SCHEMA = jsonschema.Draft202012Validator(json.loads(
    resources.files("boolebell.schemas").joinpath("report.schema.json").read_text()))
PROPERTY = settings(max_examples=10, deadline=None, derandomize=True)

SUBCOMMANDS = ("dataset", "ebbi", "theorem", "quantum", "leggett-garg", "extended-eprb",
               "allergy", "factorizable", "epr-pipeline", "sweep")
RADIANS = {"quantum", "extended-eprb", "factorizable", "epr-pipeline", "sweep"}
NON_FINITE = ("nan", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e999")
BAD_CHOICES = ("", "bogus", "JSON", "pair:", "delta_equal", "2")
# flags (or flag values) and the subcommands that declare them
DECLARED_BY = (("--bogus", ()), ("--format=csv", ("factorizable",)),
               ("--events-out=e.csv", ("epr-pipeline",)), ("--radians", RADIANS),
               ("--no-chsh", ("sweep",)))


# the name --out writes to, inside the scratch directory
OUT = "out.txt"


class Argv(list):
    """An argv under construction that records which tokens hold floats
    and which hold choice values, the input files it names (name -> text)
    and its output format."""

    def __init__(self, command):
        super().__init__([command])
        self.floats, self.choices = [], [0]
        self.files, self.format = {}, "json"

    def add(self, flag, *values, kind=None):
        self.append(flag)
        for value in values:
            if kind == "float":
                self.floats.append(len(self))
            elif kind == "choice":
                self.choices.append(len(self))
            self.append(value)


def floats(lo, hi):
    # repr, so tiny and huge values reach the parser in exponent form
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(repr)


def unit_vectors():
    return st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi)).map(
        lambda a: [repr(math.sin(a[0]) * math.cos(a[1])),
                   repr(math.sin(a[0]) * math.sin(a[1])), repr(math.cos(a[0]))])


SEEDS = st.integers(0, 2 ** 32 - 1).map(str)


def pair_tables_json(draw, loose):
    """Three pair tables f, fhat, ftilde as reconstruct reads them: the pair
    marginals of one non-negative triple table, or three unrelated
    non-negative tables (compatible or not); loose tables hold any finite
    floats."""
    if loose:
        entries = draw(st.lists(st.floats(-1e308, 1e308), min_size=12, max_size=12))
        grids = [entries[k:k + 4] for k in (0, 4, 8)]
    elif draw(st.booleans()):
        g = draw(st.lists(st.floats(0, 1), min_size=8, max_size=8))
        g = [[[g[4 * i + 2 * j + k] for k in range(2)] for j in range(2)] for i in range(2)]
        grids = ([g[i][j][0] + g[i][j][1] for i in range(2) for j in range(2)],
                 [g[i][0][k] + g[i][1][k] for i in range(2) for k in range(2)],
                 [g[0][j][k] + g[1][j][k] for j in range(2) for k in range(2)])
    else:
        grids = [draw(st.lists(st.floats(0, 1), min_size=4, max_size=4)) for _ in range(3)]
    keys = ["".join(p) for p in product("+-", repeat=2)]
    return json.dumps({name: dict(zip(keys, grid))
                       for name, grid in zip(("f", "fhat", "ftilde"), grids)})


def dataset_csv(draw, loose):
    """A dataset CSV of arity 2-4 whose cells read +1 or -1; a loose one may
    also hold cells of other integers, other text, or a short row."""
    n = draw(st.integers(2, 4))
    cells = ("1", "+1", "-1") + (("0", "2", "257", "-129", "x", "", "1.0") if loose else ())
    rows = draw(st.lists(st.lists(st.sampled_from(cells), min_size=n - loose, max_size=n),
                         min_size=1, max_size=30))
    return "\n".join([",".join(f"s{i}" for i in range(1, n + 1)), *map(",".join, rows)]) + "\n"


@st.composite
def valid_argv(draw, command, loose=False):
    """An invocation inside the domain of `command`, at small sizes; with
    `loose`, its input files may lie outside that domain."""
    argv = Argv(command)
    if command == "dataset":
        argv.files["data.csv"] = dataset_csv(draw, loose)
        argv.add("--input", "data.csv")
    elif command == "ebbi":
        if draw(st.booleans()):
            argv.choices.append(len(argv))
            argv.append("check")
        e0 = draw(st.floats(0, 10))
        argv.add("--e", repr(e0), *(repr(e0 * draw(st.floats(-1, 1))) for _ in range(3)),
                 kind="float")
    elif command == "theorem":
        which = draw(st.sampled_from(("1", "3", "construct", "reconstruct")))
        argv.add("--which", which, kind="choice")
        if which == "reconstruct":
            argv.files["tables.json"] = pair_tables_json(draw, loose)
            argv.add("--tables", "tables.json")
        else:
            e0 = draw(st.floats(0, 10))
            if which == "construct":
                # inside the region: a mixture of the four deterministic vertices
                weights = draw(st.lists(st.floats(0, 1), min_size=4, max_size=4).filter(any))
                vertices = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
                pair = [e0 * sum(w * v[k] for w, v in zip(weights, vertices)) / sum(weights)
                        for k in range(3)]
            else:
                pair = [e0 * draw(st.floats(-1, 1)) for _ in range(3)]
            coeffs = [e0, *pair] if which != "3" else [*pair, e0]
            argv.add("--coeffs", *map(repr, coeffs), kind="float")
    elif command == "quantum":
        argv.add("--scenario", draw(st.sampled_from(
            ("singlet", "filter2", "filter3", "substitution", "separable", "commutators"))),
            kind="choice")
        r = draw(st.floats(0, 1))
        argv.add("--x", *(repr(r * float(v)) for v in draw(unit_vectors())), kind="float")
        for flag in ("--a", "--b", "--c"):
            argv.add(flag, *draw(unit_vectors()), kind="float")
        argv.add("--angles", *(draw(floats(-720, 720)) for _ in range(3)), kind="float")
    elif command == "leggett-garg":
        argv.add("--omega", draw(floats(-10, 10)), kind="float")
        argv.add("--dt", *(draw(floats(0, 10)) for _ in range(3)), kind="float")
        argv.add("--samples", str(draw(st.integers(0, 200))))
        argv.add("--seed", draw(SEEDS))
    elif command == "extended-eprb":
        n = draw(st.sampled_from((3, 4)))
        argv.add("--angles", *(draw(floats(-720, 720)) for _ in range(n)), kind="float")
    elif command == "allergy":
        argv.add("--variant", draw(st.sampled_from(("triples", "pairs"))), kind="choice")
        argv.add("--days", str(draw(st.integers(1, 50))))
        if draw(st.booleans()):
            argv.add("--seed", draw(SEEDS))
    elif command == "factorizable":
        argv.add("--mu", draw(st.sampled_from(("uniform", "equal", "opposite"))),
                 kind="choice")
        argv.add("--angles", draw(floats(-720, 720)), draw(floats(-720, 720)), kind="float")
        argv.add("--samples", str(draw(st.integers(1, 200))))
        argv.add("--seed", draw(SEEDS))
    elif command == "epr-pipeline":
        argv.add("--source", draw(st.sampled_from(
            ("triple", "singlet", "pair:uniform", "pair:equal", "pair:opposite"))),
            kind="choice")
        argv.add("--angles", *(draw(floats(-720, 720)) for _ in range(3)), kind="float")
        argv.add("--window", draw(st.just("inf") | floats(0.01, 5)))
        argv.add("--jitter", draw(floats(0, 2)), kind="float")
        argv.add("--jitter-exponent", draw(floats(0, 4)), kind="float")
        argv.add("--samples", str(draw(st.integers(1, 200))))
        argv.add("--seed", draw(SEEDS))
    else:  # sweep
        what = draw(st.sampled_from(("factorizable", "extended-eprb", "leggett-garg")))
        argv.add("--what", what, kind="choice")
        if what == "leggett-garg":
            argv.add("--points", str(draw(st.integers(1, 30))))
        else:
            start, step = draw(st.floats(-360, 360)), draw(st.floats(5, 90))
            argv.add("--grid", repr(start), repr(start + step * draw(st.integers(1, 8))),
                     repr(step), kind="float")
            if what == "factorizable":
                argv.add("--mu", draw(st.sampled_from(("uniform", "equal", "opposite"))),
                         kind="choice")
                if draw(st.booleans()):
                    argv.append("--no-chsh")
    if command in RADIANS and draw(st.booleans()):
        argv.append("--radians")
    if draw(st.booleans()):
        argv.format = draw(st.sampled_from(("json", "table")))
        argv.add("--format", argv.format, kind="choice")
    if draw(st.booleans()):
        argv.add("--out", OUT)
    return argv


@st.composite
def loose_argv(draw, command):
    """An invocation the parser accepts, with any finite floats and small
    integers of either sign.  The sweep grid stays as drawn: a loose grid can
    ask for the full 32,768 points per axis, which is valid but slow."""
    argv = draw(valid_argv(command, loose=True))
    grid = argv.index("--grid") if "--grid" in argv else len(argv)
    for i in argv.floats:
        if not grid < i <= grid + 3:
            argv[i] = draw(floats(-1e308, 1e308))
    for i, token in enumerate(argv[:-1]):
        if token in ("--samples", "--days", "--points", "--seed"):
            argv[i + 1] = str(draw(st.integers(-3, 60)))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def run(argv, workdir):
    """Exit code, output and stderr of argv, with its input files written to
    workdir first; the text of the --out file counts as output."""
    for name, text in argv.files.items():
        (workdir / name).write_text(text)
    out_file = workdir / OUT
    out_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(workdir / t) if t in (OUT, *argv.files) else t for t in argv])
        except SystemExit as exc:
            code = exc.code
    written = out_file.read_text() if out_file.exists() else ""
    return code, out.getvalue() + written, err.getvalue()


def _refuse_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


def scenario_of(argv):
    """The scenario an envelope names: the subcommand, suffixed by the mode
    that --which, --scenario or --what chooses."""
    modes = [argv[i + 1] for i, t in enumerate(argv) if t in ("--which", "--scenario", "--what")]
    return "-".join([argv[0], *modes])


def assert_envelope(out, argv):
    if argv.format == "table":
        assert out.startswith("scenario: ") and out.endswith("\n")
        scenario = out.splitlines()[0].removeprefix("scenario: ")
    else:
        envelope = json.loads(out, parse_constant=_refuse_constant)
        SCHEMA.validate(envelope)
        scenario = envelope["scenario"]
    assert scenario == scenario_of(argv)


def assert_one_error_line(code, out, err):
    assert code == 2
    assert out == ""
    # besides the error line, stderr holds at most argparse's usage, whose
    # continuation lines are indented
    lines = [line for line in err.splitlines() if not line.startswith(("usage: ", " "))]
    assert len(lines) == 1 and "error:" in lines[0]


@pytest.mark.parametrize("command", SUBCOMMANDS)
@PROPERTY
@given(data=st.data())
def test_valid_invocations_exit_0_with_strict_json(command, data, workdir):
    argv = data.draw(valid_argv(command))
    code, out, err = run(argv, workdir)
    assert code == 0, err
    assert_envelope(out, argv)


@pytest.mark.parametrize("command", SUBCOMMANDS)
@PROPERTY
@given(data=st.data())
def test_invalid_invocations_exit_2_with_one_error_line(command, data, workdir):
    draw = data.draw
    argv = draw(valid_argv(command))
    mutation = draw(st.sampled_from(("flag", "float", "choice")))
    if mutation == "float" and argv.floats:
        argv[draw(st.sampled_from(argv.floats))] = draw(st.sampled_from(NON_FINITE))
    elif mutation == "choice":
        argv[draw(st.sampled_from(argv.choices))] = draw(st.sampled_from(BAD_CHOICES))
    else:
        undeclared = [flag for flag, owners in DECLARED_BY if command not in owners]
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(undeclared)))
    assert_one_error_line(*run(argv, workdir))


@pytest.mark.parametrize("command", SUBCOMMANDS)
@PROPERTY
@given(data=st.data())
def test_accepted_invocations_never_end_in_a_traceback(command, data, workdir):
    argv = data.draw(loose_argv(command))
    code, out, err = run(argv, workdir)
    if code == 0:
        assert_envelope(out, argv)
    else:
        assert_one_error_line(code, out, err)
