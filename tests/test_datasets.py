"""Dataset construction, correlations and the arithmetic clause families."""

import io
import itertools
import os
import tracemalloc

import numpy as np
import pytest

from boolebell import (DichotomicDataset, check_boole_triple,
                       check_boole_triple_anticorrelated, check_chsh,
                       check_pair_bound, correlation, read_dataset_csv,
                       write_dataset_csv)
from boolebell import datasets as dsm
from boolebell.datasets import correlations
from boolebell.tables import sign_rows
from oracles import reduce_dataset


class TestDatasetConstruction:
    def test_values_must_be_unit(self):
        with pytest.raises(ValueError, match="exactly"):
            DichotomicDataset(np.array([[1, 0], [1, -1]]))

    @pytest.mark.parametrize("bad", [1.5, -0.5, 255, -255, 257, np.nan])
    def test_values_are_checked_before_the_int8_cast(self, bad):
        # an int8 cast would turn 1.5 into 1 and 255 into -1
        with pytest.raises(ValueError, match="exactly"):
            DichotomicDataset(np.array([[1, bad], [1, -1]]))

    def test_exact_unit_values_of_any_dtype_are_accepted(self):
        for dtype in (np.int64, np.float64, np.int8):
            ds = DichotomicDataset(np.array([[1, -1], [-1, 1]], dtype=dtype))
            assert ds.data.dtype == np.int8
            assert ds.data.tolist() == [[1, -1], [-1, 1]]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            DichotomicDataset(np.empty((0, 3), dtype=np.int8))

    def test_arity_bounds(self):
        with pytest.raises(ValueError, match="arity"):
            DichotomicDataset(np.ones((2, 5), dtype=np.int8))

    def test_immutable(self):
        ds = DichotomicDataset(np.ones((2, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            ds.data[0, 0] = -1


class TestReduce:
    def test_single_row_projection(self):
        ds = DichotomicDataset(np.array([[1, -1, 1]]))
        red = reduce_dataset(ds, (1, 3))
        assert type(red) is DichotomicDataset
        assert red.data.tolist() == [[1, 1]]

    def test_two_row_projection(self):
        ds = DichotomicDataset(np.array([[1, 1, 1], [-1, -1, -1]]))
        red = reduce_dataset(ds, (2, 3))
        assert red.data.tolist() == [[1, 1], [-1, -1]]

    def test_quadruple_projection(self):
        ds = DichotomicDataset(np.array([[1, 1, -1, -1]]))
        red = reduce_dataset(ds, (1, 4))
        assert red.data.tolist() == [[1, -1]]

    def test_bad_indices(self):
        ds = DichotomicDataset(np.ones((1, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            reduce_dataset(ds, (0, 2))
        with pytest.raises(ValueError):
            reduce_dataset(ds, (2, 2))
        with pytest.raises(ValueError):
            reduce_dataset(ds, (3, 1))
        with pytest.raises(ValueError, match="arity must be 2, 3 or 4, got 1"):
            reduce_dataset(ds, (2,))


class TestCorrelation:
    def test_single_aligned_row(self):
        ds = DichotomicDataset(np.array([[1, 1, 1]]))
        assert correlation(ds, 1, 2).value == 1.0

    def test_hand_evaluated(self):
        ds = DichotomicDataset(np.array([[1, 1, 1], [1, -1, -1]]))
        assert correlation(ds, 2, 3).value == 1.0
        assert correlation(ds, 1, 2).value == 0.0

    def test_four_rows(self):
        ds = DichotomicDataset(np.array(
            [[1, 1, 1], [1, -1, 1], [-1, 1, -1], [-1, -1, -1]]))
        assert correlation(ds, 1, 3).value == 1.0

    def test_rejects_bad_pairs(self):
        ds = DichotomicDataset(np.ones((1, 3), dtype=np.int8))
        for i, j in ((2, 1), (1, 1), (0, 2), (1, 4)):
            with pytest.raises(ValueError):
                correlation(ds, i, j)

    def test_parity_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            ds = DichotomicDataset(rng.choice([-1, 1], size=(m, 3)))
            num = correlation(ds, 1, 2).value * m
            assert abs(num - round(num)) < 1e-9
            assert (round(num) - m) % 2 == 0

    def test_matches_reduced(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ds = DichotomicDataset(rng.choice([-1, 1], size=(6, 4)))
            for i, j in itertools.combinations(range(1, 5), 2):
                red = DichotomicDataset(reduce_dataset(ds, (i, j)).data)
                assert correlation(ds, i, j).value == correlation(red, 1, 2).value

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_count_grid_equals_the_column_product_sums(self, n):
        rng = np.random.default_rng(n)
        for m in (1, 2, 3, 4, 5, 17, 255, 256, 257, 1000, *rng.integers(6, 5000, 20), 5000):
            data = rng.choice([-1, 1], size=(m, n))
            data[:, rng.random(n) < 0.25] = rng.choice([-1, 1])   # constant columns
            ds = DichotomicDataset(data)
            got = correlations(ds)
            assert list(got) == list(itertools.combinations(range(1, n + 1), 2))
            for (i, j), value in got.items():
                a, b = ds.data[:, i - 1], ds.data[:, j - 1]
                want = int(np.sum(a.astype(np.int64) * b)) / m
                assert value == want and np.signbit(value) == np.signbit(want)
                assert correlation(ds, i, j).value == value


class TestBooleTriple:
    def test_perfectly_correlated(self):
        assert check_boole_triple(1, 1, 1).all_satisfied

    def test_all_anticorrelated_violates(self):
        rep = check_boole_triple(-1, -1, -1)
        assert not rep.all_satisfied
        bad = rep.violated_clauses()
        assert any(c.description == "|F12 + F13| <= 1 + F23" for c in bad)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_boole_triple(1.5, 0, 0)

    def test_triple_data_cannot_violate_small(self):
        # quick version; the full enumeration is an acceptance criterion
        for rows in itertools.product(range(8), repeat=2):
            data = [[1 - 2 * ((r >> k) & 1) for k in range(3)] for r in rows]
            ds = DichotomicDataset(np.array(data))
            rep = check_boole_triple(correlation(ds, 1, 2).value,
                                     correlation(ds, 1, 3).value,
                                     correlation(ds, 2, 3).value)
            assert rep.all_satisfied

    def test_sign_covariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            data = rng.choice([-1, 1], size=(5, 3))
            ds = DichotomicDataset(data)
            base = check_boole_triple(correlation(ds, 1, 2).value,
                                      correlation(ds, 1, 3).value,
                                      correlation(ds, 2, 3).value)
            for k in range(3):
                flipped = data.copy()
                flipped[:, k] *= -1
                ds2 = DichotomicDataset(flipped)
                rep = check_boole_triple(correlation(ds2, 1, 2).value,
                                         correlation(ds2, 1, 3).value,
                                         correlation(ds2, 2, 3).value)
                # negating one column flips exactly the correlations touching it
                for i, j in ((1, 2), (1, 3), (2, 3)):
                    sign = -1 if (k + 1) in (i, j) else 1
                    assert correlation(ds2, i, j).value == \
                        sign * correlation(ds, i, j).value
                assert rep.all_satisfied == base.all_satisfied

    def test_anticorrelated_family_matches_negated_direct(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f = rng.uniform(-1, 1, 3)
            anti = check_boole_triple_anticorrelated(*f)
            direct = check_boole_triple(*(-f))
            assert anti.all_satisfied == direct.all_satisfied


class TestPairBound:
    def test_extreme_satisfied_at_boundary(self):
        rep = check_pair_bound(-1, -1, -1)
        assert rep.all_satisfied
        assert any(abs(c.lhs - 2.0) < 1e-12 and abs(c.rhs - 2.0) < 1e-12
                   for c in rep.clauses)

    def test_zero_case(self):
        assert check_pair_bound(0, 0, 0).all_satisfied

    def test_dense_grid_always_satisfied(self):
        grid = np.linspace(-1, 1, 21)
        for f in grid:
            for fh in grid:
                for ft in grid:
                    assert check_pair_bound(f, fh, ft).all_satisfied

    def test_independent_pair_runs(self):
        # pair bound always passes; the triple family has a failing instance
        rng = np.random.default_rng(19)
        for _ in range(50):
            cors = [correlation(DichotomicDataset(rng.choice([-1, 1], size=(8, 2))),
                                1, 2).value for _ in range(3)]
            assert check_pair_bound(*cors).all_satisfied
        ones = DichotomicDataset(np.array([[1, -1]] * 4))
        f = correlation(ones, 1, 2).value
        assert not check_boole_triple(f, f, f).all_satisfied


class TestChsh:
    def test_boundary_satisfied(self):
        rep = check_chsh(1, 1, 1, 1)
        assert rep.all_satisfied
        assert any(abs(c.lhs - 2.0) < 1e-12 for c in rep.clauses)

    def test_violating_values(self):
        assert not check_chsh(-1, 1, -1, -1).all_satisfied

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_chsh(0, 0, 0, -2)

    def test_quadruple_data_cannot_violate_small(self):
        for rows in itertools.product(range(16), repeat=2):
            data = [[1 - 2 * ((r >> k) & 1) for k in range(4)] for r in rows]
            ds = DichotomicDataset(np.array(data))
            rep = check_chsh(correlation(ds, 1, 3).value,
                             correlation(ds, 2, 3).value,
                             correlation(ds, 1, 4).value,
                             correlation(ds, 2, 4).value)
            assert rep.all_satisfied


class TestCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = DichotomicDataset(rng.choice([-1, 1], size=(10, 3)))
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        text = path.read_text().splitlines()
        assert text[0] == "s1,s2,s3"
        assert set(text[1].split(",")) <= {"+1", "-1"}
        back = read_dataset_csv(path)
        assert np.array_equal(back.data, ds.data)

    @pytest.mark.parametrize("body, rows", [
        ('"+1",-1\n1,"-1"\n', [[1, -1], [1, -1]]),      # quoted cells
        (" 1,-1 \n+1, -1\n", [[1, -1], [1, -1]]),       # surrounding spaces
        ("1,-1\r\n-1,1\r\n", [[1, -1], [-1, 1]]),       # CRLF line ends
    ])
    def test_reader_accepts(self, tmp_path, body, rows):
        path = tmp_path / "ds.csv"
        path.write_text("s1,s2\n" + body, newline="")
        assert read_dataset_csv(path).data.tolist() == rows

    @pytest.mark.parametrize("body, message", [
        ("1,-1\n\n1,1\n", r"ds.csv:3: expected 2 columns$"),       # blank line
        ("1,-1\n1,-1,1\n", r"ds.csv:3: expected 2 columns$"),
        ("1,-1\n1.0,1\n", r"ds.csv:3: non-integer value$"),
        ("1,x\n1,1,1\n", r"ds.csv:2: non-integer value$"),           # first bad row wins
        ("1,1,1\n1,x\n", r"ds.csv:2: expected 2 columns$"),
        ("1_0,1\n", r"^every entry must be exactly \+1 or -1$"),     # int("1_0") == 10
        ("0,1\n", r"^every entry must be exactly \+1 or -1$"),
        ("257,1\n", r"^every entry must be exactly \+1 or -1$"),
        ("1,255\n", r"^every entry must be exactly \+1 or -1$"),
        ("1,99999999999999999999\n", r"^every entry must be exactly \+1 or -1$"),
        ("", r"ds.csv: dataset must contain at least one row$"),
        pytest.param('"' + "1" * 200_000 + "\n",
                     r"ds.csv:2: field larger than field limit \(131072\)$", id="oversized field"),
    ])
    def test_reader_rejects(self, tmp_path, body, message):
        path = tmp_path / "ds.csv"
        path.write_text("s1,s2\n" + body, newline="")
        with pytest.raises(ValueError, match=message):
            read_dataset_csv(path)

    def test_header_mandatory(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("+1,-1\n")
        with pytest.raises(ValueError, match="header"):
            read_dataset_csv(path)


def _csv_module_outcome(path):
    """The rows, or the ValueError message, of the csv-module route."""
    with open(path, newline="") as fh:
        try:
            return dsm._csv_module_dataset(fh, path).data.tolist()
        except ValueError as exc:
            return str(exc)


def _outcome(path):
    try:
        return read_dataset_csv(path).data.tolist()
    except ValueError as exc:
        return str(exc)


def _fuzz_text(rng) -> str:
    """A header and a body over the alphabet + - 1 , \\r \\n, line by line:
    mostly in the block route's form, with near misses: a cell that is quoted,
    spaced, 0, 11 or empty, a line of the wrong width (5 columns included), a
    blank line, a lone \\r, a missing last line end, and now and then a BOM."""
    n = int(rng.integers(2, 5))
    text = ",".join(f"s{i}" for i in range(1, n + 1)) + rng.choice(["\n", "\r\n"])
    for _ in range(rng.integers(0, 6)):
        width = n if rng.random() < 0.95 else rng.choice([n - 1, n + 1, 2 * n - 1, 5])
        cells = [rng.choice(["1", "+1", "-1"]) if rng.random() < 0.98
                 else rng.choice(['"1"', " 1", "0", "11", "", "+-1"]) for _ in range(width)]
        end = (rng.choice(["\n", "\r\n"]) if rng.random() < 0.95
               else rng.choice(["\r", "\r\r\n", "\n\n", "\r\n\r\n", ""]))
        text += ",".join(cells) + end
    if rng.random() < 0.25:
        text = text.rstrip("\r\n") if rng.random() < 0.8 else text[:-1]
    return ("\ufeff" if rng.random() < 0.02 else "") + text


class TestBlockRoute:
    """read_dataset_csv's block route against the csv-module route."""

    @pytest.mark.parametrize("block", [None, 7])
    def test_block_route_equals_the_csv_module(self, tmp_path, monkeypatch, block):
        if block:   # lines and \r\n pairs straddle the block edges
            monkeypatch.setattr(dsm, "READ_BLOCK", block)
        rng = np.random.default_rng(22)
        path = tmp_path / "ds.csv"
        taken, cases = 0, 2000
        for _ in range(cases):
            path.write_bytes(_fuzz_text(rng).encode())
            with open(path, "rb") as fh:
                found = dsm._form_codes(fh)
            expected = _csv_module_outcome(path)
            if found is not None:
                taken += 1
                n, codes = found
                assert sign_rows(n)[codes].tolist() == expected, path.read_bytes()
            assert _outcome(path) == expected, path.read_bytes()
        assert 0.3 < taken / cases < 0.7   # both routes are well exercised

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("text", [
        "s1,s2\n1\n1\n",                 # two short lines
        "s1,s2,s3\n11,1\n",
        "s1,s2\n1,11,1\n",
        "s1,s2\n1,0\n",
        "s1,s2\n+-1,1\n",
        "s1,s2\n1,+\n",
        's1,s2\n"1",1\n',
        "s1,s2\n1, 1\n",
        "s1,s2\n1,1\n\n",
        "s1,s2\n\n1,1\n",
        "s1,s2\n1,1\r1,1\n",             # lone \r
        "s1,s2\n1,1\r\r\n",
        "s1,s2\n1,1\r,1,1\n",
        "s1,s2\n1,1\r",
        "s1,s2,s3,s4\n1,1,1,1,1\n",
        "\ufeffs1,s2\n1,1\n",
        "s1,s2\n", "s1,s2", "s1\n1\n", "s1,s2,s3,s4,s5\n1,1,1,1,1\n",
    ])
    def test_near_misses_take_the_csv_module(self, tmp_path, monkeypatch, block, text):
        if block:
            monkeypatch.setattr(dsm, "READ_BLOCK", block)
        path = tmp_path / "ds.csv"
        path.write_bytes(text.encode())
        with open(path, "rb") as fh:
            assert dsm._form_codes(fh) is None
        assert _outcome(path) == _csv_module_outcome(path)

    def test_a_line_longer_than_the_form_ends_the_block_route(self, monkeypatch):
        # the block route stops at once rather than carry the line on
        monkeypatch.setattr(dsm, "READ_BLOCK", 7)
        fh = io.BytesIO(b"s1,s2\n" + b"1" * 10 ** 6)
        assert dsm._form_codes(fh) is None
        assert fh.tell() < 100

    @pytest.mark.parametrize("body", ["1,-1\n-1,1", '"1",-1\n'])
    def test_a_pipe_is_read_by_the_csv_module(self, tmp_path, body):
        # a pipe cannot be read twice, so the block route does not try it
        path = tmp_path / "ds.csv"
        path.write_text("s1,s2\n" + body, newline="")
        read_fd, write_fd = os.pipe()
        try:
            os.write(write_fd, path.read_bytes())
            os.close(write_fd)
            got = read_dataset_csv(f"/dev/fd/{read_fd}").data.tolist()
        finally:
            os.close(read_fd)
        assert got == _csv_module_outcome(path)

    def test_memory_per_row(self, tmp_path):
        rows = 10 ** 6
        rng = np.random.default_rng(3)
        path = tmp_path / "ds.csv"
        write_dataset_csv(DichotomicDataset(rng.choice(np.int8([-1, 1]), (rows, 3))), path)
        tracemalloc.start()
        try:
            assert read_dataset_csv(path).m == rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * rows


class TestReportJson:
    def test_serialization_fields(self):
        d = check_boole_triple(0.2, -0.1, 0.4).to_dict()
        assert set(d) == {"family", "clauses", "all_satisfied"}
        assert d["family"] == "boole_triple"
        for cl in d["clauses"]:
            assert set(cl) == {"description", "lhs", "rhs", "satisfied", "slack"}
            assert cl["slack"] == pytest.approx(cl["rhs"] - cl["lhs"])
