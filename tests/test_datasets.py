"""Dataset construction, correlations and the arithmetic clause families."""

import itertools

import numpy as np
import pytest

from boolebell import (DichotomicDataset, check_boole_triple,
                       check_boole_triple_anticorrelated, check_chsh,
                       check_pair_bound, correlation, read_dataset_csv,
                       reduce_dataset, write_dataset_csv)


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
        ds = DichotomicDataset(rng.choice([-1, 1], size=(10, 3)), run_label="hat")
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


class TestReportJson:
    def test_serialization_fields(self):
        d = check_boole_triple(0.2, -0.1, 0.4).to_dict()
        assert set(d) == {"family", "clauses", "all_satisfied"}
        assert d["family"] == "boole_triple"
        for cl in d["clauses"]:
            assert set(cl) == {"description", "lhs", "rhs", "satisfied", "slack"}
            assert cl["slack"] == pytest.approx(cl["rhs"] - cl["lhs"])
