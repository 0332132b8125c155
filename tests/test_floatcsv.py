import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synwave import _floatcsv


def repr_rows(block):
    """The reference: Python's repr of every cell, one row per line."""
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in np.asarray(block, dtype=float).tolist()).encode()


def assert_rows_match(values, n_cols=50):
    """``csv_rows`` of the values, padded with 0.0 to whole rows, equals
    the repr reference, and names the first cell that does not."""
    values = np.asarray(values, dtype=float).ravel()
    block = np.concatenate([values, np.zeros(-values.size % n_cols)])
    block = block.reshape(-1, n_cols)
    got = _floatcsv.csv_rows(block)
    if got != repr_rows(block):
        for v in values:
            cell = _floatcsv.csv_rows(np.array([[v]])).decode()
            assert cell == repr(float(v)) + "\n", float(v).hex()
    assert got == repr_rows(block)


def neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0),
                           np.nextafter(values, np.inf), -values])


class TestCsvRows:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40),
           st.integers(1, 5))
    def test_any_floats_match_repr(self, values, n_rows):
        block = np.resize(np.array(values, dtype=float), (n_rows, len(values)))
        assert _floatcsv.csv_rows(block) == repr_rows(block)

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(0).integers(
            0, 2**64, size=200_000, dtype=np.uint64, endpoint=False)
        assert_rows_match(bits.view(np.float64), n_cols=400)

    def test_integers_and_steps(self):
        k = np.arange(-5000, 5001)
        assert_rows_match(np.concatenate([k, k / 8, k / 10, k / 1000]))

    def test_integers_beyond_two_to_the_53(self):
        start = 2**53 - 1000
        big = np.arange(start, start + 3000, dtype=np.int64).astype(float)
        assert_rows_match(np.concatenate([big, big * 1024, [2.0**63, 1e17, 1e18]]))

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
        assert_rows_match(neighbours(np.concatenate([twos, tens])))

    def test_zeros_subnormals_and_non_finite_values(self):
        subnormals = np.random.default_rng(1).integers(
            1, 2**52, size=2000, dtype=np.int64).view(np.float64)
        assert_rows_match(np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308], subnormals, -subnormals]))

    def test_notation_boundaries(self):
        # repr switches to scientific notation below 1e-4 and from 1e16 on
        edges = [1e-4, 1e-5, 0.00011, 9.9999e-5, 1e15, 1e16, 9999999999999998.0,
                 1.2345678901234567e16, 123456789012345678.0]
        assert_rows_match(neighbours(edges))

    def test_wide_magnitudes(self):
        rng = np.random.default_rng(2)
        values = (rng.standard_normal(20_000)
                  * 10.0 ** rng.integers(-320, 308, 20_000))
        assert_rows_match(values)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 1), (1, 7), (4, 5)])
    def test_rows_end_in_newlines(self, shape):
        block = np.arange(np.prod(shape), dtype=float).reshape(shape) / 3.0
        assert _floatcsv.csv_rows(block) == repr_rows(block)

    def test_empty_block(self):
        assert _floatcsv.csv_rows(np.zeros((0, 3))) == b""

    def test_a_decade_estimate_off_by_one_is_moved(self, monkeypatch):
        # log10 of a double next to a power of ten may round across it;
        # here every cell's estimate is made one decade low, right or high
        values = neighbours(np.concatenate([
            [float(f"1e{e}") for e in range(-270, 271)],
            np.random.default_rng(4).standard_normal(1000)]))
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda v: log10(v)
                            + np.arange(v.size) % 3 - 1.0)
        assert_rows_match(values)

    def test_scientific_notation_takes_the_machine_path(self):
        # a series in small units must not fall back to repr cell by cell
        x = np.random.default_rng(3).standard_normal(10_000) * 1e-6
        exact = _floatcsv._shortest(x)[2]
        assert exact.mean() > 0.999
        assert_rows_match(x)
