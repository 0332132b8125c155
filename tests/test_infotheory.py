import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synwave import infotheory as it

from conftest import oracle_mutual_information, random_table

XOR_ROWS = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


def encode_oracle(rows):
    """Codes of every row, one column at a time, by first appearance."""
    columns = []
    categories = []
    for column in zip(*rows):
        index: dict = {}
        columns.append([index.setdefault(v, len(index)) for v in column])
        categories.append(tuple(index))
    return np.array(columns, dtype=np.int64).T, tuple(categories)


def synergy_oracle(stream, variables, subset, window, stride):
    """The sliding counts one cell at a time over per-event codes: window
    counts gathered at every window's ends and c log2 c taken per cell,
    summed in cell order, sub-subsets in ``itertools.combinations`` order."""
    codes, categories = encode_oracle([tuple(row) for row in stream])
    n_events = len(codes)
    starts = np.arange(0, n_events - window + 1, stride)
    cumulative = np.zeros(n_events + 1, dtype=np.int64)

    def window_entropy(combo):
        key = np.zeros(n_events, dtype=np.int64)
        for label in combo:
            j = variables.index(label)
            cells, key = np.unique(key * len(categories[j]) + codes[:, j],
                                   return_inverse=True)
        acc = 0.0
        for cell in range(len(cells)):
            np.cumsum(key == cell, out=cumulative[1:])
            counts = (cumulative[starts + window]
                      - cumulative[starts]).astype(float)
            positive = np.where(counts > 0.0, counts, 1.0)
            acc = acc + counts * np.log2(positive)
        return np.log2(window) - acc / window

    total = 0.0
    for size in range(1, len(subset) + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for combo in itertools.combinations(subset, size):
            total += sign * window_entropy(combo)
    return starts, (1.0 if len(subset) % 2 == 1 else -1.0) * total


def xor_table():
    return it.from_observations(XOR_ROWS, ("x", "y", "z"))


class TestFromObservations:
    def test_two_joint_states(self):
        table = it.from_observations(
            [("a", "x"), ("a", "x"), ("b", "y"), ("b", "y")], ("u", "v"))
        assert table.probabilities.shape == (2, 2)
        assert table.probabilities[0, 0] == 0.5
        assert table.probabilities[1, 1] == 0.5
        assert table.probabilities[0, 1] == 0.0

    def test_single_observation(self):
        table = it.from_observations([("a", "x")], ("u", "v"))
        assert table.probabilities.shape == (1, 1)
        assert table.probabilities[0, 0] == 1.0

    def test_seeded_uniform_sampling(self):
        rng = np.random.default_rng(5)
        rows = list(zip(rng.integers(0, 2, 1000).tolist(),
                        rng.integers(0, 2, 1000).tolist()))
        table = it.from_observations(rows, ("a", "b"))
        assert np.abs(table.probabilities - 0.25).max() < 0.05

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            it.from_observations([], ("a",))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            it.from_observations([("a", "x"), ("b",)], ("u", "v"))


class TestEntropy:
    def test_uniform_binary_marginal(self):
        table = it.from_observations(
            [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")], ("u", "v"))
        assert it.entropy(table, ("u",)) == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_marginal(self):
        table = it.from_observations([("a", "x"), ("a", "y")], ("u", "v"))
        assert it.entropy(table, ("u",)) == 0.0

    def test_uniform_four_joint_states(self):
        table = it.from_observations(
            [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")], ("u", "v"))
        assert it.entropy(table, ("u", "v")) == pytest.approx(2.0, abs=1e-12)

    def test_unknown_label_rejected(self):
        table = it.from_observations([("a", "x")], ("u", "v"))
        with pytest.raises(ValueError):
            it.entropy(table, ("u", "w"))


class TestMutualInformation:
    def test_independent_pair_is_zero(self):
        probs = np.full((2, 2), 0.25)
        table = it.ProbabilityTable(("a", "b"), probs)
        assert it.mutual_information(table, ("a", "b")) == pytest.approx(
            0.0, abs=1e-12)

    def test_skewed_pair_value(self):
        table = it.ProbabilityTable(
            ("a", "b"), np.array([[0.4, 0.1], [0.1, 0.4]]))
        assert it.mutual_information(table, ("a", "b")) == pytest.approx(
            0.2780719051126377, abs=1e-9)

    def test_xor_triple_is_minus_one(self):
        assert it.mutual_information(xor_table(), ("x", "y", "z")) == (
            pytest.approx(-1.0, abs=1e-12))

    def test_pair_required(self):
        with pytest.raises(ValueError):
            it.mutual_information(xor_table(), ("x",))


class TestMutualRedundancy:
    def test_correlated_pair(self):
        table = it.from_observations(
            [("a", "x"), ("a", "x"), ("b", "y"), ("b", "y")], ("u", "v"))
        assert it.mutual_redundancy(table, ("u", "v")) == pytest.approx(
            -1.0, abs=1e-12)

    def test_xor_triple_keeps_sign(self):
        assert it.mutual_redundancy(xor_table(), ("x", "y", "z")) == (
            pytest.approx(-1.0, abs=1e-12))

    def test_four_independent_variables(self):
        probs = np.full((2, 2, 2, 2), 1.0 / 16.0)
        table = it.ProbabilityTable(("a", "b", "c", "d"), probs)
        assert it.mutual_redundancy(table, ("a", "b", "c", "d")) == (
            pytest.approx(0.0, abs=1e-10))


class TestSynergyIndicator:
    def test_stationary_xor_stream(self):
        rng = np.random.default_rng(23)
        x1 = rng.integers(0, 2, 512)
        x2 = rng.integers(0, 2, 512)
        stream = list(zip(x1.tolist(), x2.tolist(), (x1 ^ x2).tolist()))
        series = it.synergy_indicator(stream, ("a", "b", "c"),
                                      ("a", "b", "c"), window=64, stride=16)
        assert series.window_starts[0] == 0
        assert np.all(np.abs(series.redundancy_bits + 1.0) < 0.1)

    def test_independent_uniform_stream(self):
        rng = np.random.default_rng(9)
        stream = list(zip(rng.integers(0, 2, 2048).tolist(),
                          rng.integers(0, 2, 2048).tolist()))
        series = it.synergy_indicator(stream, ("a", "b"), ("a", "b"),
                                      window=256, stride=64)
        assert np.abs(series.redundancy_bits).max() < 0.15

    def test_stream_shorter_than_window(self):
        stream = [(0, 0)] * 16
        with pytest.raises(ValueError):
            it.synergy_indicator(stream, ("a", "b"), ("a", "b"),
                                 window=32, stride=1)

    def test_tail_window_dropped(self):
        stream = [(0, 1)] * 20
        series = it.synergy_indicator(stream, ("a", "b"), ("a", "b"),
                                      window=8, stride=8)
        assert series.window_starts.tolist() == [0, 8]

    @pytest.mark.parametrize("stream, subset, stride", [
        # ragged row in the dropped tail (windows cover rows 0..15 only)
        ([(0, 1)] * 19 + [(0, 1, 2)], ("a", "b"), 8),
        # ragged row in the stride gap between windows [0, 8) and [16, 24)
        ([(0, 1)] * 10 + [(0,)] + [(0, 1)] * 13, ("a", "b"), 16),
        ([(0, 1)] * 24, ("a", "c"), 8),
        ([(0, 1)] * 24, ("a", "a"), 8),
        ([(0, 1)] * 24, ("a",), 8),
    ], ids=["ragged-tail-row", "ragged-gap-row", "unknown-label",
            "repeated-label", "too-few-labels"])
    def test_bad_input_rejected_up_front(self, stream, subset, stride):
        with pytest.raises(ValueError):
            it.synergy_indicator(stream, ("a", "b"), subset,
                                 window=8, stride=stride)

    def test_duplicate_variable_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate variable"):
            it.synergy_indicator([(0, 1)] * 16, ("a", "a"), ("a", "a"),
                                 window=8, stride=1)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sliding_counts_match_per_window_recompute(data):
    n_vars = data.draw(st.integers(2, 4), label="n_vars")
    cards = data.draw(st.lists(st.integers(1, 4), min_size=n_vars,
                               max_size=n_vars), label="cards")
    n_events = data.draw(st.integers(8, 60), label="n_events")
    stream = [tuple(data.draw(st.integers(0, c - 1)) for c in cards)
              for _ in range(n_events)]
    variables = tuple(f"v{i}" for i in range(n_vars))
    subset = tuple(data.draw(st.permutations(variables), label="order")[
        :data.draw(st.integers(2, n_vars), label="size")])
    window = data.draw(st.integers(8, n_events), label="window")
    stride = data.draw(st.integers(1, n_events), label="stride")

    series = it.synergy_indicator(stream, variables, subset, window, stride)
    starts = list(range(0, n_events - window + 1, stride))
    assert series.window_starts.tolist() == starts
    want = [it.mutual_redundancy(
        it.from_observations(stream[s:s + window], variables), subset)
        for s in starts]
    np.testing.assert_allclose(series.redundancy_bits, want, rtol=0.0,
                               atol=1e-12)

    relabelled = [tuple(f"c{cards[j] - 1 - v}" for j, v in enumerate(row))
                  for row in stream]
    again = it.synergy_indicator(relabelled, variables, subset, window,
                                 stride)
    np.testing.assert_array_equal(again.window_starts, series.window_starts)
    np.testing.assert_array_equal(again.redundancy_bits,
                                  series.redundancy_bits)


def assert_equals_the_oracle(stream, variables, subset, window, stride):
    series = it.synergy_indicator(stream, variables, subset, window, stride)
    starts, values = synergy_oracle(stream, variables, subset, window,
                                    stride)
    np.testing.assert_array_equal(series.window_starts, starts)
    np.testing.assert_array_equal(series.redundancy_bits, values)


LABELS = st.one_of(st.integers(-3, 9), st.text("ab", min_size=1, max_size=2))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_synergy_indicator_equals_the_per_cell_oracle_exactly(data):
    n_vars = data.draw(st.integers(2, 4), label="n_vars")
    labels = [data.draw(st.lists(LABELS, min_size=1, max_size=8, unique=True),
                        label=f"labels{j}") for j in range(n_vars)]
    n_events = data.draw(st.integers(8, 200), label="n_events")
    # rows from a seeded generator: hypothesis's own lists shrink towards
    # few cells, where the order of the per-cell adds seldom shows
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1),
                                          label="seed"))
    stream = list(zip(*(rng.choice(np.array(column, dtype=object), n_events)
                        for column in labels)))
    variables = tuple(f"v{i}" for i in range(n_vars))
    subset = tuple(data.draw(st.permutations(variables), label="order")[
        :data.draw(st.integers(2, n_vars), label="size")])
    window = data.draw(st.integers(8, n_events), label="window")
    stride = data.draw(st.integers(1, n_events + 3), label="stride")
    assert_equals_the_oracle(stream, variables, subset, window, stride)


def test_window_8_packs_fifteen_cells_per_sum_and_wraps():
    # every (a, b) pair once, in order, so pair (a, b) is joint cell
    # 5a + b; then 3,000 seeded events that put two in five on cell 14
    rng = np.random.default_rng(4)
    pairs = [(a, b) for a in range(5) for b in range(5)]
    drawn = np.where(rng.random(3000) < 0.4, 14, rng.integers(0, 25, 3000))
    stream = pairs + [pairs[i] for i in drawn.tolist()]
    variables = ("a", "b")
    # the 25 joint cells split 15 + 10 over two sums of 4-bit fields; cell
    # 14 takes the top field of the first, at bit 56, and its running sum
    # passes 2**64
    assert stream.count(pairs[14]) >= 2**64 >> 56
    for stride in (1, 3):
        assert_equals_the_oracle(stream, variables, variables, 8, stride)


@pytest.mark.parametrize("window", [63, 64, 127, 128])
def test_a_field_holds_a_whole_window(window):
    # 4 x 4 x 3 labels, so marginals of up to 48 cells fill several sums
    # at every field width; a constant run fills one cell for a whole
    # window
    rng = np.random.default_rng(window)
    stream = list(zip(rng.integers(0, 4, 700).tolist(),
                      rng.integers(0, 4, 700).tolist(),
                      rng.integers(0, 3, 700).tolist()))
    stream[200:200 + window + 30] = [(3, 1, 2)] * (window + 30)
    variables = ("a", "b", "c")
    for subset in (variables, ("c", "a")):
        for stride in (1, 5):
            assert_equals_the_oracle(stream, variables, subset, window,
                                     stride)


def test_one_window_over_the_whole_stream_with_a_stride():
    rng = np.random.default_rng(11)
    stream = list(zip(rng.integers(0, 6, 300).tolist(),
                      rng.integers(0, 5, 300).tolist()))
    for stride in (2, 7, 301):
        assert_equals_the_oracle(stream, ("a", "b"), ("b", "a"), 300, stride)


def test_window_and_stride_take_any_integer():
    rng = np.random.default_rng(2)
    stream = list(zip(rng.integers(0, 3, 200).tolist(),
                      rng.integers(0, 3, 200).tolist()))
    want = it.synergy_indicator(stream, ("a", "b"), ("a", "b"), 8, 3)
    for window, stride in ((np.int64(8), np.int64(3)), (np.int32(8), 3),
                           (8, np.uint8(3))):
        got = it.synergy_indicator(stream, ("a", "b"), ("a", "b"), window,
                                   stride)
        np.testing.assert_array_equal(got.window_starts, want.window_starts)
        np.testing.assert_array_equal(got.redundancy_bits,
                                      want.redundancy_bits)


@pytest.mark.parametrize("window, stride, name", [
    (8.0, 1, "window"), (8, 1.5, "stride")])
def test_non_integer_window_or_stride_rejected(window, stride, name):
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        it.synergy_indicator([(0, 1)] * 16, ("a", "b"), ("a", "b"),
                             window, stride)


def test_encoder_matches_the_per_column_oracle():
    nan, other_nan = float("nan"), float("nan")
    rows = [(1.0, "a", nan), (True, "b", nan), ("1", "a", other_nan),
            (1, "b", nan), (1.0, "a", nan), (2, "c", other_nan)]
    codes, inverse, categories = it._encode_rows(rows, 3)
    want_codes, want_categories = encode_oracle(rows)
    np.testing.assert_array_equal(codes[inverse], want_codes)
    assert len(codes) == len(set(map(tuple, codes.tolist()))) == 4
    assert [len(c) for c in categories] == [3, 3, 2]
    # 1, 1.0 and True share the code of the first object seen, 1.0
    assert want_codes[:, 0].tolist() == [0, 0, 1, 0, 0, 2]
    for got, want in zip(categories, want_categories):
        assert all(g is w for g, w in zip(got, want))
    assert type(categories[0][0]) is float
    # one NaN object repeated keeps one code; a second NaN object is new
    assert want_codes[:, 2].tolist() == [0, 0, 1, 0, 0, 1]
    assert categories[2][0] is nan and categories[2][1] is other_nan


class TestTableValidation:
    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError):
            it.ProbabilityTable(("a",), np.array([1.1, -0.1]))

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError):
            it.ProbabilityTable(("a",), np.array([0.7, 0.2]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pair_information_nonnegative(seed):
    table = random_table(np.random.default_rng(seed), max_vars=2)
    assert it.mutual_information(table, table.variables) >= -1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sign_alternation_exact(seed):
    table = random_table(np.random.default_rng(seed))
    n = len(table.variables)
    t_value = it.mutual_information(table, table.variables)
    r_value = it.mutual_redundancy(table, table.variables)
    assert r_value == (-1.0) ** (n - 1) * t_value


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
def test_outer_product_independence(seed, n):
    rng = np.random.default_rng(seed)
    marginals = []
    for _ in range(n):
        m = rng.random(int(rng.integers(2, 4)))
        marginals.append(m / m.sum())
    probs = marginals[0]
    for m in marginals[1:]:
        probs = np.multiply.outer(probs, m)
    probs = probs / probs.sum()
    table = it.ProbabilityTable(tuple(f"v{i}" for i in range(n)), probs)
    assert abs(it.mutual_information(table, table.variables)) < 1e-10


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    table = random_table(rng, max_vars=4)
    subset = table.variables
    base_t = it.mutual_information(table, subset)
    base_h = it.entropy(table, subset)

    reordered = tuple(rng.permutation(subset))
    assert it.mutual_information(table, reordered) == pytest.approx(
        base_t, abs=1e-12)
    # the marginal keeps the table's axis order, so H is exactly equal
    assert it.entropy(table, reordered) == base_h

    # relabeling categories = permuting the table along one axis
    axis = int(rng.integers(0, len(subset)))
    perm = rng.permutation(table.probabilities.shape[axis])
    shuffled = it.ProbabilityTable(
        subset, np.take(table.probabilities, perm, axis=axis))
    assert it.mutual_information(shuffled, subset) == pytest.approx(
        base_t, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_brute_force_oracle_agreement(seed):
    table = random_table(np.random.default_rng(seed))
    got = it.mutual_information(table, table.variables)
    want = oracle_mutual_information(table, table.variables)
    assert got == pytest.approx(want, abs=1e-12)


def test_information_report_round_trips_to_json_schema():
    report = it.information_report(xor_table(), ("x", "y", "z"))
    payload = report.to_dict()
    assert payload["n"] == 3
    assert set(payload) == {"subset", "n", "H", "T", "R"}
    single = it.information_report(xor_table(), ("x",))
    assert single.mutual_information_bits is None
    assert single.to_dict()["R"] is None
