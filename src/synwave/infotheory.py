"""Entropy, mutual information, and mutual redundancy over categorical data.

All measures are in bits and operate on dense joint probability tables.
For a variable subset S of size n:

    H(S) = -sum_s p(s) log2 p(s)
    T(S) = sum over nonempty U subset of S of (-1)^(|U|+1) H(U)
    R(S) = (-1)^(n-1) T(S)

T is ordinary mutual information for n = 2 (nonnegative) and
configurational information for n >= 3, where either sign may occur.
R flips the sign on even n so that negative R consistently reads as a
net reduction of joint uncertainty (synergy between the variables) and
positive R as net added variation.

Every entropy here comes from one formula over cell counts c summing to
w, H = log2(w) - sum c log2(c) / w with empty cells dropped (one helper
gives c log2 c; a probability table is the case w = 1), and every table
is built from one row encoder that indexes categories by first
appearance.

``synergy_indicator`` evaluates R over a sliding window of an event
stream, producing a time-resolved series. It is a sliding-count engine:
each distinct row of the stream is encoded once into integer codes, and
each nonempty sub-subset gets one mixed-radix key per distinct row,
renumbered densely and gathered to the events. A window holds at most
``window`` events of a cell, so a count fits in b bits, the bit length
of the window, and one 64-bit running sum carries g = 63 // b cells in
separate bit fields. Each group of g cells costs one pass: a weight
2^(b i) for the group's i-th cell gathered to the events, its cumulative
sum (which may wrap modulo 2^64), and one difference over every window as
two strided slices, exact and below 2^63. Each cell then costs its field
shifted down and masked, a lookup of c log2 c for each count in a table
for 0..window, and an add into the sub-subset's sum, in cell order. No
table is built per window and memory stays O(N) per sub-subset.
Relabelling the categories inside a window cannot change an entropy, so
the series equals a per-window recompute up to rounding. For N events
and K observed cells per marginal the cost is
O((2^n - 1) (ceil(K / g) N + K N / stride)).
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

_PROB_SUM_TOL = 1e-12


def _label_axes(variables: tuple, subset: tuple) -> tuple[int, ...]:
    """Positions of the ``subset`` labels in ``variables``, after checking
    that neither repeats a label and that every subset label is known."""
    if len(variables) != len(set(variables)):
        raise ValueError("duplicate variable labels")
    if len(subset) != len(set(subset)):
        raise ValueError("repeated variable in subset")
    missing = [v for v in subset if v not in variables]
    if missing:
        raise ValueError(f"unknown variable labels: {missing}")
    return tuple(variables.index(v) for v in subset)


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Dense joint distribution over named categorical variables.

    ``probabilities`` has one axis per variable, in ``variables`` order.
    """

    variables: tuple[str, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        variables = tuple(self.variables)
        probs = np.asarray(self.probabilities, dtype=float)
        _label_axes(variables, ())
        if probs.ndim != len(variables):
            raise ValueError(
                f"probabilities have {probs.ndim} axes for {len(variables)} variables"
            )
        if probs.size == 0:
            raise ValueError("empty probability table")
        if np.any(probs < 0.0):
            raise ValueError("negative probability")
        total = float(probs.sum())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        probs = probs.copy()
        probs.flags.writeable = False
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "probabilities", probs)


@dataclass(frozen=True)
class InformationReport:
    """Entropy, mutual information, and redundancy of one variable subset."""

    subset: tuple[str, ...]
    entropy_bits: float
    mutual_information_bits: float | None
    redundancy_bits: float | None

    def to_dict(self) -> dict:
        return {
            "subset": list(self.subset),
            "n": len(self.subset),
            "H": self.entropy_bits,
            "T": self.mutual_information_bits,
            "R": self.redundancy_bits,
        }


@dataclass(frozen=True)
class RedundancySeries:
    """Windowed mutual redundancy over an event stream."""

    window_starts: np.ndarray
    redundancy_bits: np.ndarray


def _encode_rows(rows, arity: int
                 ) -> tuple[np.ndarray, np.ndarray, tuple[tuple, ...]]:
    """Each distinct row's integer codes, each row's distinct-row index,
    and the labels the codes index.

    A row is looked up once, whole. Categories are indexed by first
    appearance, independently in each column; a label's first appearance
    is also its row's, so encoding the distinct rows in order of first
    appearance numbers every column as the rows themselves would. The
    first row of a wrong arity is reported before anything is counted.
    """
    index: dict = {}
    inverse = np.array([index.setdefault(tuple(row), len(index))
                        for row in rows], dtype=np.intp)
    distinct = list(index)
    for row in distinct:
        if len(row) != arity:
            raise ValueError(
                f"row arity {len(row)} does not match {arity} variables"
            )
    codes = np.empty((len(distinct), arity), dtype=np.int64)
    categories = []
    for j in range(arity):
        labels: dict = {}
        codes[:, j] = [labels.setdefault(row[j], len(labels))
                       for row in distinct]
        categories.append(tuple(labels))
    return codes, inverse, tuple(categories)


def _integer(value, name: str) -> int:
    """``value`` as a Python int, or a TypeError that names the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, not "
                        f"{type(value).__name__}") from None


def _c_log2_c(counts) -> np.ndarray:
    """c log2(c) per cell, with 0 log2(0) = 0."""
    counts = np.asarray(counts, dtype=float)
    return counts * np.log2(np.where(counts > 0.0, counts, 1.0))


def _entropy_bits(sum_c_log2_c, total):
    """H = log2(total) - sum c log2(c) / total in bits, from that sum."""
    return np.log2(total) - sum_c_log2_c / total


def _redundancy_sign(n: int) -> float:
    """The (-1)^(n-1) that turns T into R for an n-variable subset."""
    return 1.0 if (n - 1) % 2 == 0 else -1.0


def _interaction_information(subset: tuple, entropy_of):
    """T(S) = sum over nonempty U of (-1)^(|U|+1) entropy_of(U)."""
    total = 0.0
    for size in range(1, len(subset) + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for combo in itertools.combinations(subset, size):
            total += sign * entropy_of(combo)
    return total


def from_observations(rows, variables) -> ProbabilityTable:
    """Estimate a joint table from categorical observations.

    Probabilities are relative frequencies, one axis entry per category
    in order of first appearance.
    """
    rows = list(rows)
    variables = tuple(variables)
    if not rows:
        raise ValueError("no observations")
    codes, inverse, categories = _encode_rows(rows, len(variables))
    counts = np.zeros(tuple(len(c) for c in categories), dtype=float)
    counts[tuple(codes.T)] = np.bincount(inverse)
    return ProbabilityTable(variables, counts / counts.sum())


def entropy(table: ProbabilityTable, subset) -> float:
    """Joint Shannon entropy of ``subset`` in bits, with 0 log 0 = 0.

    The marginal keeps the table's axis order, whatever the subset's."""
    keep = _label_axes(table.variables, tuple(subset))
    if not keep:
        raise ValueError("empty subset")
    drop = tuple(i for i in range(len(table.variables)) if i not in keep)
    p = table.probabilities.sum(axis=drop).ravel()
    return float(_entropy_bits(_c_log2_c(p).sum(), 1.0))


def mutual_information(table: ProbabilityTable, subset) -> float:
    """Mutual (n = 2) or configurational (n >= 3) information in bits.

    Alternating inclusion-exclusion over the subset's joint entropies:
    T(S) = sum over nonempty U of (-1)^(|U|+1) H(U), e.g.
    T12 = H1 + H2 - H12 and T123 = H1 + H2 + H3 - H12 - H13 - H23 + H123.
    """
    subset = tuple(subset)
    if len(subset) < 2:
        raise ValueError("mutual information needs at least two variables")
    return _interaction_information(subset, lambda combo: entropy(table, combo))


def mutual_redundancy(table: ProbabilityTable, subset) -> float:
    """Signed redundancy R = (-1)^(n-1) T; negative values signal synergy."""
    subset = tuple(subset)
    return _redundancy_sign(len(subset)) * mutual_information(table, subset)


def information_report(table: ProbabilityTable, subset) -> InformationReport:
    """Bundle H, T, and R for one subset (T and R are None for n = 1)."""
    subset = tuple(subset)
    h = entropy(table, subset)
    if len(subset) >= 2:
        t = mutual_information(table, subset)
        r = _redundancy_sign(len(subset)) * t
    else:
        t = None
        r = None
    return InformationReport(subset, h, t, r)


def synergy_indicator(stream, variables, subset, window: int, stride: int) -> RedundancySeries:
    """Sliding-window mutual redundancy over an event stream.

    Windows are half-open ``[start, start + window)``, advanced by
    ``stride``; an incomplete tail window is dropped. The whole input is
    validated before anything is counted, including rows that fall in
    the dropped tail or between strided windows. Each window's R over
    ``subset`` comes from sliding cell counts (see the module docstring).
    """
    variables = tuple(variables)
    subset = tuple(subset)
    window = _integer(window, "window")
    stride = _integer(stride, "stride")
    if window < 8:
        raise ValueError("window must be at least 8 samples")
    if stride < 1:
        raise ValueError("stride must be positive")
    _label_axes(variables, subset)
    if len(subset) < 2:
        raise ValueError("mutual redundancy needs at least two variables")
    codes, inverse, categories = _encode_rows(stream, len(variables))
    n_events = len(inverse)
    if window > n_events:
        raise ValueError(
            f"window of {window} exceeds stream length {n_events}"
        )
    starts = np.arange(0, n_events - window + 1, stride)
    last = int(starts[-1])
    c_log2_c = _c_log2_c(np.arange(window + 1))
    # `per_sum` cells per wrapping running sum, one `bits`-bit field each;
    # a window's difference is exact and below 2**63, so it reads as int64
    bits = window.bit_length()
    per_sum = 63 // bits
    mask = (1 << bits) - 1
    cumulative = np.zeros(n_events + 1, dtype=np.uint64)

    def window_entropy(combo):
        # mixed-radix key per distinct row, renumbered densely after each
        # digit, then gathered to the events
        key = np.zeros(len(codes), dtype=np.int64)
        for label in combo:
            j = variables.index(label)
            cells, key = np.unique(key * len(categories[j]) + codes[:, j],
                                   return_inverse=True)
        key = key[inverse]
        acc = np.zeros(len(starts))
        for first in range(0, len(cells), per_sum):
            shifts = range(0, bits * min(per_sum, len(cells) - first), bits)
            weight = np.zeros(len(cells), dtype=np.uint64)
            weight[first:first + len(shifts)] = [1 << s for s in shifts]
            np.cumsum(weight[key], out=cumulative[1:])
            # cumulative[s + window] - cumulative[s] for every start s
            fields = (cumulative[window:last + window + 1:stride]
                      - cumulative[:last + 1:stride]).view(np.int64)
            for shift in shifts:
                acc += c_log2_c[(fields >> shift) & mask]
        return _entropy_bits(acc, window)

    values = _redundancy_sign(len(subset)) * _interaction_information(
        subset, window_entropy)
    return RedundancySeries(
        window_starts=starts,
        redundancy_bits=np.asarray(values, dtype=float),
    )
