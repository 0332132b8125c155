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
w, H = log2(w) - sum c log2(c) / w with empty cells dropped (a
probability table is the case w = 1), and every table is built from one
row encoder that indexes categories by first appearance.

``synergy_indicator`` evaluates R over a sliding window of an event
stream, producing a time-resolved series. It is a sliding-count engine:
the stream is encoded once into integer codes, each nonempty sub-subset
gets one mixed-radix key per event, and every window's cell counts come
from a cumulative sum over the stream, one cell at a time. No table is
built per window. Relabelling the categories inside a window cannot
change an entropy, so the series equals a per-window recompute up to
rounding. For N events and K observed cells per marginal the cost is
O((2^n - 1) K N), independent of the window length and the stride.
"""
from __future__ import annotations

import itertools
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

    def axes_of(self, subset) -> tuple[int, ...]:
        """Axis indices of the given variable labels, in subset order."""
        return _label_axes(self.variables, tuple(subset))

    def _marginal_probabilities(self, subset) -> np.ndarray:
        """Probabilities summed over the other axes, in subset axis order."""
        subset = tuple(subset)
        if not subset:
            raise ValueError("empty subset")
        keep = self.axes_of(subset)
        drop = tuple(i for i in range(len(self.variables)) if i not in keep)
        marg = self.probabilities.sum(axis=drop) if drop else self.probabilities
        # sum() over axes preserves the original axis order; permute to subset order
        kept_order = [i for i in range(len(self.variables)) if i in keep]
        perm = [kept_order.index(i) for i in keep]
        return np.transpose(marg, perm)


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


def _encode_rows(rows, arity: int) -> tuple[np.ndarray, tuple[tuple, ...]]:
    """Integer codes, one column per variable, and the labels they index.

    Every row's arity is checked before anything is encoded. Categories
    are indexed by first appearance, independently in each column.
    """
    rows = [tuple(row) for row in rows]
    for row in rows:
        if len(row) != arity:
            raise ValueError(
                f"row arity {len(row)} does not match {arity} variables"
            )
    codes = np.empty((len(rows), arity), dtype=np.int64)
    categories = []
    for j in range(arity):
        index: dict = {}
        codes[:, j] = [index.setdefault(row[j], len(index)) for row in rows]
        categories.append(tuple(index))
    return codes, tuple(categories)


def _entropy_bits(count_blocks, total):
    """H = log2(total) - sum c log2(c) / total in bits; empty cells drop out.

    ``count_blocks`` yields arrays of cell counts with the cells on axis 0.
    Any further axis (one entry per window) is kept, so cells can be
    handed in one at a time. Probabilities are counts with total 1.
    """
    acc = 0.0
    for counts in count_blocks:
        counts = np.asarray(counts, dtype=float)
        positive = np.where(counts > 0.0, counts, 1.0)
        acc = acc + (counts * np.log2(positive)).sum(axis=0)
    return np.log2(total) - acc / total


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
    codes, categories = _encode_rows(rows, len(variables))
    counts = np.zeros(tuple(len(c) for c in categories), dtype=float)
    np.add.at(counts, tuple(codes.T), 1.0)
    return ProbabilityTable(variables, counts / counts.sum())


def entropy(table: ProbabilityTable, subset) -> float:
    """Joint Shannon entropy of ``subset`` in bits, with 0 log 0 = 0."""
    p = table._marginal_probabilities(subset).ravel()
    return float(_entropy_bits([p], 1.0))


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
    if window < 8:
        raise ValueError("window must be at least 8 samples")
    if stride < 1:
        raise ValueError("stride must be positive")
    _label_axes(variables, subset)
    if len(subset) < 2:
        raise ValueError("mutual redundancy needs at least two variables")
    codes, categories = _encode_rows(stream, len(variables))
    n_events = len(codes)
    if window > n_events:
        raise ValueError(
            f"window of {window} exceeds stream length {n_events}"
        )
    starts = np.arange(0, n_events - window + 1, stride)
    ends = starts + window
    cumulative = np.zeros(n_events + 1, dtype=np.int64)

    def window_counts(key, n_cells):
        for cell in range(n_cells):
            np.cumsum(key == cell, out=cumulative[1:])
            yield (cumulative[ends] - cumulative[starts])[np.newaxis]

    def window_entropy(combo):
        # mixed-radix key per event, renumbered densely after each digit
        key = np.zeros(n_events, dtype=np.int64)
        for label in combo:
            j = variables.index(label)
            cells, key = np.unique(key * len(categories[j]) + codes[:, j],
                                   return_inverse=True)
            n_cells = len(cells)
        return _entropy_bits(window_counts(key, n_cells), window)

    values = _redundancy_sign(len(subset)) * _interaction_information(
        subset, window_entropy)
    return RedundancySeries(
        window_starts=starts,
        redundancy_bits=np.asarray(values, dtype=float),
    )
