"""Shared builders and independent oracles for the test suite."""
import itertools
import math

import numpy as np
import pytest

from synwave.infotheory import ProbabilityTable


def random_table(rng, max_vars: int = 5, max_card: int = 4) -> ProbabilityTable:
    """Random dense table with 2..max_vars variables."""
    n = int(rng.integers(2, max_vars + 1))
    shape = tuple(int(c) for c in rng.integers(2, max_card + 1, n))
    probs = rng.random(shape)
    probs /= probs.sum()
    return ProbabilityTable(tuple(f"v{i}" for i in range(n)), probs)


def oracle_entropy(probs: np.ndarray, axes) -> float:
    """Plain-Python marginal entropy: dict accumulation over all cells."""
    marginal: dict[tuple, float] = {}
    for idx in itertools.product(*(range(s) for s in probs.shape)):
        key = tuple(idx[a] for a in axes)
        marginal[key] = marginal.get(key, 0.0) + probs[idx]
    return -sum(p * math.log2(p) for p in marginal.values() if p > 0.0)


def oracle_mutual_information(table: ProbabilityTable, subset) -> float:
    """Independent signed-entropy sum over every nonempty sub-subset."""
    axes_all = [table.variables.index(v) for v in subset]
    total = 0.0
    for size in range(1, len(subset) + 1):
        for combo in itertools.combinations(range(len(subset)), size):
            axes = [axes_all[i] for i in combo]
            total += (-1.0) ** (size + 1) * oracle_entropy(
                table.probabilities, axes)
    return total


def central_difference_jacobian(residual_fn, params: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian, step 1e-6 relative to each parameter.

    ``difference_steps(params)`` gives the steps, so a check can allow
    for the round-off of a difference quotient.
    """
    steps = difference_steps(params)
    columns = []
    for j, h in enumerate(steps):
        up = params.copy()
        up[j] += h
        down = params.copy()
        down[j] -= h
        columns.append((residual_fn(up) - residual_fn(down)) / (2.0 * h))
    return np.column_stack(columns)


def difference_steps(params: np.ndarray) -> np.ndarray:
    return 1e-6 * np.maximum(np.abs(params), 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
