"""Property tests of the exact solvers against independent dynamic programs.

The oracles are the benchmark's own (``bench/checks.py``: a chain min-sum
DP and Held-Karp), imported from there so that one copy serves both.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttkit.optimize import QudoProblem, brute_force_tsp, solve_qudo, solve_tsp
from ttkit.tt import DENSE_CAP_DEFAULT

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from checks import check_qudo, check_tour, held_karp, qudo_optimum, tour_cost  # noqa: E402


def seeded_costs(seed, shape, ties):
    # Small integer costs force many exact ties; uniform ones almost none.
    rng = np.random.default_rng(seed)
    return rng.integers(0, 3, size=shape).astype(float) if ties else rng.uniform(0.0, 10.0, shape)


@pytest.mark.parametrize(
    "variant,nodes", [("closed", n) for n in range(3, 9)] + [("open", n) for n in range(2, 8)]
)
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), ties=st.booleans())
def test_tour_is_optimal(variant, nodes, seed, ties):
    costs = seeded_costs(seed, (nodes, nodes), ties)
    sol = solve_tsp(costs, variant)
    optimum = held_karp(costs, variant)
    assert check_tour(costs, variant, sol.configuration, sol.cost, optimum, exact=True) is None
    # A tour is costed as its encoded chain, which gives the bits of its
    # legs summed in order.
    oracle = brute_force_tsp(costs, variant)
    assert sol.cost == oracle.cost == tour_cost(costs, sol.configuration, variant)


@st.composite
def qudo_problems(draw):
    """Chain problems of any cardinality up to the largest ``n`` whose d^n fits the dense cap."""
    d = draw(st.integers(2, 6))
    n_max = max(n for n in range(1, 64) if d**n <= DENSE_CAP_DEFAULT)
    return draw(st.integers(1, n_max)), d, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(qudo_problems())
@example((22, 2, 0, False))
@example((11, 4, 1, True))
@example((1, 3, 2, False))
def test_qudo_configuration_is_optimal(case):
    n, d, seed, ties = case
    v = [seeded_costs(seed + i, (d,), ties) for i in range(n)]
    w = [seeded_costs(seed + n + i, (d, d), ties) for i in range(n - 1)]
    sol = solve_qudo(QudoProblem(tuple(v), tuple(w)))
    optimum, _ = qudo_optimum(v, w)
    assert check_qudo(v, w, sol.configuration, sol.cost, optimum) is None
