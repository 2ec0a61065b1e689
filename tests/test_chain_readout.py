"""Exact QUDO readout by a min-sum pass over the cost tables, with nothing densified.

A damped chain state's largest amplitude is its least cost, so exact
``solve_qudo`` finds it in cost space.  It must return what the brute-force
oracle returns, the lexicographically smallest configuration of least cost,
with the same cost bits, at any ``n``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttkit.optimize
import ttkit.tt
from ttkit.optimize import QudoProblem, brute_force_qudo, solve_qudo

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from checks import check_qudo, qudo_optimum  # noqa: E402


@st.composite
def tied_problems(draw):
    """Small-integer costs, which tie often, and at most one huge entry."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    local = rng.integers(0, 3, (n, d)).astype(float)
    coupling = rng.integers(0, 3, (n - 1, d, d)).astype(float)
    big = draw(st.sampled_from([None, 2.0**63, 1e308]))
    if big is not None:
        tables = local if n == 1 or draw(st.booleans()) else coupling
        tables.flat[draw(st.integers(0, tables.size - 1))] = big
    return QudoProblem(tuple(local), tuple(coupling))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tied_problems())
def test_readout_is_the_oracles_answer(problem):
    sol, want = solve_qudo(problem), brute_force_qudo(problem)
    assert sol.configuration == want.configuration
    assert sol.cost.hex() == want.cost.hex()


def test_long_chain_solves_to_the_dp_optimum():
    rng = np.random.default_rng(7)
    v, w = list(rng.random((1024, 6))), list(rng.random((1023, 6, 6)))
    sol = solve_qudo(QudoProblem(tuple(v), tuple(w)))
    optimum, config = qudo_optimum(v, w)
    assert check_qudo(v, w, sol.configuration, sol.cost, optimum) is None
    assert sol.configuration == config


def test_exact_readout_densifies_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact QUDO readout densified its state")

    monkeypatch.setattr(ttkit.tt, "tt_to_dense", refuse)
    monkeypatch.setattr(ttkit.optimize, "tt_to_dense", refuse)
    rng = np.random.default_rng(3)
    problem = QudoProblem(tuple(rng.random((40, 3))), tuple(rng.random((39, 3, 3))))
    assert len(solve_qudo(problem).configuration) == 40
    with pytest.raises(AssertionError):
        ttkit.optimize.readout_exact(ttkit.optimize.ite_state(problem))
