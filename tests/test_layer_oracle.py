"""Property tests of layer and dataset compression against densified references.

The library reads a compression's error from the SVD sweep's discarded
weights; here it is measured the long way, by densifying the compressed
result, over random shape plans and policies.  The layer apply is checked
against the dense ``W' x + c'`` of the stored trains, and the report's
per-link weights against the two sweeps' ``discarded=`` lists.
"""

from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttkit.layers import (
    ShapePlan,
    apply_compressed_layer,
    compress_dataset,
    compress_layer,
    matrix_to_mpo,
    vector_to_mps,
)
from ttkit.tt import TensorTrain, TensorTrainOperator, TruncationPolicy, mpo_to_matrix, tt_to_dense

from oracles import sweep_with_list

EXACT = TruncationPolicy()


@st.composite
def policies(draw):
    """The exact policy, a bond cap, a tolerance, or both."""
    max_bond = draw(st.one_of(st.none(), st.integers(1, 3)))
    return TruncationPolicy(max_bond=max_bond, sv_tolerance=draw(st.sampled_from([0.0, 0.1])))


def seeded_layer(seed, rows, cols, kind):
    """A plan with a matrix, bias and input; ``kron`` layers have bond 1 throughout."""
    plan = ShapePlan(rows, cols)
    rng = np.random.default_rng(seed)
    if kind == "kron":
        a, c = np.ones((1, 1)), np.ones(1)
        for r, k in zip(rows, cols):
            a, c = np.kron(a, rng.normal(size=(r, k))), np.kron(c, rng.normal(size=r))
    else:
        a, c = rng.normal(size=(plan.n_rows, plan.n_cols)), rng.normal(size=plan.n_rows)
        if kind == "sparse":
            a *= rng.random(a.shape) < 0.3
            c *= rng.random(c.shape) < 0.3
    return plan, a, c, rng.normal(size=plan.n_cols)


@st.composite
def layers(draw):
    """Plans of 1-4 sites with size-1 and rectangular factors, and their data."""
    n = draw(st.integers(1, 4))
    rows = tuple(draw(st.integers(1, 4)) for _ in range(n))
    cols = tuple(draw(st.integers(1, 4)) for _ in range(n))
    kind = draw(st.sampled_from(["dense", "sparse", "kron"]))
    return seeded_layer(draw(st.integers(0, 2**32 - 1)), rows, cols, kind)


def assert_same_error(got, want):
    assert got == pytest.approx(want, rel=1e-12) or max(got, want) < 1e-12, (got, want)


class TestLayerOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(layers(), policies())
    @example(seeded_layer(30, (3,), (5,), "dense"), TruncationPolicy(max_bond=1))
    @example(seeded_layer(31, (1, 3, 1), (2, 1, 2), "dense"), EXACT)
    @example(seeded_layer(32, (2, 3), (4, 1), "sparse"), TruncationPolicy(max_bond=1))
    @example(seeded_layer(33, (2, 2, 2, 2), (3, 2, 1, 2), "kron"), EXACT)
    @example(seeded_layer(34, (2, 2, 2), (2, 2, 2), "dense"), TruncationPolicy(max_bond=1))
    @example(seeded_layer(35, (1, 1), (1, 1), "dense"), EXACT)
    def test_layer_matches_dense(self, data, policy):
        plan, a, c, x = data
        layer, report = compress_layer(a, c, plan, policy)
        a_hat = mpo_to_matrix(layer.weights)
        c_hat = tt_to_dense(layer.bias).reshape(-1)

        got = apply_compressed_layer(layer, x)
        want = a_hat @ x + c_hat
        scale = np.linalg.norm(a_hat) * np.linalg.norm(x) + np.linalg.norm(c_hat)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * scale

        ref2 = np.sum(a**2) + np.sum(c**2)
        err2 = np.sum((a - a_hat) ** 2) + np.sum((c - c_hat) ** 2)
        assert_same_error(report.relative_error, np.sqrt(err2 / ref2) if ref2 > 0 else 0.0)
        assert report.dense_params == plan.n_rows * (plan.n_cols + 1)
        if policy.max_bond is not None:
            assert max(layer.weights.bond_dims + layer.bias.bond_dims, default=1) <= policy.max_bond

        # The report lists the matrix sweep's weights, then the bias sweep's.
        op, op_weights = sweep_with_list(TensorTrainOperator, matrix_to_mpo, a, plan, policy)
        bias, bias_weights = sweep_with_list(TensorTrain, vector_to_mps, c, plan.row_factors, policy)
        assert report.link_discarded_weights == tuple(op_weights + bias_weights)
        stored = layer.weights.cores + layer.bias.cores
        assert all(np.array_equal(p, q) for p, q in zip(op.cores + bias.cores, stored))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=5),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 1.0),
        policies(),
    )
    @example([5], 36, 1.0, TruncationPolicy(max_bond=1))
    @example([1, 3, 1, 2], 37, 1.0, TruncationPolicy(max_bond=1))
    @example([2, 2, 2, 2, 2], 38, 0.2, EXACT)
    @example([3, 3], 39, 0.0, TruncationPolicy(max_bond=1))
    def test_dataset_error_matches_dense(self, dims, seed, density, policy):
        # A flat tensor, so the reshape onto the sites is part of the check.
        rng = np.random.default_rng(seed)
        size = prod(dims)
        t = rng.normal(size=size) * (rng.random(size) < density)
        train, report = compress_dataset(t, dims, policy)
        norm = np.linalg.norm(t)
        err = np.linalg.norm(tt_to_dense(train).reshape(-1) - t)
        assert_same_error(report.relative_error, err / norm if norm > 0 else 0.0)
        assert report.dense_params == size
        assert report.compressed_params == train.param_count()
