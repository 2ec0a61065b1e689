"""Implicit product feature maps and their contraction with operator trains."""

import numpy as np
import pytest

from ttkit.errors import CapacityError, DimensionError, NumericalError
from ttkit.kernels import (
    ProductState,
    SiteKernel,
    apply_mpo_to_product,
    cosine_kernel,
    product_feature_map,
    product_kernel,
)
from ttkit.tt import (
    DENSE_CAP_DEFAULT,
    TensorTrainOperator,
    identity_mpo,
    mpo_to_matrix,
    tt_to_dense,
)

from oracles import dense_outer, outer_reduce


def random_mpo(rng, n, din, dout_list, bond):
    bonds = [1] + [bond] * (n - 1) + [1]
    return TensorTrainOperator(
        [
            rng.normal(size=(bonds[i], din, dout_list[i], bonds[i + 1]))
            for i in range(n)
        ]
    )


class TestFeatureMap:
    def test_all_ones_input(self):
        ps = product_feature_map([1.0, 1.0, 1.0], [product_kernel()] * 3)
        assert np.array_equal(ps.to_dense(), np.ones((2, 2, 2)))

    def test_two_component_entries(self):
        # component 0 carries the input value, component 1 the constant
        ps = product_feature_map([2.0, 3.0], [product_kernel()] * 2)
        dense = ps.to_dense()
        assert dense[0, 0] == 6.0
        assert dense[0, 1] == 2.0
        assert dense[1, 0] == 3.0
        assert dense[1, 1] == 1.0

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(60)
        x = rng.normal(size=10)
        ps = product_feature_map(x, [product_kernel()] * 10)
        want = dense_outer([list(v) for v in ps.vectors])
        assert np.allclose(ps.to_dense(), want, rtol=1e-13)

    def test_to_dense_matches_the_outer_product_fold(self):
        rng = np.random.default_rng(68)
        kinds = [product_kernel(), cosine_kernel(), SiteKernel(3, lambda x: (x, x * x, 1.0))]
        for n in (1, 2, 5, 12):
            kernels = [kinds[k % 3] for k in range(n)]
            ps = product_feature_map(rng.normal(size=n), kernels)
            want = outer_reduce(ps.vectors)
            got = ps.to_dense()
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-15, atol=0.0)

    def test_to_tt_agrees(self):
        rng = np.random.default_rng(61)
        ps = product_feature_map(rng.normal(size=6), [product_kernel()] * 6)
        assert np.allclose(tt_to_dense(ps.to_tt()), ps.to_dense(), rtol=1e-13)

    def test_cosine_kernel_unit_vectors(self):
        k = cosine_kernel()
        for x in (0.0, 0.25, 0.5, 1.0):
            assert np.linalg.norm(k(x)) == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(k(0.0), [1.0, 0.0], atol=1e-15)
        assert np.allclose(k(1.0), [0.0, 1.0], atol=1e-15)

    def test_kernel_length_check(self):
        bad = SiteKernel(2, lambda x: (x, 1.0, 0.0))
        with pytest.raises(DimensionError):
            bad(1.0)
        with pytest.raises(DimensionError):
            product_feature_map([1.0, 2.0], [product_kernel()])
        # A matrix is not read as its flattened entries.
        with pytest.raises(DimensionError):
            product_feature_map(np.ones((2, 3)), [product_kernel()] * 6)
        # The same checks hold when the kernels run through the feature map.
        with pytest.raises(DimensionError):
            product_feature_map([1.0, 2.0, 3.0], [product_kernel(), bad, product_kernel()])
        nan = SiteKernel(2, lambda x: (x, float("nan")))
        with pytest.raises(NumericalError):
            nan(1.0)
        with pytest.raises(NumericalError):
            product_feature_map([1.0, 2.0], [product_kernel(), nan])
        # Mixed dims: each site's vector is exactly what its kernel returns alone.
        three = SiteKernel(3, lambda x: (x, x * x, 1.0))
        kernels = [three, product_kernel(), three, cosine_kernel()]
        x = [0.5, -2.0, 3.0, 0.25]
        ps = product_feature_map(x, kernels)
        assert ps.dims == (3, 2, 3, 2)
        for vec, k, xi in zip(ps.vectors, kernels, x):
            assert np.array_equal(vec, k(xi))

    def test_needs_one_site(self):
        assert ProductState((np.ones(2), np.ones(3))).n_sites == 2
        with pytest.raises(DimensionError, match="at least one site"):
            ProductState(())

    def test_dense_cap(self):
        ps = ProductState(tuple(np.ones(2) for _ in range(24)))
        with pytest.raises(CapacityError):
            ps.to_dense(max_elements=2**20)


class TestApplyToProduct:
    def test_identity_returns_kernel(self):
        rng = np.random.default_rng(62)
        ps = product_feature_map(rng.normal(size=8), [product_kernel()] * 8)
        out = apply_mpo_to_product(identity_mpo(ps.dims), ps)
        assert np.allclose(out, ps.to_dense(), rtol=1e-12)

    def test_matches_dense_oracle_n10(self):
        rng = np.random.default_rng(63)
        out_dims = [2] + [1] * 8 + [2]
        op = random_mpo(rng, 10, 2, out_dims, 3)
        ps = product_feature_map(rng.normal(size=10), [product_kernel()] * 10)
        got = apply_mpo_to_product(op, ps)
        want = (mpo_to_matrix(op) @ ps.to_dense().ravel()).reshape(op.out_dims)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_n30_stays_small(self):
        rng = np.random.default_rng(64)
        out_dims = [1] * 30
        out_dims[0] = out_dims[15] = 2
        op = random_mpo(rng, 30, 2, out_dims, 3)
        ps = product_feature_map(rng.normal(size=30), [product_kernel()] * 30)
        result, trace = apply_mpo_to_product(op, ps, return_trace=True)
        assert result.size == 4
        assert max(trace) <= 10**6

    def test_trace_grows_linearly(self):
        rng = np.random.default_rng(65)
        peaks = []
        for n in (10, 20, 40):
            out_dims = [1] * n
            out_dims[0] = 3
            op = random_mpo(rng, n, 2, out_dims, 3)
            ps = product_feature_map(rng.normal(size=n), [product_kernel()] * n)
            _, trace = apply_mpo_to_product(op, ps, return_trace=True)
            peaks.append(max(trace))
            assert len(trace) == 2 * n
        # fixed output size and bond: the peak does not grow with n
        assert peaks[0] == peaks[1] == peaks[2]

    def test_affine_in_each_coordinate(self):
        # With the (x, 1) kernel the output is affine in every single input
        # component: three collinear inputs give collinear outputs.
        rng = np.random.default_rng(66)
        n = 6
        out_dims = [1] * n
        out_dims[2] = 4
        op = random_mpo(rng, n, 2, out_dims, 2)
        base = rng.normal(size=n)
        kernels = [product_kernel()] * n
        for j in range(n):
            outs = []
            for delta in (0.0, 1.0, 2.0):
                x = base.copy()
                x[j] += delta
                outs.append(
                    apply_mpo_to_product(op, product_feature_map(x, kernels)).ravel()
                )
            midpoint = 0.5 * (outs[0] + outs[2])
            assert np.allclose(outs[1], midpoint, rtol=1e-9, atol=1e-12)

    def test_refuses_outputs_over_the_dense_cap(self):
        # A bond-1 operator of 23 two-output sites has 2^23 outputs, twice
        # the cap; it is refused before any contraction.
        op = TensorTrainOperator([np.ones((1, 2, 2, 1))] * 23)
        ps = ProductState(tuple(np.ones(2) for _ in range(23)))
        assert np.prod(op.out_dims) == 2 * DENSE_CAP_DEFAULT
        with pytest.raises(CapacityError, match="cap"):
            apply_mpo_to_product(op, ps)
        # One output site fewer fits exactly.
        op = TensorTrainOperator([np.ones((1, 2, 2, 1))] * 22)
        ps = ProductState(tuple(np.ones(2) for _ in range(22)))
        assert apply_mpo_to_product(op, ps).size == DENSE_CAP_DEFAULT

    def test_dim_mismatch(self):
        rng = np.random.default_rng(67)
        op = random_mpo(rng, 3, 3, [1, 1, 1], 2)
        ps = product_feature_map(rng.normal(size=3), [product_kernel()] * 3)
        with pytest.raises(DimensionError):
            apply_mpo_to_product(op, ps)
