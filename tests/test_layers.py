"""Matrix/vector compression and dense-layer application in train form."""

import numpy as np
import pytest

from ttkit.errors import DimensionError
from ttkit.layers import (
    CompressedLayer,
    ShapePlan,
    apply_compressed_layer,
    compress_dataset,
    compress_layer,
    matrix_to_mpo,
    vector_to_mps,
)
from ttkit.tt import (
    TensorTrain,
    TruncationPolicy,
    identity_mpo,
    mpo_to_matrix,
    truncated_svd,
    tt_to_dense,
)

EXACT = TruncationPolicy.exact()


class TestShapePlan:
    def test_balanced_factorization(self):
        plan = ShapePlan.balanced(16, 16, 4)
        assert plan.row_factors == (2, 2, 2, 2)
        assert plan.col_factors == (2, 2, 2, 2)
        plan = ShapePlan.balanced(12, 8, 3)
        assert plan.n_rows == 12 and plan.n_cols == 8

    def test_invalid(self):
        with pytest.raises(DimensionError):
            ShapePlan((2, 2), (2,))
        with pytest.raises(DimensionError):
            ShapePlan((2, 0), (2, 2))


class TestMatrixToMpo:
    def test_identity_factorizes_site_wise(self):
        plan = ShapePlan((2, 2, 2, 2), (2, 2, 2, 2))
        op = matrix_to_mpo(np.eye(16), plan, EXACT)
        assert op.bond_dims == (1, 1, 1)
        scalars = []
        for core in op.cores:
            site = core[0, :, :, 0]
            s = site[0, 0]
            assert np.allclose(site, s * np.eye(2), atol=1e-12)
            scalars.append(s)
        assert np.prod(scalars) == pytest.approx(1.0, rel=1e-10)

    def test_product_structured_rank_one_all_bonds_one(self):
        # A rank-1 matrix whose factors are themselves tensor products of
        # per-site vectors is a product operator: every bond is 1.
        rng = np.random.default_rng(40)
        u_parts = [rng.normal(size=2) for _ in range(3)]
        v_parts = [rng.normal(size=2) for _ in range(3)]
        u = np.kron(np.kron(u_parts[0], u_parts[1]), u_parts[2])
        v = np.kron(np.kron(v_parts[0], v_parts[1]), v_parts[2])
        m = np.outer(u, v)
        _, s, _, _ = truncated_svd(m, EXACT)
        assert s.size == 1
        op = matrix_to_mpo(m, ShapePlan((2, 2, 2), (2, 2, 2)), EXACT)
        assert op.bond_dims == (1, 1)

    def test_generic_rank_one_bonds_follow_factor_unfoldings(self):
        # For generic u, v the site pairing makes each unfolding a Kronecker
        # product of u's and v's own unfoldings, so the bond at link k is the
        # product of their ranks (not 1).  Ranks come from the SVD oracle.
        rng = np.random.default_rng(40)
        u = rng.normal(size=8)
        v = rng.normal(size=8)
        m = np.outer(u, v)
        _, s, _, _ = truncated_svd(m, EXACT)
        assert s.size == 1
        op = matrix_to_mpo(m, ShapePlan((2, 2, 2), (2, 2, 2)), EXACT)
        for k, bond in enumerate(op.bond_dims, start=1):
            _, su, _, _ = truncated_svd(u.reshape(2**k, -1), EXACT)
            _, sv, _, _ = truncated_svd(v.reshape(2**k, -1), EXACT)
            assert bond == su.size * sv.size
        assert np.allclose(mpo_to_matrix(op), m, rtol=1e-10, atol=1e-12)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(41)
        plan = ShapePlan((2, 2, 2), (2, 2, 2))
        for _ in range(20):
            m = rng.normal(size=(8, 8))
            op = matrix_to_mpo(m, plan, EXACT)
            back = mpo_to_matrix(op)
            assert np.linalg.norm(back - m) <= 1e-10 * np.linalg.norm(m)

    def test_rectangular_plan(self):
        rng = np.random.default_rng(42)
        m = rng.normal(size=(6, 8))
        plan = ShapePlan((2, 3), (2, 4))
        op = matrix_to_mpo(m, plan, EXACT)
        assert op.out_dims == (2, 3) and op.in_dims == (2, 4)
        assert np.allclose(mpo_to_matrix(op), m, rtol=1e-10, atol=1e-12)

    def test_plan_mismatch(self):
        with pytest.raises(DimensionError):
            matrix_to_mpo(np.eye(6), ShapePlan((2, 2), (2, 2)), EXACT)


class TestVectorToMps:
    def test_all_ones_is_product(self):
        train = vector_to_mps(np.ones(8), (2, 2, 2), EXACT)
        assert train.bond_dims == (1, 1)

    def test_basis_vector_is_product(self):
        e0 = np.zeros(8)
        e0[0] = 1.0
        train = vector_to_mps(e0, (2, 2, 2), EXACT)
        assert train.bond_dims == (1, 1)
        back = tt_to_dense(train).ravel()
        assert np.allclose(back, e0, atol=1e-14)

    def test_random_roundtrip(self):
        rng = np.random.default_rng(43)
        v = rng.normal(size=16)
        train = vector_to_mps(v, (2, 2, 2, 2), EXACT)
        assert np.linalg.norm(tt_to_dense(train).ravel() - v) <= 1e-10 * np.linalg.norm(v)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            vector_to_mps(np.ones(6), (2, 2, 2), EXACT)
        with pytest.raises(DimensionError, match="expected a vector"):
            vector_to_mps(np.ones((2, 4)), (2, 2, 2), EXACT)


class TestCompressLayer:
    def test_identity_layer_report(self):
        plan = ShapePlan((2, 2, 2, 2), (2, 2, 2, 2))
        layer, report = compress_layer(np.eye(16), np.zeros(16), plan, EXACT)
        assert report.dense_params == 16 * 17 == 272
        assert report.compressed_params == layer.weights.param_count() + layer.bias.param_count()
        assert report.compressed_params < report.dense_params
        assert report.relative_error <= 1e-12

    def test_reported_error_matches_dense_oracle(self):
        rng = np.random.default_rng(44)
        plan = ShapePlan((2, 2, 2, 2, 2), (2, 2, 2, 2, 2))
        a = rng.normal(size=(32, 32))
        c = rng.normal(size=32)
        policy = TruncationPolicy.truncated(max_bond=2)
        layer, report = compress_layer(a, c, plan, policy)
        a_hat = mpo_to_matrix(layer.weights)
        c_hat = tt_to_dense(layer.bias).ravel()
        want = np.sqrt(
            (np.sum((a - a_hat) ** 2) + np.sum((c - c_hat) ** 2))
            / (np.sum(a**2) + np.sum(c**2))
        )
        assert report.relative_error == pytest.approx(want, abs=1e-12)

    def test_error_monotone_in_bond(self):
        rng = np.random.default_rng(45)
        plan = ShapePlan((2, 2, 2), (2, 2, 2))
        a = rng.normal(size=(8, 8))
        c = rng.normal(size=8)
        errors = []
        for b in range(1, 9):
            _, report = compress_layer(a, c, plan, TruncationPolicy.truncated(max_bond=b))
            errors.append(report.relative_error)
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))

    def test_rejects_mismatched_bias(self):
        plan = ShapePlan((2, 2), (2, 2))
        with pytest.raises(DimensionError, match="bias must have length 4"):
            compress_layer(np.eye(4), np.zeros(5), plan, EXACT)
        with pytest.raises(DimensionError, match="do not match"):
            CompressedLayer(identity_mpo((2, 2)), TensorTrain([np.ones((1, 3, 1))] * 2))


class TestApplyLayer:
    def test_identity_layer(self):
        plan = ShapePlan((2, 2, 2, 2), (2, 2, 2, 2))
        layer, _ = compress_layer(np.eye(16), np.zeros(16), plan, EXACT)
        x = np.random.default_rng(46).normal(size=16)
        assert np.allclose(apply_compressed_layer(layer, x), x, rtol=1e-10, atol=1e-12)

    def test_zero_matrix_returns_bias(self):
        plan = ShapePlan((2, 2, 2), (2, 2, 2))
        c = np.random.default_rng(47).normal(size=8)
        layer, _ = compress_layer(np.zeros((8, 8)), c, plan, EXACT)
        assert np.allclose(apply_compressed_layer(layer, np.ones(8)), c, atol=1e-12)

    def test_matches_dense_layer(self):
        rng = np.random.default_rng(48)
        plan = ShapePlan((2, 2, 2, 2), (2, 2, 2, 2))
        a = rng.normal(size=(16, 16))
        c = rng.normal(size=16)
        layer, _ = compress_layer(a, c, plan, EXACT)
        for _ in range(10):
            x = rng.normal(size=16)
            want = a @ x + c
            got = apply_compressed_layer(layer, x)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_rectangular_layer(self):
        rng = np.random.default_rng(49)
        plan = ShapePlan((2, 2), (3, 2))
        a = rng.normal(size=(4, 6))
        c = rng.normal(size=4)
        layer, _ = compress_layer(a, c, plan, EXACT)
        x = rng.normal(size=6)
        assert np.allclose(apply_compressed_layer(layer, x), a @ x + c, rtol=1e-9)

    def test_truncated_layer_output_is_not_rounded(self):
        # The result is the stored layer's own A'x + c', whatever its policy.
        rng = np.random.default_rng(50)
        plan = ShapePlan((4,) * 5, (4,) * 5)
        a = rng.normal(size=(1024, 1024))
        c = rng.normal(size=1024)
        x = rng.normal(size=1024)
        for bond in (2, 4, 8):
            layer, _ = compress_layer(a, c, plan, TruncationPolicy.truncated(max_bond=bond))
            want = mpo_to_matrix(layer.weights) @ x + tt_to_dense(layer.bias).reshape(-1)
            got = apply_compressed_layer(layer, x)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_input_length_check(self):
        plan = ShapePlan((2, 2), (2, 2))
        layer, _ = compress_layer(np.eye(4), np.zeros(4), plan, EXACT)
        with pytest.raises(DimensionError):
            apply_compressed_layer(layer, np.ones(5))


class TestCompressDataset:
    def test_constant_data_compresses_hard(self):
        data = np.full((2,) * 8, 3.25)
        train, report = compress_dataset(data, (2,) * 8, EXACT)
        assert train.bond_dims == (1,) * 7
        assert report.ratio < 0.1
        assert report.relative_error <= 1e-12

    def test_white_noise_reports_truthfully(self):
        rng = np.random.default_rng(50)
        data = rng.normal(size=2**10)
        train, report = compress_dataset(data, (2,) * 10, EXACT)
        assert report.ratio >= 1.0
        assert report.relative_error <= 1e-10

    def test_low_rank_synthetic_recovers_bonds(self):
        # Data built from three product terms can need at most bond 3.
        rng = np.random.default_rng(51)
        dims = (2,) * 8
        data = np.zeros(dims)
        for _ in range(3):
            vecs = [rng.normal(size=d) for d in dims]
            term = vecs[0]
            for v in vecs[1:]:
                term = np.multiply.outer(term, v)
            data += term
        train, report = compress_dataset(data, dims, EXACT)
        assert all(b <= 3 for b in train.bond_dims)
        assert report.relative_error <= 1e-10

    def test_factor_mismatch(self):
        with pytest.raises(DimensionError):
            compress_dataset(np.ones(10), (3, 3), EXACT)
