"""Trains and operators: decomposition, truncation, rounding, application."""

import tracemalloc

import numpy as np
import pytest

from ttkit.errors import CapacityError, DimensionError, NumericalError
from ttkit.tt import (
    TensorTrain,
    TensorTrainOperator,
    TruncationPolicy,
    apply_mpo,
    identity_mpo,
    mpo_to_dense,
    mpo_to_matrix,
    param_count_mpo,
    param_count_mps,
    truncated_svd,
    tt_add,
    tt_inner,
    tt_norm,
    tt_round,
    tt_scale,
    tt_svd,
    tt_to_dense,
)

from oracles import singular_values_via_gram

EXACT = TruncationPolicy.exact()


def random_train(rng, n, d, bond):
    bonds = [1] + [bond] * (n - 1) + [1]
    return TensorTrain(
        [rng.normal(size=(bonds[i], d, bonds[i + 1])) for i in range(n)]
    )


def random_mpo(rng, n, din, dout, bond):
    bonds = [1] + [bond] * (n - 1) + [1]
    return TensorTrainOperator(
        [rng.normal(size=(bonds[i], din, dout, bonds[i + 1])) for i in range(n)]
    )


class TestTruncatedSvd:
    def test_identity_spectrum(self):
        u, s, v, dw = truncated_svd(np.eye(4), EXACT)
        assert np.allclose(s, np.ones(4))
        assert dw == 0.0

    def test_rank_one_outer_product(self):
        a = np.array([1.0, 2.0, 2.0])
        b = np.array([3.0, 4.0])
        u, s, v, dw = truncated_svd(np.outer(a, b), EXACT)
        assert s.size == 1
        assert s[0] == pytest.approx(np.linalg.norm(a) * np.linalg.norm(b), rel=1e-13)
        assert dw == 0.0

    def test_truncation_against_gram_oracle(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(64, 64))
        ref = singular_values_via_gram(m)
        u, s, v, dw = truncated_svd(m, TruncationPolicy.truncated(max_bond=8))
        assert s.size == 8
        rebuilt = u @ np.diag(s) @ v
        err2 = np.sum((m - rebuilt) ** 2)
        tail = np.sum(ref[8:] ** 2)
        assert err2 == pytest.approx(tail, rel=1e-9)
        assert dw == pytest.approx(tail, rel=1e-9)

    def test_orthonormal_factors(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(6, 9))
        u, s, v, _ = truncated_svd(m, TruncationPolicy.truncated(max_bond=4))
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-12)
        assert np.allclose(v @ v.T, np.eye(4), atol=1e-12)
        assert np.all(np.diff(s) <= 0)

    def test_tolerance_keeps_exact_threshold(self):
        # Singular values exactly at tolerance * largest stay; below go.
        m = np.diag([1.0, 0.5, 0.25])
        _, s, _, _ = truncated_svd(m, TruncationPolicy.truncated(sv_tolerance=0.5))
        assert s.size == 2
        _, s, _, _ = truncated_svd(m, TruncationPolicy.truncated(sv_tolerance=0.251))
        assert s.size == 2
        _, s, _, _ = truncated_svd(m, TruncationPolicy.truncated(sv_tolerance=0.25))
        assert s.size == 3

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(12)
        m = rng.normal(size=(5, 5))
        u1, _, v1, _ = truncated_svd(m, EXACT)
        u2, _, v2, _ = truncated_svd(m.copy(), EXACT)
        assert np.array_equal(u1, u2) and np.array_equal(v1, v2)
        for j in range(u1.shape[1]):
            col = u1[:, j]
            lead = col[np.abs(col) > 1e-12 * np.max(np.abs(col))][0]
            assert lead >= 0

    def test_zero_matrix_keeps_one_value(self):
        u, s, v, dw = truncated_svd(np.zeros((3, 4)), EXACT)
        assert s.size == 1 and s[0] == 0.0 and dw == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(NumericalError):
            truncated_svd(np.array([[1.0, np.nan], [0.0, 1.0]]), EXACT)

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionError):
            truncated_svd(np.zeros((2, 2, 2)), EXACT)

    def test_rejects_an_overflowing_spectrum_without_warning(self):
        # Finite entries whose largest singular value (2e308) is past float64;
        # tier-1 turns any RuntimeWarning into an error.
        with pytest.raises(NumericalError, match="overflows float64"):
            truncated_svd(np.full((2, 2), 1e308), EXACT)


class TestPolicy:
    def test_exact_mode_invariant(self):
        assert TruncationPolicy.truncated() == TruncationPolicy.exact()
        with pytest.raises(ValueError):
            TruncationPolicy(max_bond=0)
        with pytest.raises(ValueError):
            TruncationPolicy(sv_tolerance=-1.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_bond": 2.5},
            {"max_bond": 2.0},
            {"max_bond": np.float64(3.0)},
            {"max_bond": "3"},
            {"max_bond": True},
            {"max_bond": np.True_},
            {"sv_tolerance": True},
            {"sv_tolerance": np.True_},
        ],
    )
    def test_rejects_non_integer_bond_and_booleans(self, bad):
        with pytest.raises(ValueError):
            TruncationPolicy(**bad)

    @pytest.mark.parametrize("bad", [None, "0.1", [0.1], np.array([0.1]), 1j])
    def test_rejects_non_real_tolerance_with_value_error(self, bad):
        with pytest.raises(ValueError, match="sv_tolerance must be finite"):
            TruncationPolicy(sv_tolerance=bad)

    @pytest.mark.parametrize("tol", [0, 1, np.int64(1), np.float32(0.25), np.float64(1e-3)])
    def test_numpy_and_integer_tolerances(self, tol):
        assert TruncationPolicy(sv_tolerance=tol).sv_tolerance == tol

    def test_numpy_integer_bond(self):
        policy = TruncationPolicy(max_bond=np.int64(2))
        train = tt_svd(np.random.default_rng(12).normal(size=(3, 3, 3)), policy)
        assert train.bond_dims == (2, 2)


class TestTtSvd:
    def test_all_ones_is_product_state(self):
        train = tt_svd(np.ones((2, 2, 2)), EXACT)
        assert train.bond_dims == (1, 1)

    def test_two_core_bond_equals_matrix_rank(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(8, 3)) @ rng.normal(size=(3, 8))
        train = tt_svd(m, EXACT)
        assert train.bond_dims == (3,)

    def test_exact_roundtrip_seeded(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            rank = int(rng.integers(1, 6))
            shape = tuple(int(d) for d in rng.integers(2, 5, size=rank))
            t = rng.normal(size=shape)
            train = tt_svd(t, EXACT)
            err = np.linalg.norm(tt_to_dense(train) - t)
            assert err <= 1e-10 * np.linalg.norm(t)

    def test_cores_left_orthogonal_except_last(self):
        rng = np.random.default_rng(15)
        train = tt_svd(rng.normal(size=(3, 4, 3, 2)), EXACT)
        for core in train.cores[:-1]:
            l, d, r = core.shape
            mat = core.reshape(l * d, r)
            assert np.allclose(mat.T @ mat, np.eye(r), atol=1e-12)

    def test_truncated_error_bounded_by_weights(self):
        rng = np.random.default_rng(16)
        t = rng.normal(size=(4, 4, 4, 4))
        weights = []
        train = tt_svd(t, TruncationPolicy.truncated(max_bond=2), discarded=weights)
        err = np.linalg.norm(tt_to_dense(train) - t)
        assert err <= np.sqrt(sum(weights)) + 1e-12

    def test_rejects_scalar_and_nan(self):
        with pytest.raises(DimensionError):
            tt_svd(np.array(1.0), EXACT)
        with pytest.raises(NumericalError):
            tt_svd(np.array([np.nan, 1.0]), EXACT)


class TestDensify:
    def test_single_core(self):
        core = np.arange(6.0).reshape(1, 6, 1)
        assert np.array_equal(tt_to_dense(TensorTrain([core])), np.arange(6.0))

    def test_ones_train(self):
        core = np.ones((1, 2, 1))
        train = TensorTrain([core] * 3)
        assert np.array_equal(tt_to_dense(train), np.ones((2, 2, 2)))

    def test_cap_guard(self):
        train = TensorTrain([np.ones((1, 2, 1))] * 24)
        with pytest.raises(CapacityError):
            tt_to_dense(train, max_elements=2**20)

    def test_oversized_chain_raises_before_allocating(self):
        train = TensorTrain([np.ones((1, 2, 1))] * 20)
        op = TensorTrainOperator([np.ones((1, 2, 2, 1))] * 10)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                tt_to_dense(train, max_elements=2**10)
            with pytest.raises(CapacityError):
                mpo_to_dense(op, max_elements=2**10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # either dense result would take 8 MiB

    def test_single_site_result_is_a_fresh_array(self):
        train = TensorTrain([np.arange(3.0).reshape(1, 3, 1)])
        dense = tt_to_dense(train)
        assert dense.flags.writeable and not np.shares_memory(dense, train.cores[0])
        dense[0] = 7.0
        assert train.cores[0][0, 0, 0] == 0.0


class TestParamCounts:
    def test_spot_values(self):
        assert param_count_mps(5, 2, 3) == 66
        assert param_count_mpo(4, 2, 2) == 48

    def test_two_sites_boundary(self):
        assert param_count_mps(2, 3, 4) == 2 * 3 * 4
        assert param_count_mpo(2, 3, 4) == 2 * 9 * 4

    def test_single_site(self):
        assert param_count_mps(1, 5, 1) == 5
        assert param_count_mpo(1, 5, 1) == 25

    def test_formula_matches_instances(self):
        rng = np.random.default_rng(17)
        for n in range(2, 9):
            for d in (2, 3):
                for b in range(1, 5):
                    train = random_train(rng, n, d, b)
                    assert train.param_count() == param_count_mps(n, d, b)
                    op = random_mpo(rng, n, d, d, b)
                    assert op.param_count() == param_count_mpo(n, d, b)

    def test_invalid_args(self):
        with pytest.raises(DimensionError):
            param_count_mps(0, 2, 2)
        with pytest.raises(DimensionError):
            param_count_mpo(2, 2, 0)


class TestRound:
    def test_exact_round_preserves_tensor(self):
        rng = np.random.default_rng(18)
        train = random_train(rng, 4, 3, 5)
        dense = tt_to_dense(train)
        rounded = tt_round(train, EXACT)
        assert np.linalg.norm(tt_to_dense(rounded) - dense) <= 1e-12 * np.linalg.norm(dense)
        assert all(b <= o for b, o in zip(rounded.bond_dims, train.bond_dims))

    def test_product_state_unchanged_at_cap_one(self):
        rng = np.random.default_rng(19)
        train = random_train(rng, 4, 2, 1)
        dense = tt_to_dense(train)
        rounded = tt_round(train, TruncationPolicy.truncated(max_bond=1))
        assert np.allclose(tt_to_dense(rounded), dense, rtol=1e-12, atol=1e-14)

    def test_error_matches_dense_resweep(self):
        # Rounding a train is the dense decomposition done without densifying.
        rng = np.random.default_rng(20)
        train = random_train(rng, 4, 2, 8)
        dense = tt_to_dense(train)
        policy = TruncationPolicy.truncated(max_bond=4)
        weights = []
        rounded = tt_round(train, policy, discarded=weights)
        err = np.linalg.norm(tt_to_dense(rounded) - dense)
        assert err <= np.sqrt(sum(weights)) + 1e-12
        via_dense = tt_svd(dense, policy)
        err_dense = np.linalg.norm(tt_to_dense(via_dense) - dense)
        assert err == pytest.approx(err_dense, rel=1e-8, abs=1e-12)

    def test_error_monotone_in_bond(self):
        rng = np.random.default_rng(21)
        train = random_train(rng, 5, 2, 6)
        dense = tt_to_dense(train)
        errors = []
        for b in range(1, 7):
            rounded = tt_round(train, TruncationPolicy.truncated(max_bond=b))
            errors.append(np.linalg.norm(tt_to_dense(rounded) - dense))
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))

    def test_rejects_non_finite_train(self):
        train = TensorTrain([np.array([1.0, np.nan]).reshape(1, 2, 1)])
        with pytest.raises(NumericalError, match="non-finite"):
            tt_round(train, EXACT)

    def test_norm_preserved_by_exact_round(self):
        rng = np.random.default_rng(22)
        train = random_train(rng, 5, 3, 4)
        assert tt_norm(tt_round(train, EXACT)) == pytest.approx(
            tt_norm(train), rel=1e-12
        )


class TestInnerNorm:
    def test_inner_is_norm_squared(self):
        rng = np.random.default_rng(23)
        train = random_train(rng, 4, 2, 3)
        assert tt_inner(train, train) == pytest.approx(tt_norm(train) ** 2, rel=1e-12)

    def test_orthogonal_product_states(self):
        e0 = TensorTrain([np.array([1.0, 0.0]).reshape(1, 2, 1)] * 3)
        e1 = TensorTrain([np.array([0.0, 1.0]).reshape(1, 2, 1)] * 3)
        assert abs(tt_inner(e0, e1)) <= 1e-12

    def test_matches_dense_dot(self):
        rng = np.random.default_rng(24)
        a = random_train(rng, 8, 2, 3)
        b = random_train(rng, 8, 2, 2)
        want = float(np.dot(tt_to_dense(a).ravel(), tt_to_dense(b).ravel()))
        assert tt_inner(a, b) == pytest.approx(want, rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_scale_spread_over_sites(self):
        # The true norm is 2^20 however the peaks are ordered; no partial
        # product may overflow or underflow on the way.
        cores = [np.full((1, 2, 1), 1e10)] * 20 + [np.full((1, 2, 1), 1e-10)] * 20
        for train in (TensorTrain(cores), TensorTrain(cores[::-1])):
            assert tt_norm(train) == pytest.approx(2.0**20, rel=1e-12)
            assert tt_inner(train, train) == pytest.approx(2.0**40, rel=1e-12)
        # Within one site too: 1e200 squared overflows before 1e-200 cancels it.
        train = TensorTrain([np.full((1, 2, 1), 1e200), np.full((1, 2, 1), 1e-200)])
        assert tt_norm(train) == pytest.approx(2.0, rel=1e-12)

    def test_result_outside_float64_range_raises(self):
        for value in (10.0, 0.1):
            train = TensorTrain([np.full((1, 2, 1), value)] * 400)
            with pytest.raises(NumericalError):
                tt_norm(train)
            with pytest.raises(NumericalError):
                tt_inner(train, train)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(25)
        with pytest.raises(DimensionError):
            tt_inner(random_train(rng, 3, 2, 2), random_train(rng, 3, 3, 2))


class TestAddScale:
    def test_add_matches_dense_sum(self):
        rng = np.random.default_rng(26)
        a = random_train(rng, 5, 3, 2)
        b = random_train(rng, 5, 3, 4)
        s = tt_add(a, b)
        assert s.bond_dims == tuple(x + y for x, y in zip(a.bond_dims, b.bond_dims))
        want = tt_to_dense(a) + tt_to_dense(b)
        assert np.linalg.norm(tt_to_dense(s) - want) <= 1e-12 * np.linalg.norm(want)

    def test_single_site_add(self):
        a = TensorTrain([np.array([[1.0, 2.0]]).reshape(1, 2, 1)])
        b = TensorTrain([np.array([[3.0, 5.0]]).reshape(1, 2, 1)])
        assert np.array_equal(tt_to_dense(tt_add(a, b)), np.array([4.0, 7.0]))

    @pytest.mark.parametrize(
        "dims, bonds_a, bonds_b",
        [
            ((3, 3), (1, 2, 1), (1, 3, 1)),  # two sites: no middle core
            ((2, 3, 4, 2), (1, 3, 1, 2, 1), (1, 1, 4, 3, 1)),  # bonds differ per link
        ],
    )
    def test_add_two_sites_and_mixed_bonds(self, dims, bonds_a, bonds_b):
        rng = np.random.default_rng(28)
        a, b = (
            TensorTrain([rng.normal(size=(bd[k], d, bd[k + 1])) for k, d in enumerate(dims)])
            for bd in (bonds_a, bonds_b)
        )
        s = tt_add(a, b)
        assert s.bond_dims == tuple(x + y for x, y in zip(bonds_a[1:-1], bonds_b[1:-1]))
        want = tt_to_dense(a) + tt_to_dense(b)
        assert np.allclose(tt_to_dense(s), want, rtol=1e-13, atol=1e-14)

    def test_add_dim_mismatch(self):
        rng = np.random.default_rng(29)
        with pytest.raises(DimensionError):
            tt_add(random_train(rng, 3, 2, 2), random_train(rng, 3, 3, 2))

    def test_scale(self):
        rng = np.random.default_rng(27)
        a = random_train(rng, 3, 2, 2)
        assert np.allclose(tt_to_dense(tt_scale(a, -2.5)), -2.5 * tt_to_dense(a))


class TestApplyMpo:
    def test_identity_operator(self):
        rng = np.random.default_rng(28)
        state = random_train(rng, 4, 3, 2)
        out = apply_mpo(identity_mpo(state.phys_dims), state)
        assert np.allclose(tt_to_dense(out), tt_to_dense(state), rtol=1e-13)

    def test_diagonal_scaling(self):
        state = TensorTrain([np.ones((1, 2, 1))] * 3)
        double = TensorTrainOperator([(2.0 * np.eye(2)).reshape(1, 2, 2, 1)] * 3)
        out = apply_mpo(double, state)
        assert np.allclose(tt_to_dense(out), 8.0 * np.ones((2, 2, 2)), rtol=1e-14)

    def test_bond_dims_multiply_then_round(self):
        rng = np.random.default_rng(29)
        op = random_mpo(rng, 6, 2, 2, 2)
        state = random_train(rng, 6, 2, 3)
        raw = apply_mpo(op, state)
        assert raw.bond_dims == tuple(6 for _ in range(5))
        rounded = tt_round(apply_mpo(op, state), TruncationPolicy.truncated(max_bond=4))
        assert all(b <= 4 for b in rounded.bond_dims)

    def test_matches_dense_matvec(self):
        rng = np.random.default_rng(30)
        op = random_mpo(rng, 6, 2, 2, 2)
        state = random_train(rng, 6, 2, 3)
        out = apply_mpo(op, state)
        want = (mpo_to_matrix(op) @ tt_to_dense(state).ravel()).reshape(out.phys_dims)
        got = tt_to_dense(out)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(31)
        with pytest.raises(DimensionError):
            apply_mpo(random_mpo(rng, 3, 3, 2, 2), random_train(rng, 3, 2, 2))


class TestChainValidation:
    def test_boundary_and_adjacency(self):
        with pytest.raises(DimensionError):
            TensorTrain([np.ones((2, 2, 1))])
        with pytest.raises(DimensionError):
            TensorTrain([np.ones((1, 2, 3)), np.ones((2, 2, 1))])
        with pytest.raises(DimensionError):
            TensorTrain([])
        with pytest.raises(DimensionError, match="rank 2, expected 3"):
            TensorTrain([np.ones((1, 2))])
        with pytest.raises(DimensionError, match="empty dimension"):
            TensorTrain([np.ones((1, 0, 1))])
        with pytest.raises(DimensionError, match="last tensor train core"):
            TensorTrain([np.ones((1, 2, 2))])

    def test_reprs_show_dims(self):
        train = TensorTrain([np.ones((1, 2, 3)), np.ones((3, 4, 1))])
        assert repr(train) == "TensorTrain(phys_dims=(2, 4), bond_dims=(3,))"
        op = TensorTrainOperator([np.ones((1, 2, 3, 1))])
        assert repr(op) == "TensorTrainOperator(in_dims=(2,), out_dims=(3,), bond_dims=())"

    def test_cores_are_frozen(self):
        train = TensorTrain([np.ones((1, 2, 1))])
        with pytest.raises(ValueError):
            train.cores[0][0, 0, 0] = 5.0
