"""Dense tensor operations against naive loop oracles."""

import numpy as np
import pytest

from ttkit.dense import (
    GroupingPlan,
    contract_pair,
    frobenius_norm,
    group_indexes,
    permute,
    split_index,
    ungroup_indexes,
)
from ttkit.errors import DimensionError

from oracles import loop_contract_pair


class TestPermute:
    def test_identity_is_bitwise_equal(self):
        t = np.random.default_rng(0).normal(size=(2, 3, 4))
        out = permute(t, (0, 1, 2))
        assert np.array_equal(out, t)

    def test_transpose_definition(self):
        t = np.arange(6.0).reshape(2, 3)
        out = permute(t, (1, 0))
        assert out.shape == (3, 2)
        for i in range(2):
            for j in range(3):
                assert out[j, i] == t[i, j]

    def test_inverse_restores(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(2, 3, 4, 5))
        perm = (2, 0, 3, 1)
        inverse = tuple(np.argsort(perm))
        assert np.array_equal(permute(permute(t, perm), inverse), t)

    def test_norm_invariant(self):
        t = np.random.default_rng(2).normal(size=(3, 4, 5))
        assert frobenius_norm(permute(t, (2, 1, 0))) == pytest.approx(
            frobenius_norm(t), rel=1e-14
        )

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            permute(np.zeros((2, 2)), (0, 1, 2))
        with pytest.raises(DimensionError):
            permute(np.zeros((2, 2)), (0, 0))


class TestGroupSplit:
    def test_flatten_is_row_major(self):
        t = np.arange(6.0).reshape(2, 3)
        plan = GroupingPlan((2, 3), ((0, 1),))
        flat = group_indexes(t, plan)
        assert flat.shape == (6,)
        for i in range(2):
            for j in range(3):
                assert flat[3 * i + j] == t[i, j]

    def test_pairwise_grouping_shape(self):
        t = np.random.default_rng(3).normal(size=(2, 2, 2, 3))
        plan = GroupingPlan((2, 2, 2, 3), ((0, 1), (2, 3)))
        g = group_indexes(t, plan)
        assert g.shape == (4, 6)

    def test_group_then_ungroup_is_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            rank = int(rng.integers(2, 6))
            shape = tuple(int(d) for d in rng.integers(1, 5, size=rank))
            t = rng.normal(size=shape)
            positions = list(rng.permutation(rank))
            cuts = sorted(rng.choice(rank - 1, size=int(rng.integers(0, rank - 1)), replace=False) + 1) if rank > 1 else []
            bounds = [0] + [int(c) for c in cuts] + [rank]
            groups = tuple(
                tuple(positions[bounds[k] : bounds[k + 1]]) for k in range(len(bounds) - 1)
            )
            plan = GroupingPlan(shape, groups)
            g = group_indexes(t, plan)
            assert np.array_equal(ungroup_indexes(g, plan), t)
            assert frobenius_norm(g) == pytest.approx(frobenius_norm(t), rel=1e-14)

    def test_split_is_row_major(self):
        vec = np.arange(6.0)
        m = split_index(vec, 0, (2, 3))
        for i in range(2):
            for j in range(3):
                assert m[i, j] == vec[3 * i + j]
        assert frobenius_norm(m) == pytest.approx(frobenius_norm(vec), rel=1e-14)

    def test_split_single_factor_identity(self):
        t = np.random.default_rng(5).normal(size=(4, 6))
        assert np.array_equal(split_index(t, 1, (6,)), t)

    def test_split_then_group_roundtrip(self):
        # Axis-wise splits of a matrix match the grouped layout exactly.
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = rng.normal(size=(4, 6))
            t = split_index(split_index(m, 0, (2, 2)), 2, (2, 3))
            plan = GroupingPlan((2, 2, 2, 3), ((0, 1), (2, 3)))
            assert np.array_equal(group_indexes(t, plan), m)

    def test_shape_mismatch(self):
        plan = GroupingPlan((2, 3), ((0, 1),))
        with pytest.raises(DimensionError):
            group_indexes(np.zeros((3, 2)), plan)
        with pytest.raises(DimensionError):
            split_index(np.zeros(6), 0, (4, 2))
        with pytest.raises(DimensionError):
            ungroup_indexes(np.zeros(5), plan)
        for axis in (1, -2):
            with pytest.raises(DimensionError):
                split_index(np.zeros(6), axis, (2, 3))

    def test_invalid_plans(self):
        with pytest.raises(DimensionError):
            GroupingPlan((2, 3), ((0,), (0,)))
        with pytest.raises(DimensionError):
            GroupingPlan((2, 3), ((0,),))
        with pytest.raises(DimensionError, match="empty group"):
            GroupingPlan((2, 3), ((0, 1), ()))


class TestContractPair:
    def test_identity_matrix(self):
        m = np.random.default_rng(7).normal(size=(4, 4))
        assert np.allclose(contract_pair(m, np.eye(4), [(1, 0)]), m, rtol=1e-14)

    def test_dot_product(self):
        out = contract_pair(np.array([1.0, 2.0]), np.array([3.0, 4.0]), [(0, 0)])
        assert out.shape == ()
        assert out == pytest.approx(11.0)

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.normal(size=(3, 4, 2))
            b = rng.normal(size=(4, 5))
            got = contract_pair(a, b, [(1, 0)])
            want = loop_contract_pair(a, b, [(1, 0)])
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_multi_axis_against_loop_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 2, 5))
        got = contract_pair(a, b, [(2, 0), (0, 1)])
        want = loop_contract_pair(a, b, [(2, 0), (0, 1)])
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_outer_product(self):
        a = np.array([1.0, 2.0])
        b = np.array([3.0, 4.0, 5.0])
        assert np.allclose(contract_pair(a, b, []), np.outer(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            contract_pair(np.zeros((2, 3)), np.zeros((4, 2)), [(1, 0)])
        with pytest.raises(DimensionError):
            contract_pair(np.zeros((2, 2)), np.zeros((2, 2)), [(0, 0), (0, 1)])
        with pytest.raises(DimensionError, match="out of range"):
            contract_pair(np.zeros(2), np.zeros((2, 2)), [(0, 2)])
