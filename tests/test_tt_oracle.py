"""Property tests of densification, operator application and the SVD sign fix
against plain references."""

from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttkit.errors import CapacityError
from ttkit.kernels import ProductState, apply_mpo_to_product
from ttkit.tt import (
    TensorTrain,
    TensorTrainOperator,
    _fix_signs,
    apply_mpo,
    mpo_to_dense,
    mpo_to_matrix,
    tt_to_dense,
)

from oracles import (
    einsum_apply_dense,
    einsum_operator_dense,
    einsum_train_dense,
    fix_signs_loop,
)

_rng = np.random.default_rng(13)
LEAD_ZERO = _rng.normal(size=(6, 4))
LEAD_ZERO[:3] = 0.0
RANK_TWO = _rng.normal(size=(7, 2)) @ _rng.normal(size=(2, 5))


@st.composite
def sparse_matrices(draw):
    """Small matrices with leading zero rows and any density, zero included."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < draw(st.floats(0.0, 1.0)))
    m[: draw(st.integers(0, rows))] = 0.0
    return m


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sparse_matrices())
@example(LEAD_ZERO)
@example(LEAD_ZERO.T)
@example(np.zeros((3, 4)))
@example(RANK_TWO)
@example(RANK_TWO.T)
@example(np.outer([0.0, 0.0, -1.0, 2.0], [1.0, -3.0]))
def test_sign_fix_matches_reference_loop(m):
    # Byte-for-byte, so that -0.0 against 0.0 counts as a difference.
    u, _, v = np.linalg.svd(m, full_matrices=False)
    want_u, want_v = u.copy(), v.copy()
    fix_signs_loop(want_u, want_v)
    _fix_signs(u, v)
    assert u.tobytes() == want_u.tobytes() and v.tobytes() == want_v.tobytes()


def seeded_chain(seed, dims, bonds):
    """Random cores with the given physical-leg shapes and inner bonds."""
    rng = np.random.default_rng(seed)
    bonds = [1, *bonds, 1]
    return [rng.normal(size=(bonds[k], *dims[k], bonds[k + 1])) for k in range(len(dims))]


@st.composite
def chains(draw, legs, max_sites, max_dim):
    """Core chains over random shapes: size-1 legs, bond-1 links, a large middle bond."""
    n = draw(st.integers(1, max_sites))
    dims = [tuple(draw(st.integers(1, max_dim)) for _ in range(legs)) for _ in range(n)]
    bonds = [draw(st.integers(1, 5)) for _ in range(n - 1)]
    if n > 2 and draw(st.booleans()):
        bonds[(n - 1) // 2] = draw(st.integers(20, 64))
    return seeded_chain(draw(st.integers(0, 2**32 - 1)), dims, bonds)


def assert_contracts_to(got, want, cores):
    # Summation order differs from the oracle's; the rounding error is
    # bounded by the product of the core norms.
    scale = prod(np.linalg.norm(c) for c in cores)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


class TestDensifyOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(chains(legs=1, max_sites=7, max_dim=4))
    @example(seeded_chain(0, [(5,)], []))
    @example(seeded_chain(1, [(1,), (3,), (1,), (2,)], [2, 1, 3]))
    @example(seeded_chain(2, [(2,)] * 6, [1] * 5))
    @example(seeded_chain(3, [(2,), (5,), (3,), (1,), (4,)], [2, 7, 3, 2]))
    @example(seeded_chain(4, [(2,)] * 4, [2, 300, 2]))
    def test_train_matches_einsum(self, cores):
        train = TensorTrain(cores)
        got = tt_to_dense(train)
        assert_contracts_to(got, einsum_train_dense(cores), cores)
        assert got.flags.writeable and got.flags.c_contiguous
        assert not any(np.shares_memory(got, c) for c in train.cores)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(chains(legs=2, max_sites=4, max_dim=3))
    @example(seeded_chain(5, [(2, 3)], []))
    @example(seeded_chain(6, [(1, 2), (3, 1), (1, 1)], [1, 4]))
    @example(seeded_chain(7, [(2, 2)] * 3, [100, 3]))
    def test_operator_matches_einsum(self, cores):
        op = TensorTrainOperator(cores)
        got = mpo_to_dense(op)
        assert_contracts_to(got, einsum_operator_dense(cores), cores)
        assert got.flags.writeable and got.flags.c_contiguous
        assert not any(np.shares_memory(got, c) for c in op.cores)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(chains(legs=1, max_sites=5, max_dim=3), chains(legs=2, max_sites=3, max_dim=3))
    def test_cap_is_exact(self, train_cores, op_cores):
        train, op = TensorTrain(train_cores), TensorTrainOperator(op_cores)
        total = prod(train.phys_dims)
        with pytest.raises(CapacityError):
            tt_to_dense(train, max_elements=total - 1)
        assert tt_to_dense(train, max_elements=total).size == total
        total = prod(op.in_dims) * prod(op.out_dims)
        with pytest.raises(CapacityError):
            mpo_to_dense(op, max_elements=total - 1)
        assert mpo_to_dense(op, max_elements=total).size == total


def seeded_pair(seed, ins, outs, op_bonds, state_bonds):
    """An operator chain and a state chain that share the input dims ``ins``."""
    op = seeded_chain(seed, list(zip(ins, outs)), op_bonds)
    state = seeded_chain(seed + 1, [(d,) for d in ins], state_bonds)
    return op, state


@st.composite
def operator_state_pairs(draw, max_sites=4):
    """Operator and state chains over random shapes; either may carry a bond up to 32."""
    n = draw(st.integers(1, max_sites))
    ins = [draw(st.integers(1, 3)) for _ in range(n)]
    outs = [draw(st.integers(1, 3)) for _ in range(n)]
    op_bonds = [draw(st.integers(1, 4)) for _ in range(n - 1)]
    state_bonds = [draw(st.integers(1, 4)) for _ in range(n - 1)]
    if n > 1 and draw(st.booleans()):
        bonds = op_bonds if draw(st.booleans()) else state_bonds
        bonds[draw(st.integers(0, n - 2))] = draw(st.integers(5, 32))
    return seeded_pair(draw(st.integers(0, 2**32 - 2)), ins, outs, op_bonds, state_bonds)


class TestApplyOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(operator_state_pairs())
    @example(seeded_pair(10, [3], [2], [], []))
    @example(seeded_pair(11, [1, 2, 1], [2, 1, 1], [2, 3], [1, 4]))
    @example(seeded_pair(12, [2] * 5, [2] * 5, [1] * 4, [1] * 4))
    @example(seeded_pair(13, [3, 1, 2], [1, 3, 2], [2, 2], [3, 2]))
    @example(seeded_pair(14, [2, 2, 2], [3, 3, 3], [32, 32], [32, 32]))
    def test_apply_mpo_matches_einsum(self, pair):
        op_cores, state_cores = pair
        op, state = TensorTrainOperator(op_cores), TensorTrain(state_cores)
        got = apply_mpo(op, state)
        assert got.phys_dims == op.out_dims
        assert got.bond_dims == tuple(a * b for a, b in zip(op.bond_dims, state.bond_dims))
        assert_contracts_to(
            tt_to_dense(got), einsum_apply_dense(op_cores, state_cores), op_cores + state_cores
        )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(operator_state_pairs(max_sites=6))
    @example(seeded_pair(15, [3], [2], [], []))
    @example(seeded_pair(16, [1, 2, 1], [2, 1, 1], [2, 3], [1, 1]))
    @example(seeded_pair(17, [2] * 6, [1, 2, 1, 1, 2, 1], [1] * 5, [1] * 5))
    @example(seeded_pair(18, [2, 2, 2], [3, 1, 3], [32, 32], [1, 1]))
    def test_apply_mpo_to_product_matches_matrix(self, pair):
        op_cores, state_cores = pair
        op = TensorTrainOperator(op_cores)
        # The state chain's bond-1 slices serve as the site vectors.
        ps = ProductState(tuple(c[0, :, 0] for c in state_cores))
        got, trace = apply_mpo_to_product(op, ps, return_trace=True)
        want = (mpo_to_matrix(op) @ ps.to_dense().ravel()).reshape(op.out_dims)
        assert_contracts_to(got, want, op_cores + list(ps.vectors))
        assert got.flags.writeable and got.flags.c_contiguous
        # Per site: the node (left * out * right), then the running result
        # (outputs so far * right).
        want_trace, outputs = [], 1
        for left, _, dout, right in (c.shape for c in op_cores):
            outputs *= dout
            want_trace += [left * dout * right, outputs * right]
        assert trace == want_trace
