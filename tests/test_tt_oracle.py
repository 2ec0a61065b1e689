"""Property tests of the truncated SVD, densification, decomposition,
rounding, addition, operator application and the SVD sign fix against plain
references."""

from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttkit.errors import CapacityError
from ttkit.kernels import ProductState, apply_mpo_to_product
from ttkit.tt import (
    WIDE_MIN_ELEMENTS,
    WIDE_RATIO,
    TensorTrain,
    TensorTrainOperator,
    TruncationPolicy,
    _fix_signs,
    apply_mpo,
    mpo_to_dense,
    mpo_to_matrix,
    tt_add,
    tt_round,
    tt_svd,
    tt_to_dense,
    truncated_svd,
)

from oracles import (
    einsum_apply_dense,
    einsum_operator_dense,
    einsum_train_dense,
    fix_signs_loop,
    sweep_with_list,
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


@st.composite
def policies(draw):
    """The exact policy, a bond cap, a tolerance, or both."""
    max_bond = draw(st.one_of(st.none(), st.integers(1, 3)))
    return TruncationPolicy(max_bond=max_bond, sv_tolerance=draw(st.sampled_from([0.0, 0.1])))


@st.composite
def dense_tensors(draw):
    """Sparse tensors of 1-5 sites with size-1 legs allowed; zero included."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=dims) * (rng.random(dims) < draw(st.floats(0.0, 1.0)))


def seeded_tensor(seed, dims):
    return np.random.default_rng(seed).normal(size=dims)


def assert_error_is_discarded_weight(got, want, weights, scale2):
    # Each link discards a part orthogonal to everything later links keep,
    # so the squared error is the sum of the discarded weights.
    err2 = float(np.sum((got - want) ** 2))
    assert abs(err2 - sum(weights)) <= 1e-12 * scale2


def is_wide(rows, cols):
    return cols >= WIDE_RATIO * rows and rows * cols >= WIDE_MIN_ELEMENTS


@st.composite
def link_matrices(draw):
    """Matrices on both sides of the QR-first threshold, in either orientation:
    low rank, sparse, with leading zero rows, or all zero."""
    rows = draw(st.integers(1, 40))
    edge = max(WIDE_RATIO * rows, -(-WIDE_MIN_ELEMENTS // rows))
    cols = draw(st.one_of(st.integers(1, WIDE_RATIO * rows + 1), st.integers(edge - 1, 2 * edge)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, min(rows, cols)))
    m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
    m *= rng.random((rows, cols)) < draw(st.floats(0.0, 1.0))
    m[: draw(st.integers(0, rows))] = 0.0
    return m.T if draw(st.booleans()) else m


def seeded_low_rank(seed, rows, cols, rank):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))


WIDE_LEAD_ZERO = seeded_tensor(30, (16, 256))
WIDE_LEAD_ZERO[:5] = 0.0


class TestSvdOracle:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(link_matrices(), policies())
    @example(seeded_tensor(31, (16, 4096)), TruncationPolicy(max_bond=3))
    @example(seeded_tensor(32, (16, 4096)).T, TruncationPolicy())
    @example(seeded_low_rank(33, 8, 1024, 2), TruncationPolicy())
    @example(WIDE_LEAD_ZERO, TruncationPolicy(sv_tolerance=0.1))
    @example(np.zeros((4, 2048)), TruncationPolicy())
    @example(seeded_tensor(34, (64, 256)), TruncationPolicy())
    @example(seeded_tensor(35, (16, 255)), TruncationPolicy())
    def test_truncated_svd_matches_numpy(self, m, policy):
        u, s, v, discarded = truncated_svd(m, policy)
        want = np.linalg.svd(m, compute_uv=False)
        rank = s.size
        assert np.max(np.abs(s - want[:rank])) <= 1e-13 * want[0]
        assert np.max(np.abs(u.T @ u - np.eye(rank))) <= 1e-12
        assert np.max(np.abs(v @ v.T - np.eye(rank))) <= 1e-12
        assert_error_is_discarded_weight((u * s) @ v, m, [discarded], float(np.sum(m**2)))
        want_u, want_v = u.copy(), v.copy()
        fix_signs_loop(want_u, want_v)
        assert u.tobytes() == want_u.tobytes() and v.tobytes() == want_v.tobytes()
        again = truncated_svd(m, policy)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(again[:3], (u, s, v)))
        assert again[3] == discarded

    def test_qr_first_only_for_wide_links(self, monkeypatch):
        # Small wide links, such as a layer request's, and tall ones keep the plain SVD.
        calls, qr = [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a: calls.append(a.shape) or qr(a))
        for shape in [(16, 256), (16, 4096), (4, 256), (16, 64), (64, 16), (256, 256), (4096, 16)]:
            truncated_svd(seeded_tensor(36, shape), TruncationPolicy())
        assert calls == [(256, 16), (4096, 16)]

    def test_wide_truncation_law(self):
        # Criterion 4's law on a link matrix that takes the QR-first path.
        m = seeded_tensor(1019, (16, 4096))
        assert is_wide(*m.shape)
        spectrum = np.linalg.svd(m, compute_uv=False)
        total = float(np.sum(spectrum**2))
        for b in range(1, 17):
            err2 = float(np.sum((tt_to_dense(tt_svd(m, TruncationPolicy(max_bond=b))) - m) ** 2))
            tail = float(np.sum(spectrum[b:] ** 2))
            assert abs(err2 - tail) <= 1e-9 * max(tail, 1e-12 * total)

    def test_wide_exact_round_trip(self):
        t = seeded_tensor(1020, (4,) * 8)
        assert is_wide(4, 4**7)
        got = tt_to_dense(tt_svd(t, TruncationPolicy()))
        assert np.linalg.norm(got - t) <= 1e-10 * np.linalg.norm(t)


class TestTrainOracle:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dense_tensors(), policies())
    @example(seeded_tensor(20, (5,)), TruncationPolicy())
    @example(seeded_tensor(21, (1, 3, 1, 2)), TruncationPolicy(max_bond=1))
    @example(np.einsum("i,j,k->ijk", *(seeded_tensor(22 + k, (3,)) for k in range(3))),
             TruncationPolicy())
    @example(np.zeros((2, 3)), TruncationPolicy())
    def test_tt_svd_matches_einsum(self, tensor, policy):
        train, weights = sweep_with_list(TensorTrain, tt_svd, tensor, policy)
        got = einsum_train_dense(train.cores)
        norm2 = float(np.sum(tensor**2))
        assert_error_is_discarded_weight(got, tensor, weights, norm2)
        if policy == TruncationPolicy():
            assert np.max(np.abs(got - tensor)) <= 1e-12 * np.sqrt(norm2)
        if policy.max_bond is not None:
            assert max(train.bond_dims, default=1) <= policy.max_bond
        for core in train.cores[:-1]:
            u = core.reshape(-1, core.shape[2])
            assert np.allclose(u.T @ u, np.eye(u.shape[1]), atol=1e-12)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(chains(legs=1, max_sites=6, max_dim=3), policies())
    @example(seeded_chain(23, [(4,)], []), TruncationPolicy(max_bond=1))
    @example(seeded_chain(24, [(1,), (3,), (1,), (2,)], [2, 1, 3]), TruncationPolicy())
    @example(seeded_chain(25, [(2,)] * 5, [1] * 4), TruncationPolicy(max_bond=1))
    @example(seeded_chain(26, [(2,)] * 4, [3, 40, 3]), TruncationPolicy(max_bond=2))
    def test_tt_round_matches_einsum(self, cores, policy):
        rounded, weights = sweep_with_list(TensorTrain, tt_round, TensorTrain(cores), policy)
        got, want = einsum_train_dense(rounded.cores), einsum_train_dense(cores)
        assert_error_is_discarded_weight(got, want, weights, float(np.sum(want**2)))
        if policy == TruncationPolicy():
            assert_contracts_to(got, want, cores)
        if policy.max_bond is not None:
            assert max(rounded.bond_dims, default=1) <= policy.max_bond

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, 4), min_size=n, max_size=n),
        st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1),
        st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1),
        st.integers(0, 2**32 - 2),
    )))
    @example(([3], [], [], 27))
    @example(([1, 2, 1], [1, 1], [2, 1], 28))
    @example(([2] * 5, [1] * 4, [1] * 4, 29))
    def test_tt_add_matches_einsum(self, case):
        dims, a_bonds, b_bonds, seed = case
        a = seeded_chain(seed, [(d,) for d in dims], a_bonds)
        b = seeded_chain(seed + 1, [(d,) for d in dims], b_bonds)
        got = tt_add(TensorTrain(a), TensorTrain(b))
        assert got.bond_dims == tuple(x + y for x, y in zip(a_bonds, b_bonds))
        want = einsum_train_dense(a) + einsum_train_dense(b)
        scale = prod(np.linalg.norm(c) for c in a) + prod(np.linalg.norm(c) for c in b)
        assert np.max(np.abs(einsum_train_dense(got.cores) - want)) <= 1e-12 * scale


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
