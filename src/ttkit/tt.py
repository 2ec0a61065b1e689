"""Tensor trains (MPS) and tensor-train operators (MPO).

Trains are chains of 3-index cores ``(left bond, physical, right bond)``
with open boundary conditions (outer bonds of size 1); operators carry two
physical indexes per core, ordered ``(left bond, input, output, right bond)``.
Construction is by a left-to-right sweep of truncated SVDs; existing trains
can be re-truncated (rounded) without densification.

Truncation is governed by :class:`TruncationPolicy`.  A singular value is
discarded when it falls strictly below ``sv_tolerance`` times the largest
one (values exactly at the threshold are kept), and under every policy
values at or below ``1e-14`` times the largest are treated as float64
noise.  The exact policy is simply the default one: no ``max_bond`` and
zero tolerance, which keeps everything above that noise floor.  Singular
vectors are sign-fixed so the first non-negligible component of each left
vector is nonnegative, which makes decompositions reproducible.  A sweep
appends each link's discarded weight to a ``discarded=`` list, if given.

Wide link matrices (see ``WIDE_RATIO`` and ``WIDE_MIN_ELEMENTS``) go through
a QR of the transpose first and an SVD of the small triangular factor.
Their singular values equal a direct SVD's to rounding, not bit for bit;
the sign rule is the same on both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import inf, isfinite, ldexp, prod, sqrt
from operator import mul
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dense import as_tensor
from .errors import CapacityError, DimensionError, NumericalError

__all__ = [
    "DENSE_CAP_DEFAULT",
    "TruncationPolicy",
    "truncated_svd",
    "TensorTrain",
    "TensorTrainOperator",
    "tt_svd",
    "tt_to_dense",
    "mpo_to_dense",
    "mpo_to_matrix",
    "tt_round",
    "tt_inner",
    "tt_norm",
    "tt_add",
    "tt_scale",
    "apply_mpo",
    "identity_mpo",
    "param_count_mps",
    "param_count_mpo",
]

# Largest dense tensor the densification helpers will materialize by default.
DENSE_CAP_DEFAULT = 2**22

# Relative spectral floor: singular values at or below this multiple of the
# largest are float64 noise and define the numerical rank.
NUMERICAL_RANK_CUTOFF = 1e-14

# A matrix with at least WIDE_RATIO times as many columns as rows and at least
# WIDE_MIN_ELEMENTS entries is factored through a QR of its transpose first
# (Chan's R-SVD).  Below these sizes the extra QR costs more than it saves.
WIDE_RATIO = 4
WIDE_MIN_ELEMENTS = 4096


@dataclass(frozen=True)
class TruncationPolicy:
    """Bond-dimension cap and relative singular-value tolerance.

    The default (no cap, zero tolerance) is exact: it keeps everything above
    the float64 noise floor.
    """

    max_bond: int | None = None
    sv_tolerance: float = 0.0

    def __post_init__(self):
        bond, tol = self.max_bond, self.sv_tolerance
        integral = isinstance(bond, (int, np.integer)) and not isinstance(bond, bool)
        if bond is not None and not (integral and bond >= 1):
            raise ValueError(f"max_bond must be an integer >= 1, got {bond!r}")
        if isinstance(tol, (bool, np.bool_)) or not (np.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"sv_tolerance must be finite and >= 0, got {tol!r}")

    @classmethod
    def exact(cls) -> "TruncationPolicy":
        return cls()

    @classmethod
    def truncated(
        cls, max_bond: int | None = None, sv_tolerance: float = 0.0
    ) -> "TruncationPolicy":
        return cls(max_bond=max_bond, sv_tolerance=sv_tolerance)


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    # First non-negligible component of each left singular vector is made
    # nonnegative; the matching right vector is flipped to compensate.  An
    # all-zero column has no such component: its lead reads as +-0.0 and
    # stays as it is.
    mag = np.abs(u)
    first = np.argmax(mag > 1e-12 * mag.max(axis=0), axis=0)
    flip = u[first, np.arange(u.shape[1])] < 0.0
    np.negative(u, out=u, where=flip)
    np.negative(v, out=v, where=flip[:, None])


def truncated_svd(
    m: np.ndarray, policy: TruncationPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """SVD of a matrix keeping only the leading singular values.

    Returns ``(U, S, V, discarded_weight)`` with ``m ~= U @ diag(S) @ V``:
    U has orthonormal columns, S is nonincreasing, the rows of V are
    orthonormal right singular vectors, and ``discarded_weight`` is the sum
    of squares of the dropped singular values.  At least one singular value
    is always kept so downstream shapes stay valid.

    A wide matrix (``cols >= WIDE_RATIO * rows`` and at least
    ``WIDE_MIN_ELEMENTS`` entries) is factored as ``m.T = Q R`` first, and
    the SVD is taken of the small ``R.T``; the kept right vectors are mapped
    back through ``Q``.  The path depends on the shape alone.  Its singular
    values equal a direct SVD's to rounding, not bit for bit, and the signs
    are fixed by the same rule.
    """
    m = as_tensor(m)
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got rank {m.ndim}")
    if not np.all(np.isfinite(m)):
        raise NumericalError("matrix contains non-finite entries")
    rows, cols = m.shape
    wide = cols >= WIDE_RATIO * rows and m.size >= WIDE_MIN_ELEMENTS
    try:
        if wide:
            # m = r.T @ q.T with orthonormal q, so m has r.T's singular
            # values and left vectors; its right vectors are vt @ q.T.
            q, r = np.linalg.qr(m.T)
            u, s, vt = np.linalg.svd(r.T, full_matrices=False)
        else:
            u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed to converge: {exc}") from exc

    top = s[0]
    if not isfinite(top):
        raise NumericalError("the largest singular value overflows float64")
    rank = int(np.count_nonzero(s > NUMERICAL_RANK_CUTOFF * top)) if top > 0.0 else 0
    if policy.sv_tolerance > 0.0 and top > 0.0:
        rank = min(rank, int(np.count_nonzero(s >= policy.sv_tolerance * top)))
    if policy.max_bond is not None:
        rank = min(rank, policy.max_bond)
    rank = max(rank, 1)

    discarded = float(np.sum(s[rank:] ** 2))
    u, s = u[:, :rank].copy(), s[:rank].copy()
    vt = vt[:rank] @ q.T if wide else vt[:rank].copy()
    _fix_signs(u, vt)
    return u, s, vt, discarded


def _freeze(core) -> np.ndarray:
    out = np.array(core, dtype=np.float64, order="C", copy=True)
    out.flags.writeable = False
    return out


def _validate_chain(cores: tuple[np.ndarray, ...], rank: int, kind: str) -> None:
    if not cores:
        raise DimensionError(f"{kind} needs at least one core")
    for i, core in enumerate(cores):
        if core.ndim != rank:
            raise DimensionError(f"{kind} core {i} has rank {core.ndim}, expected {rank}")
        if any(n < 1 for n in core.shape):
            raise DimensionError(f"{kind} core {i} has an empty dimension: {core.shape}")
    if cores[0].shape[0] != 1:
        raise DimensionError(f"first {kind} core must have left bond 1")
    if cores[-1].shape[-1] != 1:
        raise DimensionError(f"last {kind} core must have right bond 1")
    for i in range(len(cores) - 1):
        if cores[i].shape[-1] != cores[i + 1].shape[0]:
            raise DimensionError(
                f"bond mismatch between cores {i} and {i + 1}: "
                f"{cores[i].shape[-1]} != {cores[i + 1].shape[0]}"
            )


class TensorTrain:
    """Chain of 3-index cores ``(left bond, physical, right bond)``.

    Cores are copied and frozen at construction; instances are immutable
    and safe to share across threads.
    """

    def __init__(self, cores: Iterable[np.ndarray]):
        self.cores = tuple(_freeze(c) for c in cores)
        _validate_chain(self.cores, 3, "tensor train")

    @property
    def n_sites(self) -> int:
        return len(self.cores)

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.cores[:-1])

    def param_count(self) -> int:
        return sum(c.size for c in self.cores)

    def __repr__(self) -> str:
        return f"TensorTrain(phys_dims={self.phys_dims}, bond_dims={self.bond_dims})"


class TensorTrainOperator:
    """Chain of 4-index cores ``(left bond, input, output, right bond)``."""

    def __init__(self, cores: Iterable[np.ndarray]):
        self.cores = tuple(_freeze(c) for c in cores)
        _validate_chain(self.cores, 4, "tensor-train operator")

    @property
    def n_sites(self) -> int:
        return len(self.cores)

    @property
    def in_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def out_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.cores)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[3] for c in self.cores[:-1])

    def param_count(self) -> int:
        return sum(c.size for c in self.cores)

    def __repr__(self) -> str:
        return (
            f"TensorTrainOperator(in_dims={self.in_dims}, "
            f"out_dims={self.out_dims}, bond_dims={self.bond_dims})"
        )


def param_count_mps(n_sites: int, phys_dim: int, bond_dim: int) -> int:
    """Stored elements of a uniform MPS: ``2db`` boundary plus ``db^2`` per interior core."""
    n, d, b = int(n_sites), int(phys_dim), int(bond_dim)
    if n < 1 or d < 1 or b < 1:
        raise DimensionError("n_sites, phys_dim, bond_dim must all be >= 1")
    if n == 1:
        return d
    return 2 * d * b + (n - 2) * d * b * b


def param_count_mpo(n_sites: int, phys_dim: int, bond_dim: int) -> int:
    """Stored elements of a uniform MPO: a uniform MPS with ``d^2`` values per site."""
    d = int(phys_dim)
    if d < 1:
        raise DimensionError("n_sites, phys_dim, bond_dim must all be >= 1")
    return param_count_mps(n_sites, d * d, bond_dim)


def tt_svd(
    tensor: np.ndarray,
    policy: TruncationPolicy,
    *,
    discarded: list[float] | None = None,
) -> TensorTrain:
    """Decompose a dense tensor into a train by a left-to-right SVD sweep.

    All cores except the last are left-orthogonal.  With an exact policy the
    train reproduces the input to float64 accuracy; with a truncated policy
    the Frobenius error equals the root of the summed per-link discarded
    weights, since what each link discards is orthogonal to everything later
    links keep.  A ``discarded`` list gains one weight per link, in order.
    """
    t = as_tensor(tensor)
    if t.ndim < 1:
        raise DimensionError("cannot decompose a rank-0 tensor")
    if not np.all(np.isfinite(t)):
        raise NumericalError("tensor contains non-finite entries")

    dims = t.shape
    weights = [] if discarded is None else discarded
    cores: list[np.ndarray] = []
    carry = t.reshape(1, -1)
    left = 1
    for k in range(t.ndim - 1):
        mat = carry.reshape(left * dims[k], -1)
        u, s, v, dw = truncated_svd(mat, policy)
        weights.append(dw)
        rank = s.size
        cores.append(u.reshape(left, dims[k], rank))
        carry = s[:, None] * v
        left = rank
    cores.append(carry.reshape(left, dims[-1], 1))
    return TensorTrain(cores)


def _contract_chain(cores: Sequence[np.ndarray]) -> np.ndarray:
    # Flat dense vector of a chain of (left, physical, right) cores with
    # outer bonds 1.  A left prefix and a right suffix are contracted apart
    # and joined by one matrix product at the link where their physical
    # sizes balance, so the full result is written once, by that product.
    n = len(cores)
    if n == 1:
        return cores[0].reshape(-1).copy()
    sizes = list(accumulate((c.shape[1] for c in cores), mul, initial=1))
    split = min(range(1, n), key=lambda j: max(sizes[j], sizes[n] // sizes[j]))
    left = cores[0].reshape(sizes[1], -1)
    for core in cores[1:split]:
        left = (left @ core.reshape(core.shape[0], -1)).reshape(-1, core.shape[2])
    right = cores[-1].reshape(cores[-1].shape[0], -1)
    for core in reversed(cores[split:-1]):
        right = (core.reshape(-1, core.shape[2]) @ right).reshape(core.shape[0], -1)
    return (left @ right).reshape(-1)


def tt_to_dense(tt: TensorTrain, max_elements: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Contract a train back to the dense tensor it represents.

    Refuses to materialize more than ``max_elements`` elements.  The result
    is a fresh, writable array.
    """
    total = prod(tt.phys_dims)
    if total > max_elements:
        raise CapacityError(
            f"dense tensor would have {total} elements (cap {max_elements})"
        )
    return _contract_chain(tt.cores).reshape(tt.phys_dims)


def mpo_to_dense(
    op: TensorTrainOperator, max_elements: int = DENSE_CAP_DEFAULT
) -> np.ndarray:
    """Contract an operator train to a dense tensor with axes (outputs..., inputs...)."""
    total = prod(op.in_dims) * prod(op.out_dims)
    if total > max_elements:
        raise CapacityError(
            f"dense operator would have {total} elements (cap {max_elements})"
        )
    flat = _contract_chain([c.reshape(c.shape[0], -1, c.shape[3]) for c in op.cores])
    # Axes alternate (in_0, out_0, in_1, out_1, ...); expose outputs first.
    n = op.n_sites
    acc = flat.reshape([d for pair in zip(op.in_dims, op.out_dims) for d in pair])
    perm = [2 * k + 1 for k in range(n)] + [2 * k for k in range(n)]
    return np.ascontiguousarray(np.transpose(acc, perm))


def mpo_to_matrix(op: TensorTrainOperator) -> np.ndarray:
    """Dense matrix of an operator train: rows are outputs, columns inputs."""
    return mpo_to_dense(op).reshape(prod(op.out_dims), prod(op.in_dims))


def tt_round(
    tt: TensorTrain,
    policy: TruncationPolicy,
    *,
    discarded: list[float] | None = None,
) -> TensorTrain:
    """Re-truncate an existing train to (possibly) smaller bond dimensions.

    Right-to-left orthogonalization sweep followed by a left-to-right
    truncation sweep; as for :func:`tt_svd`, the Frobenius distance to the
    input train equals the square root of the summed per-link discarded
    weights, which a ``discarded`` list gains in link order.
    """
    cores = [np.asarray(c, dtype=np.float64) for c in tt.cores]
    for c in cores:
        if not np.all(np.isfinite(c)):
            raise NumericalError("train contains non-finite entries")
    n = len(cores)

    # Sweep right to left, leaving cores 1..n-1 right-orthogonal.
    for k in range(n - 1, 0, -1):
        left, d, right = cores[k].shape
        mat = cores[k].reshape(left, d * right)
        try:
            q, r = np.linalg.qr(mat.T)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"QR failed: {exc}") from exc
        new_left = q.shape[1]
        cores[k] = q.T.reshape(new_left, d, right)
        cores[k - 1] = np.tensordot(cores[k - 1], r.T, axes=([2], [0]))

    # Truncation sweep left to right.
    weights = [] if discarded is None else discarded
    for k in range(n - 1):
        left, d, right = cores[k].shape
        u, s, v, dw = truncated_svd(cores[k].reshape(left * d, right), policy)
        weights.append(dw)
        rank = s.size
        cores[k] = u.reshape(left, d, rank)
        cores[k + 1] = np.tensordot(s[:, None] * v, cores[k + 1], axes=([1], [0]))
    return TensorTrain(cores)


def _split_peak(x: np.ndarray) -> tuple[np.ndarray, int]:
    # x = m * 2**e with the peak of |m| in [0.5, 1); exact, a power of two.
    _, e = np.frexp(np.max(np.abs(x)))
    return np.ldexp(x, -e), int(e)


def _environments(a: TensorTrain, b: TensorTrain) -> tuple[list[np.ndarray], int]:
    # Right environments of <a, b>: envs[i] contracts sites i.. of both
    # trains into an (a bond, b bond) matrix; envs[n] is 1 x 1.  Every core
    # and environment sheds its peak's power of two into ``exponent``, so
    # nothing overflows or underflows, and envs[0] * 2**exponent is <a, b>.
    if a.phys_dims != b.phys_dims:
        raise DimensionError(
            f"physical dimensions differ: {a.phys_dims} vs {b.phys_dims}"
        )
    envs = [np.ones((1, 1))]
    exponent = 0
    for ca, cb in zip(reversed(a.cores), reversed(b.cores)):
        (ca, ea), (cb, eb) = _split_peak(ca), _split_peak(cb)
        tmp = np.tensordot(ca, envs[-1], axes=([2], [0]))  # (la, d, rb)
        env, e = _split_peak(np.tensordot(tmp, cb, axes=([1, 2], [1, 2])))  # (la, lb)
        envs.append(env)
        exponent += ea + eb + e
    return envs[::-1], exponent


def _ldexp_in_range(mantissa: float, exponent: int) -> float:
    try:
        value = ldexp(mantissa, exponent)
    except OverflowError:
        value = inf
    if mantissa != 0.0 and not 0.0 < abs(value) < inf:
        raise NumericalError(f"{mantissa} * 2**{exponent} is outside float64 range")
    return value


def tt_inner(a: TensorTrain, b: TensorTrain) -> float:
    """Dot product of the tensors two trains represent, via transfer contraction.

    Swept from the last site, as :func:`~ttkit.optimize.readout_greedy`
    sweeps.  Raises :class:`NumericalError` outside float64 range.
    """
    envs, exponent = _environments(a, b)
    return _ldexp_in_range(float(envs[0][0, 0]), exponent)


def tt_norm(tt: TensorTrain) -> float:
    """Frobenius norm of the represented tensor.

    Raises :class:`NumericalError` when the norm is outside float64 range.
    """
    envs, exponent = _environments(tt, tt)
    mantissa = float(envs[0][0, 0])
    if exponent % 2:
        mantissa, exponent = 2.0 * mantissa, exponent - 1
    return _ldexp_in_range(sqrt(max(mantissa, 0.0)), exponent // 2)


def tt_scale(tt: TensorTrain, factor: float) -> TensorTrain:
    """Multiply the represented tensor by a scalar (applied to the first core)."""
    cores = list(tt.cores)
    cores[0] = cores[0] * float(factor)
    return TensorTrain(cores)


def tt_add(a: TensorTrain, b: TensorTrain) -> TensorTrain:
    """Elementwise sum of two trains via direct-sum cores (bond dims add)."""
    if a.phys_dims != b.phys_dims:
        raise DimensionError(
            f"physical dimensions differ: {a.phys_dims} vs {b.phys_dims}"
        )
    n = a.n_sites
    if n == 1:
        return TensorTrain([a.cores[0] + b.cores[0]])
    cores = []
    for k, (ca, cb) in enumerate(zip(a.cores, b.cores)):
        la, d, ra = ca.shape
        lb, _, rb = cb.shape
        if k == 0:
            core = np.concatenate([ca, cb], axis=2)
        elif k == n - 1:
            core = np.concatenate([ca, cb], axis=0)
        else:
            core = np.zeros((la + lb, d, ra + rb))
            core[:la, :, :ra] = ca
            core[la:, :, ra:] = cb
        cores.append(core)
    return TensorTrain(cores)


def _apply_cores(op: TensorTrainOperator, state: TensorTrain) -> Iterator[np.ndarray]:
    # Merged cores of ``op`` applied to ``state``, one per site.  Each is one
    # broadcast matrix product that writes it straight in its final
    # ``(op left, state left, out, op right, state right)`` order, so no
    # transpose copy follows.
    if op.in_dims != state.phys_dims:
        raise DimensionError(
            f"operator inputs {op.in_dims} do not match state {state.phys_dims}"
        )
    for w, c in zip(op.cores, state.cores):
        lo, din, dout, ro = w.shape
        ls, _, rs = c.shape
        # (lo, 1, dout*ro, din) @ (1, ls, din, rs) -> (lo, ls, dout*ro, rs)
        w_rows = w.transpose(0, 2, 3, 1).reshape(lo, 1, dout * ro, din)
        merged = w_rows @ c.reshape(1, ls, din, rs)
        yield merged.reshape(lo * ls, dout, ro * rs)


def apply_mpo(op: TensorTrainOperator, state: TensorTrain) -> TensorTrain:
    """Apply an operator train to a state train site by site.

    Bond dimensions multiply link-wise and the result is not rounded;
    ``tt_round(apply_mpo(op, state), policy)`` rounds it.
    """
    return TensorTrain(_apply_cores(op, state))


def identity_mpo(phys_dims: Sequence[int]) -> TensorTrainOperator:
    """Bond-1 operator acting as the identity on each site."""
    cores = [np.eye(int(d)).reshape(1, int(d), int(d), 1) for d in phys_dims]
    return TensorTrainOperator(cores)
