"""Matrix and dense-layer compression through tensor trains.

A matrix is turned into an operator train in five steps: split rows and
columns into factors, interleave so each row factor sits next to its column
factor, group the pairs, run the SVD sweep, and split each physical index
back into its (output, input) pair.  Vectors compress the same way without
the pairing.  A dense layer ``v = A x + c`` then runs entirely in train
form: the input vector is split into a train, the operator is applied, and
the bias is added through direct-sum cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod, sqrt
from typing import Sequence

import numpy as np

from .dense import GroupingPlan, as_tensor, group_indexes, split_index
from .errors import DimensionError
from .tt import (
    DENSE_CAP_DEFAULT,
    TensorTrain,
    TensorTrainOperator,
    TruncationPolicy,
    apply_mpo,
    mpo_to_matrix,
    tt_add,
    tt_round,
    tt_svd,
    tt_to_dense,
)

__all__ = [
    "ShapePlan",
    "CompressedLayer",
    "CompressionReport",
    "matrix_to_mpo",
    "vector_to_mps",
    "compress_layer",
    "apply_compressed_layer",
    "compress_dataset",
]


def _balanced_factors(value: int, sites: int) -> tuple[int, ...]:
    # Distribute the prime factors of `value` over `sites` buckets, largest
    # factor to the currently smallest bucket.
    factors = []
    v, p = value, 2
    while p * p <= v:
        while v % p == 0:
            factors.append(p)
            v //= p
        p += 1
    if v > 1:
        factors.append(v)
    buckets = [1] * sites
    for f in sorted(factors, reverse=True):
        buckets[int(np.argmin(buckets))] *= f
    return tuple(sorted(buckets, reverse=True))


@dataclass(frozen=True)
class ShapePlan:
    """Per-site factorizations of a matrix's rows and columns.

    Site ``i`` of the resulting operator train carries output dimension
    ``row_factors[i]`` and input dimension ``col_factors[i]``.
    """

    row_factors: tuple[int, ...]
    col_factors: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(d) for d in self.row_factors)
        cols = tuple(int(d) for d in self.col_factors)
        object.__setattr__(self, "row_factors", rows)
        object.__setattr__(self, "col_factors", cols)
        if len(rows) != len(cols) or not rows:
            raise DimensionError("row and column factors must have equal nonzero length")
        if any(d < 1 for d in rows + cols):
            raise DimensionError("factor dimensions must be >= 1")

    @property
    def n_sites(self) -> int:
        return len(self.row_factors)

    @property
    def n_rows(self) -> int:
        return prod(self.row_factors)

    @property
    def n_cols(self) -> int:
        return prod(self.col_factors)

    @classmethod
    def balanced(cls, n_rows: int, n_cols: int, sites: int) -> "ShapePlan":
        """Factor both dimensions into ``sites`` roughly equal factors."""
        if sites < 1:
            raise DimensionError("sites must be >= 1")
        return cls(_balanced_factors(int(n_rows), sites), _balanced_factors(int(n_cols), sites))


@dataclass(frozen=True)
class CompressionReport:
    """Parameter counts and accuracy of one compression run."""

    dense_params: int
    compressed_params: int
    relative_error: float
    link_discarded_weights: tuple[float, ...]
    error_is_bound: bool = False

    @property
    def ratio(self) -> float:
        return self.compressed_params / self.dense_params

    @property
    def error_bound(self) -> float:
        return sqrt(sum(self.link_discarded_weights))


@dataclass(frozen=True)
class CompressedLayer:
    """Train-form weights and bias of a dense layer, plus the plan that built them."""

    weights: TensorTrainOperator
    bias: TensorTrain
    plan: ShapePlan
    policy: TruncationPolicy

    def __post_init__(self):
        if self.weights.out_dims != self.bias.phys_dims:
            raise DimensionError(
                f"weight outputs {self.weights.out_dims} do not match "
                f"bias dimensions {self.bias.phys_dims}"
            )
        if self.weights.out_dims != self.plan.row_factors:
            raise DimensionError("weights do not follow the plan's row factors")
        if self.weights.in_dims != self.plan.col_factors:
            raise DimensionError("weights do not follow the plan's column factors")


def matrix_to_mpo(
    a: np.ndarray,
    plan: ShapePlan,
    policy: TruncationPolicy,
    return_weights: bool = False,
) -> TensorTrainOperator | tuple[TensorTrainOperator, list[float]]:
    """Compress a matrix into an operator train following ``plan``."""
    a = as_tensor(a)
    if a.shape != (plan.n_rows, plan.n_cols):
        raise DimensionError(
            f"plan covers a {plan.n_rows}x{plan.n_cols} matrix, got {a.shape}"
        )
    n = plan.n_sites

    # 1) split rows and columns into their factors
    t = split_index(a, 0, plan.row_factors)
    t = split_index(t, n, plan.col_factors)
    # 2-3) pair each row factor with its column factor and group the pairs
    pairing = GroupingPlan(
        t.shape, tuple((i, n + i) for i in range(n))
    )
    t = group_indexes(t, pairing)
    # 4) SVD sweep
    train, weights = tt_svd(t, policy, return_weights=True)
    # 5) split each physical index back into (output, input)
    cores = []
    for i, core in enumerate(train.cores):
        split = split_index(core, 1, (plan.row_factors[i], plan.col_factors[i]))
        cores.append(split.transpose(0, 2, 1, 3))  # (left, in, out, right)
    op = TensorTrainOperator(cores)
    return (op, weights) if return_weights else op


def vector_to_mps(
    c: np.ndarray,
    factor_dims: Sequence[int],
    policy: TruncationPolicy,
    return_weights: bool = False,
) -> TensorTrain | tuple[TensorTrain, list[float]]:
    """Compress a vector into a train over the given site dimensions."""
    c = as_tensor(c)
    if c.ndim != 1:
        raise DimensionError(f"expected a vector, got rank {c.ndim}")
    t = split_index(c, 0, tuple(factor_dims))
    return tt_svd(t, policy, return_weights=return_weights)


def compress_layer(
    a: np.ndarray,
    c: np.ndarray,
    plan: ShapePlan,
    policy: TruncationPolicy,
) -> tuple[CompressedLayer, CompressionReport]:
    """Compress the weights and bias of a dense layer ``v = A x + c``.

    The report counts the dense layer's ``N (M + 1)`` parameters against the
    elements actually stored, and measures the combined relative Frobenius
    error ``sqrt(|A - A'|^2 + |c - c'|^2) / sqrt(|A|^2 + |c|^2)`` by
    densification when the layer has at most ``DENSE_CAP_DEFAULT`` elements;
    otherwise the discarded-weight bound is reported instead.  A bias that is
    not a vector of ``plan.n_rows`` entries raises :class:`DimensionError`.
    """
    a = as_tensor(a)
    c = as_tensor(c)
    if c.shape != (plan.n_rows,):
        raise DimensionError(
            f"bias must have length {plan.n_rows}, got shape {c.shape}"
        )
    weights_op, w_dw = matrix_to_mpo(a, plan, policy, return_weights=True)
    bias_tt, b_dw = vector_to_mps(c, plan.row_factors, policy, return_weights=True)
    layer = CompressedLayer(weights_op, bias_tt, plan, policy)

    dense_params = plan.n_rows * (plan.n_cols + 1)
    compressed_params = weights_op.param_count() + bias_tt.param_count()
    ref_norm_sq = float(np.sum(a**2) + np.sum(c**2))
    if a.size + c.size <= DENSE_CAP_DEFAULT:
        a_err = float(np.sum((mpo_to_matrix(weights_op) - a) ** 2))
        c_err = float(np.sum((tt_to_dense(bias_tt).reshape(-1) - c) ** 2))
        error = sqrt((a_err + c_err) / ref_norm_sq) if ref_norm_sq > 0 else 0.0
        is_bound = False
    else:
        error = (
            sqrt(sum(w_dw) + sum(b_dw)) / sqrt(ref_norm_sq) if ref_norm_sq > 0 else 0.0
        )
        is_bound = True
    report = CompressionReport(
        dense_params=dense_params,
        compressed_params=compressed_params,
        relative_error=error,
        link_discarded_weights=tuple(w_dw) + tuple(b_dw),
        error_is_bound=is_bound,
    )
    return layer, report


def apply_compressed_layer(
    layer: CompressedLayer,
    x: np.ndarray,
) -> np.ndarray:
    """Evaluate ``A x + c`` entirely in train form and return the dense result."""
    x = as_tensor(x)
    if x.shape != (layer.plan.n_cols,):
        raise DimensionError(
            f"input must have length {layer.plan.n_cols}, got shape {x.shape}"
        )
    x_tt = vector_to_mps(x, layer.plan.col_factors, TruncationPolicy.exact())
    out = apply_mpo(layer.weights, x_tt)
    out = tt_round(tt_add(out, layer.bias), layer.policy)
    return tt_to_dense(out).reshape(-1)


def compress_dataset(
    t: np.ndarray,
    factor_dims: Sequence[int],
    policy: TruncationPolicy,
) -> tuple[TensorTrain, CompressionReport]:
    """Reshape a data tensor onto ``factor_dims`` sites and compress it.

    The report's ratio is stored elements over dense elements; it is
    reported truthfully even when it exceeds 1 (no compression without loss).
    """
    t = as_tensor(t)
    dims = tuple(int(d) for d in factor_dims)
    if prod(dims) != t.size:
        raise DimensionError(
            f"factor dims {dims} do not cover {t.size} elements"
        )
    train, dw = tt_svd(t.reshape(dims), policy, return_weights=True)
    ref_norm_sq = float(np.sum(t**2))
    if t.size <= DENSE_CAP_DEFAULT:
        err = float(np.linalg.norm(tt_to_dense(train).reshape(-1) - t.reshape(-1)))
        error = err / sqrt(ref_norm_sq) if ref_norm_sq > 0 else 0.0
        is_bound = False
    else:
        error = sqrt(sum(dw)) / sqrt(ref_norm_sq) if ref_norm_sq > 0 else 0.0
        is_bound = True
    report = CompressionReport(
        dense_params=t.size,
        compressed_params=train.param_count(),
        relative_error=error,
        link_discarded_weights=tuple(dw),
        error_is_bound=is_bound,
    )
    return train, report
