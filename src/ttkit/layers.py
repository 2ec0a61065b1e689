"""Matrix and dense-layer compression through tensor trains.

A matrix is turned into an operator train in five steps: split rows and
columns into factors, interleave so each row factor sits next to its column
factor, group the pairs, run the SVD sweep, and split each physical index
back into its (output, input) pair.  Vectors compress the same way without
the pairing.  A compressed layer evaluates the stored ``A' x + c'``
exactly: the input vector is split into an exact train, the operator's
cores are merged with it site by site and contracted straight to a dense
vector, and the densified bias is added.  The output is not rounded again.
A compression report reads its error from the SVD sweep's discarded
weights, which sum to the squared Frobenius error; nothing is densified to
measure it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, prod, sqrt
from typing import Sequence

import numpy as np

from .dense import GroupingPlan, _check_int, as_tensor, group_indexes, split_index
from .errors import DimensionError, NumericalError
from .tt import (
    TensorTrain,
    TensorTrainOperator,
    TruncationPolicy,
    _apply_cores,
    _contract_chain,
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
    ``row_factors[i]`` and input dimension ``col_factors[i]``.  Factors and
    the arguments of :meth:`balanced` are integers ``>= 1``, never truncated.
    """

    row_factors: tuple[int, ...]
    col_factors: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(_check_int(d, "row factor") for d in self.row_factors)
        cols = tuple(_check_int(d, "column factor") for d in self.col_factors)
        object.__setattr__(self, "row_factors", rows)
        object.__setattr__(self, "col_factors", cols)
        if len(rows) != len(cols) or not rows:
            raise DimensionError("row and column factors must have equal nonzero length")

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
        sites = _check_int(sites, "sites")
        rows, cols = _check_int(n_rows, "n_rows"), _check_int(n_cols, "n_cols")
        return cls(_balanced_factors(rows, sites), _balanced_factors(cols, sites))


@dataclass(frozen=True)
class CompressionReport:
    """Parameter counts and accuracy of one compression run."""

    dense_params: int
    compressed_params: int
    relative_error: float
    link_discarded_weights: tuple[float, ...]

    @property
    def ratio(self) -> float:
        return self.compressed_params / self.dense_params

    @property
    def error_bound(self) -> float:
        """Absolute Frobenius error: the root of the summed discarded weights."""
        return sqrt(sum(self.link_discarded_weights))


def _report(
    dense_params: int,
    compressed_params: int,
    link_weights: Sequence[float],
    ref_norm_sq: float,
) -> CompressionReport:
    # Each link of the left-to-right sweep discards a part orthogonal to
    # everything later links keep, so the discarded weights sum to the
    # squared Frobenius error.  Entries past about 1e154 overflow those
    # squares, and then no error can be reported.
    if not (isfinite(sum(link_weights)) and isfinite(ref_norm_sq)):
        raise NumericalError("squared norms overflow float64, so the error cannot be reported")
    err = sqrt(sum(link_weights))
    relative = err / sqrt(ref_norm_sq) if ref_norm_sq > 0 else 0.0
    return CompressionReport(dense_params, compressed_params, relative, tuple(link_weights))


@dataclass(frozen=True)
class CompressedLayer:
    """Train-form weights and bias of a dense layer.

    The weights' input and output dims are the plan's column and row
    factors; the bias is a train over the output dims.
    """

    weights: TensorTrainOperator
    bias: TensorTrain

    def __post_init__(self):
        if self.weights.out_dims != self.bias.phys_dims:
            raise DimensionError(
                f"weight outputs {self.weights.out_dims} do not match "
                f"bias dimensions {self.bias.phys_dims}"
            )


def matrix_to_mpo(
    a: np.ndarray,
    plan: ShapePlan,
    policy: TruncationPolicy,
    *,
    discarded: list[float] | None = None,
) -> TensorTrainOperator:
    """Compress a matrix into an operator train following ``plan``.

    A ``discarded`` list gains the sweep's link weights, as in ``tt_svd``.
    """
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
    train = tt_svd(t, policy, discarded=discarded)
    # 5) split each physical index back into (output, input)
    cores = []
    for i, core in enumerate(train.cores):
        split = split_index(core, 1, (plan.row_factors[i], plan.col_factors[i]))
        cores.append(split.transpose(0, 2, 1, 3))  # (left, in, out, right)
    return TensorTrainOperator(cores)


def vector_to_mps(
    c: np.ndarray,
    factor_dims: Sequence[int],
    policy: TruncationPolicy,
    *,
    discarded: list[float] | None = None,
) -> TensorTrain:
    """Compress a vector into a train over the given site dimensions.

    A ``discarded`` list gains the sweep's link weights, as in ``tt_svd``.
    """
    c = as_tensor(c)
    if c.ndim != 1:
        raise DimensionError(f"expected a vector, got rank {c.ndim}")
    t = split_index(c, 0, tuple(factor_dims))
    return tt_svd(t, policy, discarded=discarded)


def compress_layer(
    a: np.ndarray,
    c: np.ndarray,
    plan: ShapePlan,
    policy: TruncationPolicy,
) -> tuple[CompressedLayer, CompressionReport]:
    """Compress the weights and bias of a dense layer ``v = A x + c``.

    The report counts the dense layer's ``N (M + 1)`` parameters against the
    elements actually stored, and gives the combined relative Frobenius error
    ``sqrt(|A - A'|^2 + |c - c'|^2) / sqrt(|A|^2 + |c|^2)``, which equals the
    square root of the summed discarded weights of both sweeps over the
    reference norm, at any size.  A bias that is not a vector of
    ``plan.n_rows`` entries raises :class:`DimensionError`.
    """
    a = as_tensor(a)
    c = as_tensor(c)
    if c.shape != (plan.n_rows,):
        raise DimensionError(
            f"bias must have length {plan.n_rows}, got shape {c.shape}"
        )
    dw: list[float] = []
    weights_op = matrix_to_mpo(a, plan, policy, discarded=dw)
    bias_tt = vector_to_mps(c, plan.row_factors, policy, discarded=dw)
    layer = CompressedLayer(weights_op, bias_tt)
    report = _report(
        plan.n_rows * (plan.n_cols + 1),
        weights_op.param_count() + bias_tt.param_count(),
        dw,
        float(np.sum(a**2) + np.sum(c**2)),
    )
    return layer, report


def apply_compressed_layer(
    layer: CompressedLayer,
    x: np.ndarray,
) -> np.ndarray:
    """Evaluate the stored layer's ``A' x + c'`` exactly, as a dense vector.

    The input is split into an exact train, and the weight train's merged
    cores are contracted with it straight to a dense vector; the densified
    bias is added, with no rounding.
    """
    x = as_tensor(x)
    in_dims = layer.weights.in_dims
    if x.shape != (prod(in_dims),):
        raise DimensionError(
            f"input must have length {prod(in_dims)}, got shape {x.shape}"
        )
    x_tt = vector_to_mps(x, in_dims, TruncationPolicy.exact())
    y = _contract_chain(list(_apply_cores(layer.weights, x_tt)))
    return y + tt_to_dense(layer.bias).reshape(-1)


def compress_dataset(
    t: np.ndarray,
    factor_dims: Sequence[int],
    policy: TruncationPolicy,
) -> tuple[TensorTrain, CompressionReport]:
    """Reshape a data tensor onto ``factor_dims`` sites and compress it.

    ``factor_dims`` are integers ``>= 1``, never truncated, with product
    ``t.size``.  The report's ratio is stored elements over dense elements;
    it is reported truthfully even when it exceeds 1 (no compression without
    loss).  Its relative error ``|T - T'| / |T|`` is the square root of the
    summed discarded weights over ``|T|``, at any size.
    """
    t = as_tensor(t)
    dims = tuple(_check_int(d, "factor dimension") for d in factor_dims)
    if prod(dims) != t.size:
        raise DimensionError(
            f"factor dims {dims} do not cover {t.size} elements"
        )
    dw: list[float] = []
    train = tt_svd(t.reshape(dims), policy, discarded=dw)
    report = _report(t.size, train.param_count(), dw, float(np.sum(t**2)))
    return train, report
