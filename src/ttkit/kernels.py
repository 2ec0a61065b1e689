"""Implicit product-kernel feature maps and their contraction with MPO layers.

A product feature map sends an input vector to the outer product of small
per-component vectors, a tensor of ``d^N`` entries that is never stored:
it lives as one vector per site.  Applying an operator train to it absorbs
each site vector into its operator core and merges along the bonds, left to
right, so the only open indexes ever carried are the operator's output
indexes and one bond.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from math import cos, pi, prod, sin
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericalError
from .tt import DENSE_CAP_DEFAULT, TensorTrain, TensorTrainOperator, tt_to_dense
from .tt import _check_dense_size

__all__ = [
    "SiteKernel",
    "product_kernel",
    "cosine_kernel",
    "SITE_KERNELS",
    "ProductState",
    "product_feature_map",
    "apply_mpo_to_product",
]


@dataclass(frozen=True)
class SiteKernel:
    """Map from one real input component to a fixed-length feature vector.

    ``func`` returns a flat sequence of ``dim`` floats.
    """

    dim: int
    func: Callable[[float], Sequence[float]]
    name: str = ""

    def __call__(self, x: float) -> np.ndarray:
        vec = np.asarray(self.func(float(x)), dtype=np.float64).reshape(-1)
        _check_features(vec, [vec.size], [self])
        return vec


def _check_features(values: np.ndarray, sizes: list[int], kernels: Sequence[SiteKernel]) -> None:
    """Raise unless each site returned its kernel's ``dim`` features, all finite.

    ``values`` holds every site's features back to back; ``sizes`` is how
    many each site returned.
    """
    if sizes != [k.dim for k in kernels]:
        size, k = next((s, k) for s, k in zip(sizes, kernels) if s != k.dim)
        raise DimensionError(
            f"kernel {k.name or k.func!r} returned ({size},), expected ({k.dim},)"
        )
    if not np.isfinite(values).all():
        raise NumericalError("kernel produced non-finite features")


def product_kernel() -> SiteKernel:
    """Features ``(x, 1)``: the global map enumerates every product of components."""
    return SiteKernel(2, lambda x: (x, 1.0), name="product")


def cosine_kernel() -> SiteKernel:
    """Features ``(cos(pi x / 2), sin(pi x / 2))`` for inputs scaled to [0, 1].

    A conventional choice of trigonometric map; the exact form is not
    normative and classifier training on top of it is out of scope.
    """
    return SiteKernel(2, lambda x: (cos(pi * x / 2.0), sin(pi * x / 2.0)), name="cosine")


SITE_KERNELS: dict[str, Callable[[], SiteKernel]] = {
    "product": product_kernel,
    "cosine": cosine_kernel,
}


@dataclass(frozen=True)
class ProductState:
    """One vector per site; densifies to the outer product of the vectors."""

    vectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        vecs = tuple(
            np.ascontiguousarray(v, dtype=np.float64).reshape(-1) for v in self.vectors
        )
        if not vecs:
            raise DimensionError("product state needs at least one site")
        object.__setattr__(self, "vectors", vecs)

    @property
    def n_sites(self) -> int:
        return len(self.vectors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.vectors)

    def to_tt(self) -> TensorTrain:
        """The same state as a bond-1 tensor train."""
        return TensorTrain([v.reshape(1, -1, 1) for v in self.vectors])

    def to_dense(self, max_elements: int = DENSE_CAP_DEFAULT) -> np.ndarray:
        """The outer product of the vectors: :meth:`to_tt` densified by ``tt_to_dense``.

        Raises :class:`~ttkit.errors.CapacityError` past ``max_elements``.
        """
        return tt_to_dense(self.to_tt(), max_elements)


def product_feature_map(x: Sequence[float], kernels: Sequence[SiteKernel]) -> ProductState:
    """Evaluate one kernel per input component, keeping the result implicit.

    ``x`` must be one-dimensional.  Every site's features are gathered into
    one float64 array and checked there, once; the product state holds
    views of that array.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"input must be a vector, got rank {x.ndim}")
    if x.size != len(kernels):
        raise DimensionError(
            f"{x.size} input components but {len(kernels)} site kernels"
        )
    rows = [k.func(xi) for k, xi in zip(kernels, x.tolist())]
    sizes = [len(row) for row in rows]
    bounds = list(accumulate(sizes, initial=0))
    values = np.fromiter(chain.from_iterable(rows), dtype=np.float64, count=bounds[-1])
    _check_features(values, sizes, kernels)
    return ProductState(tuple(values[a:b] for a, b in zip(bounds, bounds[1:])))


def apply_mpo_to_product(
    op: TensorTrainOperator,
    ps: ProductState,
    return_trace: bool = False,
) -> np.ndarray | tuple[np.ndarray, list[int]]:
    """Contract an operator train with a product state, site by site.

    Alternates absorbing a site vector into its operator core with merging
    the new node into the running contraction, strictly left to right.  Each
    step is one matrix product (a matrix-vector product for the absorb), so a
    site costs two BLAS calls and no transpose.  The result has the
    operator's output indexes; with ``return_trace`` the element count of
    every intermediate is also returned, per site the node's ``left * out *
    right`` and then the running result's ``outputs so far * right``.  It
    stays linear in the number of sites for fixed output size and bond
    dimension.  More than ``DENSE_CAP_DEFAULT`` outputs raise
    :class:`~ttkit.errors.CapacityError` before any contraction.
    """
    if op.in_dims != ps.dims:
        raise DimensionError(
            f"operator inputs {op.in_dims} do not match feature dims {ps.dims}"
        )
    _check_dense_size(prod(op.out_dims), DENSE_CAP_DEFAULT, "kernel output")
    trace: list[int] = []
    acc = np.ones((1, 1))  # (outputs so far, bond)
    for core, vec in zip(op.cores, ps.vectors):
        left, din, dout, right = core.shape
        node = vec @ core.reshape(left, din, dout * right)  # (left, out * right)
        trace.append(node.size)
        acc = acc.reshape(-1, left) @ node
        trace.append(acc.size)
    result = acc.reshape(op.out_dims)
    return (result, trace) if return_trace else result
