"""Dense tensors and index bookkeeping.

Tensors are plain ``numpy.ndarray`` objects of float64 in row-major order
(last index fastest).  Everything in this module is a pure function; inputs
are never modified.  These operations are the exact substrate the rest of
the toolkit is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import inf, prod
from typing import Sequence

import numpy as np

from .errors import DimensionError

__all__ = [
    "as_tensor",
    "frobenius_norm",
    "permute",
    "GroupingPlan",
    "group_indexes",
    "ungroup_indexes",
    "split_index",
    "contract_pair",
]


def _contiguous(t: np.ndarray) -> np.ndarray:
    # ascontiguousarray promotes rank 0 to rank 1; keep scalars scalar.
    return t if t.ndim == 0 else np.ascontiguousarray(t)


def as_tensor(values) -> np.ndarray:
    """Coerce ``values`` to a row-major float64 array.

    Rank 0 (a scalar) is allowed; zero-length dimensions are not.
    """
    t = np.asarray(values, dtype=np.float64)
    if any(n < 1 for n in t.shape):
        raise DimensionError(f"every dimension must be >= 1, got shape {t.shape}")
    return _contiguous(t)


def _check_int(n, what: str, minimum: int = 1, error: type[ValueError] = DimensionError) -> int:
    # The one rule for a size or count (minimum 1), an index (minimum 0) and
    # an integer setting: a Python or numpy integer, never a bool or truncated.
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < minimum:
        raise error(f"{what} must be an integer >= {minimum}, got {n!r}")
    return int(n)


def _check_real(x, what: str, positive: bool = False) -> None:
    # The one rule for a real setting: a finite Python or numpy real, never a bool.
    real = isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
    if not (real and (x > 0 if positive else x >= 0) and x < inf):
        raise ValueError(f"{what} must be finite and {'>' if positive else '>='} 0, got {x!r}")


def frobenius_norm(t: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64).ravel()))


def _check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    perm = tuple(_check_int(p, "axis", 0) for p in perm)
    if sorted(perm) != list(range(n)):
        raise DimensionError(f"{perm} is not a permutation of {n} axes")
    return perm


def permute(t: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Reorder the axes of ``t`` so that output axis ``k`` is input axis ``perm[k]``."""
    t = as_tensor(t)
    perm = _check_permutation(perm, t.ndim)
    return _contiguous(np.transpose(t, perm))


@dataclass(frozen=True)
class GroupingPlan:
    """A bijective merge of tensor indexes.

    ``groups`` lists source index positions and must use every position
    once.  The source axes are first permuted into the concatenated group
    order (:attr:`permutation`), so the positions of each group are
    adjacent, and each group is merged into one index whose dimension is the
    product of its members.  The merged index enumerates its constituents
    row-major (first constituent slowest).
    """

    source_shape: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = tuple(_check_int(n, "dimension") for n in self.source_shape)
        groups = tuple(tuple(_check_int(p, "axis", 0) for p in g) for g in self.groups)
        object.__setattr__(self, "source_shape", shape)
        object.__setattr__(self, "groups", groups)
        if any(len(g) == 0 for g in groups):
            raise DimensionError("empty group in grouping plan")
        _check_permutation(self.permutation, len(shape))

    @property
    def permutation(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self.groups))

    @property
    def grouped_shape(self) -> tuple[int, ...]:
        return tuple(prod(self.source_shape[p] for p in g) for g in self.groups)


def group_indexes(t: np.ndarray, plan: GroupingPlan) -> np.ndarray:
    """Merge indexes of ``t`` according to ``plan``.

    The element multiset is preserved; this is a pure relabeling.
    """
    t = as_tensor(t)
    if t.shape != plan.source_shape:
        raise DimensionError(
            f"plan expects shape {plan.source_shape}, tensor has {t.shape}"
        )
    return permute(t, plan.permutation).reshape(plan.grouped_shape)


def ungroup_indexes(t: np.ndarray, plan: GroupingPlan) -> np.ndarray:
    """Exact inverse of :func:`group_indexes` for the same plan."""
    t = as_tensor(t)
    if t.shape != plan.grouped_shape:
        raise DimensionError(
            f"plan produces shape {plan.grouped_shape}, tensor has {t.shape}"
        )
    permuted_shape = tuple(plan.source_shape[p] for p in plan.permutation)
    expanded = t.reshape(permuted_shape)
    inverse = np.argsort(plan.permutation)
    return permute(expanded, inverse)


def split_index(t: np.ndarray, axis: int, factor_dims: Sequence[int]) -> np.ndarray:
    """Factor one index of ``t`` into several, row-major sub-enumeration.

    Inverse of grouping those positions back together.  ``axis`` (which may
    count from the end) and the factors are integers, never truncated, and
    the factors multiply to ``t.shape[axis]``; else :class:`DimensionError`.
    """
    t = as_tensor(t)
    axis = _check_int(axis, "axis", -t.ndim)
    if axis >= t.ndim:
        raise DimensionError(f"axis {axis} out of range for rank {t.ndim}")
    axis %= t.ndim
    factors = tuple(_check_int(d, "factor dimension") for d in factor_dims)
    if prod(factors) != t.shape[axis]:
        raise DimensionError(
            f"factors {factors} do not multiply to axis dimension {t.shape[axis]}"
        )
    new_shape = t.shape[:axis] + factors + t.shape[axis + 1 :]
    return t.reshape(new_shape)


def contract_pair(
    a: np.ndarray,
    b: np.ndarray,
    axis_pairs: Sequence[tuple[int, int]],
) -> np.ndarray:
    """Sum over paired axes of the elementwise product of ``a`` and ``b``.

    The result keeps the remaining axes of ``a`` followed by those of ``b``,
    each in original order.  An empty ``axis_pairs`` is the tensor product.
    """
    a = as_tensor(a)
    b = as_tensor(b)
    axes_a = [_check_int(i, "axis", 0) for i, _ in axis_pairs]
    axes_b = [_check_int(j, "axis", 0) for _, j in axis_pairs]
    if len(set(axes_a)) != len(axes_a) or len(set(axes_b)) != len(axes_b):
        raise DimensionError("an axis may be contracted at most once")
    for i, j in zip(axes_a, axes_b):
        if not (i < a.ndim and j < b.ndim):
            raise DimensionError(f"axis pair ({i}, {j}) out of range")
        if a.shape[i] != b.shape[j]:
            raise DimensionError(
                f"contracted axes disagree: a.shape[{i}]={a.shape[i]} vs "
                f"b.shape[{j}]={b.shape[j]}"
            )
    return _contiguous(np.tensordot(a, b, axes=(axes_a, axes_b)))
