"""Contraction networks: labeled tensors wired by shared indexes.

The result of contracting a valid network is independent of the pairwise
order used; the default order is a greedy heuristic that always contracts
the pair of connected nodes producing the smallest intermediate, which is
adequate at the scales this toolkit targets.  Callers may override it with
an explicit pairwise path.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .dense import _check_int, as_tensor, contract_pair
from .errors import NetworkError

__all__ = ["ContractionNetwork", "contract_network"]

Leg = tuple[str, int]


@dataclass(frozen=True)
class ContractionNetwork:
    """Nodes, pairwise edges, and the output order of the free legs.

    Every axis of every node must appear in exactly one edge or exactly once
    in ``free_legs``.  Edges between two axes of the same node (traces) are
    allowed.
    """

    nodes: dict[str, np.ndarray]
    edges: tuple[tuple[Leg, Leg], ...]
    free_legs: tuple[Leg, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "nodes", {str(k): as_tensor(v) for k, v in self.nodes.items()}
        )
        norm = lambda leg: (str(leg[0]), _check_int(leg[1], "axis", 0, NetworkError))
        object.__setattr__(
            self, "edges", tuple((norm(x), norm(y)) for x, y in self.edges)
        )
        object.__setattr__(self, "free_legs", tuple(norm(leg) for leg in self.free_legs))
        self.validate()

    def _dim(self, leg: Leg) -> int:
        name, axis = leg
        if name not in self.nodes:
            raise NetworkError(f"unknown node {name!r}")
        t = self.nodes[name]
        if axis >= t.ndim:
            raise NetworkError(f"node {name!r} has no axis {axis} (rank {t.ndim})")
        return t.shape[axis]

    def validate(self) -> None:
        if not self.nodes:
            raise NetworkError("network has no nodes")
        seen: set[Leg] = set()
        for a, b in self.edges:
            da, db = self._dim(a), self._dim(b)
            if da != db:
                raise NetworkError(f"edge {a}--{b} pairs dimensions {da} != {db}")
            for leg in (a, b):
                if leg in seen:
                    raise NetworkError(f"axis {leg} used more than once")
                seen.add(leg)
        for leg in self.free_legs:
            self._dim(leg)
            if leg in seen:
                raise NetworkError(f"axis {leg} used more than once")
            seen.add(leg)
        for name, t in self.nodes.items():
            for axis in range(t.ndim):
                if (name, axis) not in seen:
                    raise NetworkError(f"axis ({name!r}, {axis}) is dangling")


def _trace_self_edges(tensor: np.ndarray, legs: list[object]) -> tuple[np.ndarray, list[object]]:
    # A repeated leg id on one node is a trace over that index pair.
    while True:
        dup = None
        for i, leg in enumerate(legs):
            if leg in legs[i + 1 :]:
                dup = (i, legs.index(leg, i + 1))
                break
        if dup is None:
            return tensor, legs
        i, j = dup
        tensor = np.asarray(np.trace(tensor, axis1=i, axis2=j))
        legs = [leg for k, leg in enumerate(legs) if k not in (i, j)]


class _LiveNetwork:
    """Mutable contraction state: node name -> (tensor, leg ids)."""

    def __init__(self, net: ContractionNetwork):
        leg_ids: dict[Leg, object] = {}
        for k, (a, b) in enumerate(net.edges):
            leg_ids[a] = leg_ids[b] = ("edge", k)
        self.free_order = []
        for k, leg in enumerate(net.free_legs):
            leg_ids[leg] = ("free", k)
            self.free_order.append(("free", k))
        self.live: dict[str, tuple[np.ndarray, list[object]]] = {}
        for name, tensor in net.nodes.items():
            legs = [leg_ids[(name, axis)] for axis in range(tensor.ndim)]
            self.live[name] = _trace_self_edges(tensor, legs)

    def shared(self, a: str, b: str) -> list[object]:
        legs_b = set(self.live[b][1])
        return [leg for leg in self.live[a][1] if leg in legs_b]

    def result_size(self, a: str, b: str) -> int:
        ta, la = self.live[a]
        tb, lb = self.live[b]
        shared = set(self.shared(a, b))
        dims = [ta.shape[i] for i, leg in enumerate(la) if leg not in shared]
        dims += [tb.shape[i] for i, leg in enumerate(lb) if leg not in shared]
        return prod(dims) if dims else 1

    def contract(self, a: str, b: str) -> None:
        if a not in self.live or b not in self.live:
            raise NetworkError(f"path refers to missing node {a!r} or {b!r}")
        if a == b:
            raise NetworkError("path pair must name two distinct nodes")
        ta, la = self.live[a]
        tb, lb = self.live[b]
        shared = self.shared(a, b)
        pairs = [(la.index(leg), lb.index(leg)) for leg in shared]
        merged = contract_pair(ta, tb, pairs)
        legs = [leg for leg in la if leg not in shared]
        legs += [leg for leg in lb if leg not in shared]
        del self.live[b]
        self.live[a] = _trace_self_edges(merged, legs)

    def greedy_step(self) -> None:
        names = list(self.live)
        best = None
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if not self.shared(a, b):
                    continue
                size = self.result_size(a, b)
                if best is None or size < best[0]:
                    best = (size, a, b)
        if best is None:
            # Disconnected components: tensor-product the two smallest nodes.
            names.sort(key=lambda n: self.live[n][0].size)
            best = (0, names[0], names[1])
        self.contract(best[1], best[2])

    def finish(self) -> np.ndarray:
        ((tensor, legs),) = self.live.values()
        if sorted(map(str, legs)) != sorted(map(str, self.free_order)):
            raise NetworkError("contraction did not close all edges")
        perm = [legs.index(leg) for leg in self.free_order]
        out = np.transpose(tensor, perm)
        return out if out.ndim == 0 else np.ascontiguousarray(out)


def contract_network(
    net: ContractionNetwork,
    path: Sequence[tuple[str, str]] | None = None,
) -> np.ndarray:
    """Contract ``net`` down to a single tensor with axes in free-leg order.

    ``path`` optionally fixes the pairwise order as a sequence of node-name
    pairs; each step replaces the first named node with the merged result.
    """
    state = _LiveNetwork(net)
    if path is not None:
        for a, b in path:
            state.contract(str(a), str(b))
        if len(state.live) != 1:
            raise NetworkError(f"path leaves {len(state.live)} nodes uncontracted")
    else:
        while len(state.live) > 1:
            state.greedy_step()
    return state.finish()
