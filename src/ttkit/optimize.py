"""Quantum-inspired solver for nearest-neighbor discrete optimization.

The cost of an assignment ``x`` is a sum of per-variable tables and
nearest-neighbor coupling tables.  Starting from a uniform superposition,
every configuration is damped exponentially by its cost, so the optimum
carries the largest amplitude; because ``exp(-tau * cost)`` is strictly
decreasing in cost, exact readout returns the true minimizer for any
positive damping strength.  The damped state is built directly as a train
of bond dimension ``d`` whose cores copy each site's value across the bond,
which is exact.  Constraint layers (counter operators of bond ``k + 1``)
zero out configurations that use a value more than its allowed count; with
one layer per value this yields permutation-style non-repetition, the
encoding used for route optimization.  A closed tour fixes its start at
node 0, so only the other ``n - 1`` nodes take a site.

Magnitudes are kept in range by factoring the largest entry out of each
core into an accumulated log scale, so relative amplitudes are preserved
without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from math import log
from typing import Sequence

import numpy as np

from .dense import as_tensor
from .errors import (
    CapacityError,
    DimensionError,
    InfeasibilityError,
    NumericalError,
)
from .tt import (
    DENSE_CAP_DEFAULT,
    TensorTrain,
    TensorTrainOperator,
    TruncationPolicy,
    apply_mpo,
    tt_norm,
    tt_round,
    tt_to_dense,
)

__all__ = [
    "QudoProblem",
    "IteConfig",
    "AmplitudeState",
    "Solution",
    "uniform_state",
    "ite_state",
    "non_repetition_layer",
    "apply_non_repetition",
    "readout_exact",
    "readout_greedy",
    "solve_qudo",
    "solve_tsp",
    "brute_force_qudo",
    "brute_force_tsp",
]

BRUTE_FORCE_CAP = 10**7
BRUTE_FORCE_TSP_MAX_NODES = 9


@dataclass(frozen=True)
class QudoProblem:
    """Nearest-neighbor discrete cost model over a chain of variables.

    ``cost(x) = sum_i local[i][x_i] + sum_i coupling[i][x_i, x_{i+1}]``
    with ``n`` variables of uniform cardinality ``d``.
    """

    local: tuple[np.ndarray, ...]
    coupling: tuple[np.ndarray, ...]

    def __post_init__(self):
        local = tuple(as_tensor(v) for v in self.local)
        coupling = tuple(as_tensor(w) for w in self.coupling)
        object.__setattr__(self, "local", local)
        object.__setattr__(self, "coupling", coupling)
        if not local:
            raise DimensionError("problem needs at least one variable")
        d = local[0].size
        if d < 2:
            raise DimensionError("variable cardinality must be >= 2")
        for i, v in enumerate(local):
            if v.shape != (d,):
                raise DimensionError(f"local table {i} has shape {v.shape}, expected ({d},)")
        if len(coupling) != len(local) - 1:
            raise DimensionError(
                f"expected {len(local) - 1} coupling tables, got {len(coupling)}"
            )
        for i, w in enumerate(coupling):
            if w.shape != (d, d):
                raise DimensionError(
                    f"coupling table {i} has shape {w.shape}, expected ({d}, {d})"
                )
        for t in local + coupling:
            if not np.all(np.isfinite(t)):
                raise NumericalError("cost tables must be finite")

    @property
    def n(self) -> int:
        return len(self.local)

    @property
    def d(self) -> int:
        return self.local[0].size

    def cost(self, configuration) -> float:
        x = [int(v) for v in configuration]
        if len(x) != self.n or any(not 0 <= v < self.d for v in x):
            raise DimensionError(f"configuration {x} does not fit n={self.n}, d={self.d}")
        total = sum(float(self.local[i][x[i]]) for i in range(self.n))
        total += sum(
            float(self.coupling[i][x[i], x[i + 1]]) for i in range(self.n - 1)
        )
        return total

    def spread(self) -> float:
        """Sum of per-table cost ranges; an upper bound on max - min cost."""
        ranges = [float(np.ptp(t)) for t in self.local + self.coupling]
        return sum(ranges)


@dataclass(frozen=True)
class IteConfig:
    """Damping strength, rounding policy, and readout mode for the solver.

    ``tau=None`` picks the default damping: the problem's cost spread is
    normalized to one and ``tau=10`` applied, which keeps amplitudes well
    inside float64 range without affecting the exact-readout argmax.
    """

    tau: float | None = None
    policy: TruncationPolicy = field(default_factory=TruncationPolicy.exact)
    readout: str = "exact"
    dense_cap: int = DENSE_CAP_DEFAULT

    def __post_init__(self):
        if self.tau is not None and not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.readout not in ("exact", "greedy"):
            raise ValueError(f"unknown readout mode {self.readout!r}")
        if self.dense_cap < 1:
            raise ValueError("dense_cap must be >= 1")

    def effective_tau(self, problem: QudoProblem) -> float:
        if self.tau is not None:
            return self.tau
        spread = problem.spread()
        return 10.0 / spread if spread > 0 else 10.0


@dataclass(frozen=True)
class Solution:
    """An assignment, its recomputed cost, and which method produced it."""

    configuration: tuple[int, ...]
    cost: float
    method: str

    def __post_init__(self):
        object.__setattr__(
            self, "configuration", tuple(int(v) for v in self.configuration)
        )


@dataclass(frozen=True)
class AmplitudeState:
    """A train of relative amplitudes plus the log of the factored-out scale.

    True amplitudes are the densified train times ``exp(log_scale)``; only
    ratios matter for readout, so the exponential is never re-applied.
    """

    state: TensorTrain
    log_scale: float = 0.0

    @property
    def n_sites(self) -> int:
        return self.state.n_sites

    @property
    def dims(self) -> tuple[int, ...]:
        return self.state.phys_dims

    def dense_amplitudes(self, max_elements: int = DENSE_CAP_DEFAULT) -> np.ndarray:
        """Densified relative amplitudes (global scale ``exp(log_scale)`` not applied)."""
        return tt_to_dense(self.state, max_elements)


def _rescaled(cores: Sequence[np.ndarray]) -> tuple[TensorTrain, float]:
    # Factor the peak magnitude out of every core; the product of the factors
    # moves into the log scale.
    shift = 0.0
    out = []
    for core in cores:
        peak = float(np.max(np.abs(core)))
        if peak == 0.0:
            raise InfeasibilityError("state collapsed to zero")
        out.append(core / peak)
        shift += log(peak)
    return TensorTrain(out), shift


def uniform_state(n: int, d: int) -> AmplitudeState:
    """Equal amplitude on every configuration, unit norm, all bonds 1."""
    if n < 1 or d < 2:
        raise DimensionError("need n >= 1 sites of cardinality d >= 2")
    core = np.full((1, d, 1), 1.0 / np.sqrt(d))
    return AmplitudeState(TensorTrain([core] * n), 0.0)


def ite_state(problem: QudoProblem, cfg: IteConfig = IteConfig()) -> AmplitudeState:
    """Damped superposition: amplitude(x) proportional to ``exp(-tau * cost(x))``.

    Built directly as a train of bond dimension ``d``: each core is diagonal
    in (physical value, right bond) so the bond carries the site's value to
    the next coupling table.  The construction is exact.
    """
    tau = cfg.effective_tau(problem)
    n, d = problem.n, problem.d
    cores = []
    log_scale = 0.0
    for i in range(n):
        exponents = -tau * problem.local[i][None, :]  # (left values, site values)
        if i > 0:
            exponents = exponents - tau * problem.coupling[i - 1]
        peak = float(np.max(exponents))
        log_scale += peak
        damp = np.exp(exponents - peak)
        left = damp.shape[0]
        if i == n - 1:
            core = damp.reshape(left, d, 1)
        else:
            core = np.zeros((left, d, d))
            for x in range(d):
                core[:, x, x] = damp[:, x]
        cores.append(core)
    return AmplitudeState(TensorTrain(cores), log_scale)


def non_repetition_layer(
    n: int, d: int, value: int, max_count: int = 1
) -> TensorTrainOperator:
    """Counter operator that zeroes configurations using ``value`` more than ``max_count`` times.

    Diagonal in the physical index; the bond (dimension ``max_count + 1``)
    counts occurrences seen so far and offers no transition past the cap.
    """
    if not 0 <= value < d:
        raise DimensionError(f"value {value} out of range for cardinality {d}")
    if max_count < 0:
        raise DimensionError("max_count must be >= 0")
    states = max_count + 1
    mid = np.zeros((states, d, d, states))
    for a in range(states):
        for x in range(d):
            if x == value:
                if a < max_count:
                    mid[a, x, x, a + 1] = 1.0
            else:
                mid[a, x, x, a] = 1.0
    first = mid[0:1]
    last = mid.sum(axis=3, keepdims=True)
    if n == 1:
        return TensorTrainOperator([first.sum(axis=3, keepdims=True)])
    return TensorTrainOperator([first] + [mid] * (n - 2) + [last])


def apply_non_repetition(
    s: AmplitudeState,
    policy: TruncationPolicy = TruncationPolicy(),
    max_counts=None,
) -> AmplitudeState:
    """Apply one counter layer per value, rounding with ``policy`` after each layer.

    Configurations that exceed any value's allowed count end with amplitude
    zero; all others keep their previous ratios.  ``max_counts`` gives a
    per-value occurrence cap (default 1 everywhere, i.e. no repetitions).
    """
    dims = s.dims
    d = dims[0]
    if any(dim != d for dim in dims):
        raise DimensionError(f"sites must share one cardinality, got {dims}")
    n = s.n_sites
    counts = [1] * d if max_counts is None else [int(k) for k in max_counts]
    if len(counts) != d or any(k < 0 for k in counts):
        raise DimensionError(f"max_counts must hold {d} nonnegative entries")
    if sum(counts) < n:
        raise InfeasibilityError(
            f"allowed occurrences sum to {sum(counts)} < {n} sites; nothing can survive"
        )
    state, log_scale = s.state, s.log_scale
    for value in range(d):
        layer = non_repetition_layer(n, d, value, counts[value])
        state, shift = _rescaled(apply_mpo(layer, state).cores)
        state, shift2 = _rescaled(tt_round(state, policy).cores)
        log_scale += shift + shift2
    if tt_norm(state) == 0.0:
        raise InfeasibilityError("constraint layers eliminated every configuration")
    return AmplitudeState(state, log_scale)


def readout_exact(s: AmplitudeState, max_elements: int = DENSE_CAP_DEFAULT) -> tuple[int, ...]:
    """Configuration with the largest amplitude magnitude, by densified argmax.

    Ties break to the lexicographically smallest configuration.
    """
    amp = s.dense_amplitudes(max_elements)
    np.abs(amp, out=amp)
    flat = int(np.argmax(amp))
    return tuple(int(i) for i in np.unravel_index(flat, amp.shape))


def readout_greedy(s: AmplitudeState) -> tuple[int, ...]:
    """Site-by-site conditional maximization of the squared amplitude.

    Fixes each site to the value maximizing the marginal squared amplitude
    given all earlier choices.  Exact on product states; on correlated
    states it may return a suboptimal (but always nonzero-amplitude)
    configuration.
    """
    cores = s.state.cores
    n = len(cores)
    right = [np.ones((1, 1))] * (n + 1)
    for i in range(n - 1, -1, -1):
        # env[a, b] = sum_{x, r, r'} core[a, x, r] right[r, r'] core[b, x, r']
        tmp = np.tensordot(cores[i], right[i + 1], axes=([2], [0]))
        env = np.tensordot(tmp, cores[i], axes=([1, 2], [1, 2]))
        peak = float(np.max(np.abs(env)))
        right[i] = env / peak if peak > 0 else env
    left = np.ones((1, 1))
    config = []
    for i in range(n):
        tmp = np.tensordot(left, cores[i], axes=([0], [0]))  # (b, x, r)
        tmp = np.tensordot(tmp, right[i + 1], axes=([2], [0]))  # (b, x, r')
        scores = np.sum(tmp * cores[i], axis=(0, 2))
        if float(np.max(scores)) <= 0.0:
            raise InfeasibilityError("greedy readout ran out of nonzero amplitudes")
        choice = int(np.argmax(scores))
        config.append(choice)
        slice_ = cores[i][:, choice, :]
        left = slice_.T @ left @ slice_
        left = left / float(np.max(np.abs(left)))
    return tuple(config)


def _solve(problem: QudoProblem, cfg: IteConfig, constrain=None) -> tuple[tuple[int, ...], str]:
    # Exact readout densifies all d**n amplitudes, so an oversized problem is
    # refused before any state is built.
    if cfg.readout == "exact" and problem.d**problem.n > cfg.dense_cap:
        raise CapacityError(
            f"{problem.d}^{problem.n} configurations exceed the dense cap {cfg.dense_cap}"
        )
    state = ite_state(problem, cfg)
    if constrain is not None:
        state = constrain(state)
    if cfg.readout == "exact":
        return readout_exact(state, cfg.dense_cap), "ite-exact"
    return readout_greedy(state), "ite-greedy"


def solve_qudo(problem: QudoProblem, cfg: IteConfig = IteConfig()) -> Solution:
    """Damp, read out, and recompute the cost of the winning configuration.

    Exact readout raises :class:`CapacityError` when ``d**n`` exceeds
    ``cfg.dense_cap``.
    """
    config, method = _solve(problem, cfg)
    return Solution(config, problem.cost(config), method)


def _tsp_costs(costs, variant: str) -> np.ndarray:
    """Validated float64 cost matrix of a route problem: square, finite, >= 2 nodes."""
    costs = as_tensor(costs)
    if costs.ndim != 2 or costs.shape[0] != costs.shape[1]:
        raise DimensionError(f"cost matrix must be square, got {costs.shape}")
    if costs.shape[0] < 2:
        raise DimensionError("need at least 2 nodes")
    if variant not in ("closed", "open"):
        raise DimensionError(f"unknown variant {variant!r}")
    if not np.all(np.isfinite(costs)):
        raise NumericalError("cost matrix must be finite")
    return costs


def _tour_cost(costs: np.ndarray, tour: Sequence[int], variant: str) -> float:
    # Legs in tour order, then a closed tour's return leg.  Solver and oracle
    # both sum here, so their costs for one tour agree bit for bit.
    total = sum(float(costs[a, b]) for a, b in zip(tour, tour[1:]))
    if variant == "closed":
        total += float(costs[tour[-1], tour[0]])
    return total


def _tsp_problem(costs: np.ndarray, variant: str) -> QudoProblem:
    # A closed tour starts at node 0, which needs no site: site i holds the
    # node of step i + 1 (value x is node x + 1), and the first and return
    # legs become local costs of the first and last sites.
    legs = costs if variant == "open" else costs[1:, 1:]
    d = legs.shape[0]
    local = [np.zeros(d) for _ in range(d)]
    if variant == "closed":
        local[0] = costs[0, 1:]
        local[-1] = costs[1:, 0]
    return QudoProblem(tuple(local), (legs,) * (d - 1))


def solve_tsp(costs: np.ndarray, variant: str = "closed", cfg: IteConfig = IteConfig()) -> Solution:
    """Route optimization as a chain problem with non-repetition layers.

    Site ``i`` holds the node visited at step ``i`` and the couplings are
    the leg costs.  A closed tour starts at node 0 (every closed tour has
    such a rotation), so its sites are steps 1 to ``n - 1`` over nodes 1 to
    ``n - 1``, and its first and return legs are local costs of the first
    and last sites; exact readout then densifies ``(n - 1)**(n - 1)``
    amplitudes.  A closed two-node tour is forced and returned without a
    solve.  A truncating policy can make the readout repeat a node; such a
    configuration raises :class:`InfeasibilityError` instead of being
    returned as a tour.
    """
    costs = _tsp_costs(costs, variant)
    n = costs.shape[0]
    if variant == "closed" and n == 2:
        config, method = (0,), f"ite-{cfg.readout}"
    else:
        problem = _tsp_problem(costs, variant)
        config, method = _solve(problem, cfg, lambda s: apply_non_repetition(s, cfg.policy))
    tour = config if variant == "open" else (0,) + tuple(x + 1 for x in config)
    if sorted(tour) != list(range(n)):
        raise InfeasibilityError(f"readout {list(tour)} is not a tour")
    return Solution(tour, _tour_cost(costs, tour, variant), method)


def brute_force_qudo(problem: QudoProblem) -> Solution:
    """Exhaustive minimum with the same lexicographic tie-break as exact readout."""
    n, d = problem.n, problem.d
    total = d**n
    if total > BRUTE_FORCE_CAP:
        raise CapacityError(f"{total} configurations exceed the cap {BRUTE_FORCE_CAP}")
    cost = np.zeros((d,) * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = d
        cost = cost + problem.local[i].reshape(shape)
    for i in range(n - 1):
        shape = [1] * n
        shape[i] = d
        shape[i + 1] = d
        cost = cost + problem.coupling[i].reshape(shape)
    flat = int(np.argmin(cost))
    config = tuple(int(v) for v in np.unravel_index(flat, cost.shape))
    return Solution(config, problem.cost(config), "oracle")


def brute_force_tsp(costs: np.ndarray, variant: str = "closed") -> Solution:
    """Exhaustive tour enumeration in lexicographic order."""
    costs = _tsp_costs(costs, variant)
    d = costs.shape[0]
    if d > BRUTE_FORCE_TSP_MAX_NODES:
        raise CapacityError(f"{d} nodes exceed the enumeration cap {BRUTE_FORCE_TSP_MAX_NODES}")
    if variant == "closed":
        tours = ((0,) + rest for rest in permutations(range(1, d)))
    else:
        tours = permutations(range(d))
    best = None
    for tour in tours:
        c = _tour_cost(costs, tour, variant)
        if best is None or c < best[0]:
            best = (c, tour)
    return Solution(best[1], best[0], "oracle")
