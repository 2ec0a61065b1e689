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

from dataclasses import dataclass
from itertools import permutations
from math import isfinite, log
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
    _environments,
    _split_peak,
    apply_mpo,
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
        return float(_chain_cost(self, x))

    def spread(self) -> float:
        """Sum of per-table cost ranges; an upper bound on max - min cost.

        Summed in Python floats, so a range past float64 is ``inf`` without
        a warning.
        """
        return sum(float(t.max()) - float(t.min()) for t in self.local + self.coupling)


@dataclass(frozen=True)
class IteConfig:
    """Damping strength, readout mode, and dense-readout cap for the solver.

    ``tau=None`` picks the default damping: the problem's cost spread is
    normalized to one and ``tau=10`` applied, which keeps amplitudes well
    inside float64 range without affecting the exact-readout argmax.  A
    spread that overflows float64 raises :class:`NumericalError`.  The
    damped state of a chain problem is exact at bond ``d`` and never
    rounded, so no truncation policy belongs here; :func:`solve_tsp` takes
    one for its constraint layers.
    """

    tau: float | None = None
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
        if not isfinite(spread):
            raise NumericalError("cost spread overflows float64")
        return 10.0 / spread if spread > 0 else 10.0


@dataclass(frozen=True)
class Solution:
    """An assignment, its recomputed cost, and which method produced it.

    A cost that is not finite (a sum that overflowed float64) raises
    :class:`NumericalError`: no solver or oracle returns one.
    """

    configuration: tuple[int, ...]
    cost: float
    method: str

    def __post_init__(self):
        object.__setattr__(
            self, "configuration", tuple(int(v) for v in self.configuration)
        )
        if not isfinite(self.cost):
            raise NumericalError(f"cost {self.cost} of {list(self.configuration)} is not finite")


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

    def dense_amplitudes(self) -> np.ndarray:
        """Densified relative amplitudes (global scale ``exp(log_scale)`` not applied)."""
        return tt_to_dense(self.state)


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
    x = np.arange(d)
    cores = []
    log_scale = 0.0
    for i in range(n):
        exponents = -tau * problem.local[i][None, :]  # (left values, site values)
        if i > 0:
            exponents = exponents - tau * problem.coupling[i - 1]
        peak = float(np.max(exponents))
        log_scale += peak
        damp = np.exp(exponents - peak)
        if i == n - 1:
            core = damp[:, :, None]
        else:
            core = np.zeros((damp.shape[0], d, d))
            core[:, x, x] = damp
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
    count, x = np.arange(max_count + 1), np.arange(d)
    mid = np.zeros((count.size, d, d, count.size))
    # Other values keep the count; ``value`` raises it, up to the cap.
    mid[count[:, None], x, x, count[:, None]] = x != value
    mid[count[:-1], value, value, count[1:]] = 1.0
    cores = [mid] * n
    cores[0] = mid[:1]
    cores[-1] = cores[-1].sum(axis=3, keepdims=True)
    return TensorTrainOperator(cores)


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
    # Rescaled once: a 0/1 counter layer copies or drops entries, so only
    # the rounded train needs it.  A layer that removes the whole support
    # leaves tt_round's last core zero, and _rescaled raises.
    state, shift = _rescaled(s.state.cores)
    log_scale = s.log_scale + shift
    for value in range(d):
        layer = non_repetition_layer(n, d, value, counts[value])
        state, shift = _rescaled(tt_round(apply_mpo(layer, state), policy).cores)
        log_scale += shift
    return AmplitudeState(state, log_scale)


# Exact readout counts every amplitude within this relative distance of the
# largest as a near-tie, which the solvers settle by recomputed cost.  It is
# far above the rounding of the damped amplitudes (about 1e-15 relative),
# and it spans a cost band of only 2**-30 / tau (about 1e-10 of the cost
# spread under the default tau).
_NEAR_TIE_RTOL = 2.0**-30
# Near-tie candidates costed per batch, which bounds the index arrays.
_NEAR_TIE_BATCH = 1 << 16


def _readout(s: AmplitudeState, max_elements: int, cost) -> tuple[int, ...]:
    # Densified argmax of the amplitude magnitudes.  Magnitudes within
    # _NEAR_TIE_RTOL of the largest are near-ties, and the cheapest of them
    # by ``cost``, which maps per-site value arrays to costs, wins; the first
    # in lexicographic order wins equal costs.  A train of nonnegative cores,
    # as every damped state is, has nonnegative amplitudes, so its abs pass
    # is skipped.
    amp = tt_to_dense(s.state, max_elements)
    if any(np.min(core) < 0.0 for core in s.state.cores):
        np.abs(amp, out=amp)
    flat = int(np.argmax(amp))
    peak = amp.flat[flat]
    if not peak > 0.0:
        raise NumericalError("no amplitude is finite and positive; tau is too large")
    floor = peak * (1.0 - _NEAR_TIE_RTOL)
    amp.flat[flat] = 0.0
    if amp.max() >= floor:
        amp.flat[flat] = peak
        near = np.flatnonzero(amp >= floor)
        picks = []
        for start in range(0, near.size, _NEAR_TIE_BATCH):
            batch = near[start:start + _NEAR_TIE_BATCH]
            costs = cost(np.unravel_index(batch, amp.shape))
            i = int(np.argmin(costs))
            picks.append((costs[i], batch[i]))
        flat = int(min(picks)[1])
    return tuple(int(i) for i in np.unravel_index(flat, amp.shape))


def readout_exact(s: AmplitudeState, max_elements: int = DENSE_CAP_DEFAULT) -> tuple[int, ...]:
    """Configuration with the largest amplitude magnitude, by densified argmax.

    Magnitudes within a relative ``2**-30`` of the largest count as equal,
    and the lexicographically smallest configuration among them wins.  If no
    amplitude is finite and positive (a large ``tau`` can underflow them
    all, or overflow the exponents) it raises :class:`NumericalError`
    rather than pick one.  The solvers settle such near-ties by cost; see
    :func:`solve_qudo`.
    """
    return _readout(s, max_elements, lambda x: np.zeros(len(x[0])))


def readout_greedy(s: AmplitudeState) -> tuple[int, ...]:
    """Site-by-site conditional maximization of the squared amplitude.

    Fixes each site to the value maximizing the marginal squared amplitude
    given all earlier choices.  Exact on product states; on correlated
    states it may return a suboptimal (but always nonzero-amplitude)
    configuration.  Cores and environments shed their peak's power of two,
    so scaling the cores does not change the answer.
    """
    cores = [_split_peak(core)[0] for core in s.state.cores]
    right, _ = _environments(s.state, s.state)
    left = np.ones((1, 1))
    config = []
    for core, env in zip(cores, right[1:]):
        tmp = np.tensordot(left, core, axes=([0], [0]))  # (b, x, r)
        tmp = np.tensordot(tmp, env, axes=([2], [0]))  # (b, x, r')
        scores = np.sum(tmp * core, axis=(0, 2))
        if float(np.max(scores)) <= 0.0:
            raise InfeasibilityError("greedy readout ran out of nonzero amplitudes")
        choice = int(np.argmax(scores))
        config.append(choice)
        slice_ = core[:, choice, :]
        left, _ = _split_peak(slice_.T @ left @ slice_)
    return tuple(config)


def _chain_cost(problem: QudoProblem, x):
    # The one cost sum, over site values ``x`` (integers or arrays of them,
    # which broadcast): local[0], then each link's coupling and next local.
    # An encoded tour's interior locals are zeros, so it sums its legs in
    # order.  A sum past float64 is inf, which Solution refuses.
    with np.errstate(over="ignore"):
        total = problem.local[0][x[0]]
        for i, table in enumerate(problem.coupling):
            total = total + table[x[i], x[i + 1]] + problem.local[i + 1][x[i + 1]]
    return total


def _solve(
    problem: QudoProblem, cfg: IteConfig, constrain=None
) -> tuple[tuple[int, ...], str]:
    # Exact readout densifies all d**n amplitudes, so an oversized problem is
    # refused before any state is built.  Its near-ties are settled by
    # ``problem``'s cost.
    if cfg.readout == "exact" and problem.d**problem.n > cfg.dense_cap:
        raise CapacityError(
            f"{problem.d}^{problem.n} configurations exceed the dense cap {cfg.dense_cap}"
        )
    state = ite_state(problem, cfg)
    if constrain is not None:
        state = constrain(state)
    if cfg.readout == "exact":
        return _readout(state, cfg.dense_cap, lambda x: _chain_cost(problem, x)), "ite-exact"
    return readout_greedy(state), "ite-greedy"


def solve_qudo(problem: QudoProblem, cfg: IteConfig = IteConfig()) -> Solution:
    """Damp, read out, and recompute the cost of the winning configuration.

    Exact readout takes the largest amplitude, but amplitudes within a
    relative ``2**-30`` of it are settled by recomputed cost, the
    lexicographically smallest winning equal costs.  So it returns the
    configuration :func:`brute_force_qudo` returns, on cost ties too, and
    also when one huge table entry shrinks the default ``tau`` until the
    other costs damp to equal amplitudes.  It raises
    :class:`CapacityError` when ``d**n`` exceeds ``cfg.dense_cap``.
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


def _tour(config, variant: str):
    # A closed tour starts at node 0, and site i holds node x + 1 of step
    # i + 1; an open tour is its configuration.  ``config`` holds integers
    # or arrays of them.
    return tuple(config) if variant == "open" else (0,) + tuple(x + 1 for x in config)


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


def _two_node_tour(costs: np.ndarray, method: str) -> Solution:
    # Forced, and its encoding (one site of one value) is no chain problem.
    return Solution((0, 1), float(costs[0, 1]) + float(costs[1, 0]), method)


def solve_tsp(
    costs: np.ndarray,
    variant: str = "closed",
    cfg: IteConfig = IteConfig(),
    *,
    policy: TruncationPolicy = TruncationPolicy(),
) -> Solution:
    """Route optimization as a chain problem with non-repetition layers.

    Site ``i`` holds the node visited at step ``i`` and the couplings are
    the leg costs.  A closed tour starts at node 0 (every closed tour has
    such a rotation), so its sites are steps 1 to ``n - 1`` over nodes 1 to
    ``n - 1``, and its first and return legs are local costs of the first
    and last sites; exact readout then densifies ``(n - 1)**(n - 1)``
    amplitudes.  A closed two-node tour is forced and returned without a
    solve.  A tour is costed as its encoded chain configuration, which
    gives the bits of its legs summed in order, and exact readout settles
    near-ties by that cost, as :func:`solve_qudo` does, so it returns the
    optimal tour :func:`brute_force_tsp` returns.  ``policy`` rounds the
    state after each counter layer; the default is exact.  A truncating
    policy can make the readout repeat a node; such a configuration raises
    :class:`InfeasibilityError` instead of being returned as a tour.
    """
    costs = _tsp_costs(costs, variant)
    n = costs.shape[0]
    if variant == "closed" and n == 2:
        return _two_node_tour(costs, f"ite-{cfg.readout}")
    problem = _tsp_problem(costs, variant)
    config, method = _solve(problem, cfg, lambda s: apply_non_repetition(s, policy))
    tour = _tour(config, variant)
    if sorted(tour) != list(range(n)):
        raise InfeasibilityError(f"readout {list(tour)} is not a tour")
    return Solution(tour, problem.cost(config), method)


def brute_force_qudo(problem: QudoProblem) -> Solution:
    """Exhaustive minimum; cost ties go to the lexicographically smallest."""
    n, d = problem.n, problem.d
    total = d**n
    if total > BRUTE_FORCE_CAP:
        raise CapacityError(f"{total} configurations exceed the cap {BRUTE_FORCE_CAP}")
    cost = _chain_cost(problem, np.ix_(*[np.arange(d)] * n))
    flat = int(np.argmin(cost))
    config = tuple(int(v) for v in np.unravel_index(flat, cost.shape))
    return Solution(config, problem.cost(config), "oracle")


def brute_force_tsp(costs: np.ndarray, variant: str = "closed") -> Solution:
    """Exhaustive tour enumeration in lexicographic order."""
    costs = _tsp_costs(costs, variant)
    n = costs.shape[0]
    if n > BRUTE_FORCE_TSP_MAX_NODES:
        raise CapacityError(f"{n} nodes exceed the enumeration cap {BRUTE_FORCE_TSP_MAX_NODES}")
    if variant == "closed" and n == 2:
        return _two_node_tour(costs, "oracle")
    # Every encoded tour at once, one per row in the tours' lexicographic
    # order, so argmin takes the first of equal costs.
    problem = _tsp_problem(costs, variant)
    configs = np.array(list(permutations(range(problem.d))), dtype=np.intp)
    cost = _chain_cost(problem, tuple(configs.T))
    best = int(np.argmin(cost))
    return Solution(_tour(configs[best], variant), float(cost[best]), "oracle")
