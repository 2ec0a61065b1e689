"""Independent answers and output checks for the benchmark.

Nothing here imports ``ttkit``: QUDO optima come from a chain min-sum
dynamic program, tour optima from Held-Karp, and trains are densified with
plain ``einsum``.  Every checker returns ``None`` for a good output and a
one-line reason otherwise.
"""

from __future__ import annotations

import numpy as np

# Exact-readout solves must hit the optimum cost to within this.
COST_TOL = 1e-9
# Relative error allowed between an output and a reference that computes
# the same quantity in another float64 summation order: layer and kernel
# outputs, and a reconstruction against the densified train.
EXACT_TOL = 1e-9


def qudo_optimum(v, w) -> tuple[float, tuple[int, ...]]:
    """Minimum cost and its lexicographically smallest minimizer, by min-sum DP.

    ``cost(x) = sum_i v[i][x_i] + sum_i w[i][x_i, x_{i+1}]``; exact at any ``n``.
    """
    v = [np.asarray(t, dtype=np.float64) for t in v]
    w = [np.asarray(t, dtype=np.float64) for t in w]
    n = len(v)
    # best[i][x]: cheapest cost of sites i.. given x_i = x (backward pass), so
    # a forward argmin pass yields the lexicographically smallest minimizer.
    best = [None] * n
    best[n - 1] = v[n - 1]
    for i in range(n - 2, -1, -1):
        best[i] = v[i] + np.min(w[i] + best[i + 1][None, :], axis=1)
    config = [int(np.argmin(best[0]))]
    for i in range(n - 1):
        step = w[i][config[-1]] + best[i + 1]
        config.append(int(np.argmin(step)))
    return float(np.min(best[0])), tuple(config)


def qudo_cost(v, w, config) -> float:
    total = sum(float(v[i][x]) for i, x in enumerate(config))
    total += sum(float(w[i][config[i]][config[i + 1]]) for i in range(len(config) - 1))
    return total


def held_karp(costs, variant: str) -> float:
    """Optimal tour cost by subset dynamic programming.

    ``closed`` tours start at node 0 and return to it; ``open`` paths visit
    every node once with free start and end.
    """
    c = np.asarray(costs, dtype=np.float64)
    n = c.shape[0]
    full = (1 << n) - 1
    dp = np.full((1 << n, n), np.inf)
    if variant == "closed":
        dp[1, 0] = 0.0
    else:
        for j in range(n):
            dp[1 << j, j] = 0.0
    for mask in range(1, full + 1):
        row = dp[mask]
        if not np.isfinite(row).any():
            continue
        # cheapest way to extend any path over `mask` to each node k
        reach = np.min(row[:, None] + c, axis=0)
        for k in range(n):
            if not mask >> k & 1:
                nxt = mask | 1 << k
                if reach[k] < dp[nxt, k]:
                    dp[nxt, k] = reach[k]
    if variant == "closed":
        return float(np.min(dp[full] + c[:, 0]))
    return float(np.min(dp[full]))


def tour_cost(costs, tour, variant: str) -> float:
    c = np.asarray(costs, dtype=np.float64)
    total = sum(float(c[tour[i], tour[i + 1]]) for i in range(len(tour) - 1))
    if variant == "closed":
        total += float(c[tour[-1], tour[0]])
    return total


def check_tour(costs, variant: str, tour, reported_cost, optimum: float, exact: bool):
    """Reason a solver's tour is wrong, or ``None``.

    Every tour must be a permutation (closed tours start at node 0) whose
    reported cost is its true cost; an exact-readout tour must also be optimal.
    """
    n = len(costs)
    tour = [int(x) for x in tour]
    if sorted(tour) != list(range(n)):
        return f"not a tour: {tour}"
    if variant == "closed" and tour[0] != 0:
        return f"closed tour does not start at node 0: {tour}"
    true_cost = tour_cost(costs, tour, variant)
    if abs(true_cost - float(reported_cost)) > COST_TOL:
        return f"reported cost {reported_cost} but the tour costs {true_cost}"
    if exact and abs(true_cost - optimum) > COST_TOL:
        return f"cost {true_cost} misses the optimum {optimum}"
    return None


def check_qudo(v, w, config, reported_cost, optimum: float):
    """Reason an exact QUDO answer is wrong, or ``None``."""
    n, d = len(v), len(v[0])
    config = [int(x) for x in config]
    if len(config) != n or any(not 0 <= x < d for x in config):
        return f"configuration {config} does not fit n={n}, d={d}"
    true_cost = qudo_cost(v, w, config)
    if abs(true_cost - float(reported_cost)) > COST_TOL:
        return f"reported cost {reported_cost} but the configuration costs {true_cost}"
    if abs(true_cost - optimum) > COST_TOL:
        return f"cost {true_cost} misses the optimum {optimum}"
    return None


def mps_to_vector(cores) -> np.ndarray:
    """Dense vector of a train with cores ``(left, phys, right)``."""
    acc = np.ones((1,))
    for core in cores:
        acc = np.einsum("...l,lpr->...pr", acc, core)
    return acc.reshape(-1)


def mpo_to_matrix(cores) -> np.ndarray:
    """Dense matrix (rows = outputs) of an operator train with cores ``(left, in, out, right)``."""
    acc = np.ones((1, 1, 1))  # (rows so far, cols so far, bond)
    for core in cores:
        left, din, dout, right = core.shape
        acc = np.einsum("abl,lior->aobir", acc, core)
        acc = acc.reshape(acc.shape[0] * dout, acc.shape[2] * din, right)
    return acc[:, :, 0]


def kernel_reference(cores, features) -> np.ndarray:
    """Operator train applied to a product state, contracted site by site.

    ``features[k]`` is the feature vector of site ``k``; the result has the
    operator's output dimensions.
    """
    acc = np.ones((1, 1))  # (outputs so far, bond)
    for core, f in zip(cores, features):
        node = np.einsum("lior,i->lor", core, f)
        acc = np.einsum("al,lor->aor", acc, node)
        acc = acc.reshape(-1, node.shape[2])
    return acc.reshape([c.shape[2] for c in cores])


def cosine_features(z) -> list[np.ndarray]:
    """``(cos(pi z / 2), sin(pi z / 2))`` per component, the cosine site kernel."""
    return [np.array([np.cos(np.pi * x / 2.0), np.sin(np.pi * x / 2.0)]) for x in z]


def squash(y) -> np.ndarray:
    """Logistic map onto (0, 1): how ``infer`` feeds layer outputs to the kernel."""
    return 1.0 / (1.0 + np.exp(-np.asarray(y, dtype=np.float64)))


def check_layer_output(y, y_compressed_ref) -> str | None:
    """Reason a layer output differs from the densified compressed layer, or ``None``."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != y_compressed_ref.shape or not np.all(np.isfinite(y)):
        return f"layer output has shape {y.shape} or non-finite entries"
    err = np.linalg.norm(y - y_compressed_ref) / np.linalg.norm(y_compressed_ref)
    if err > EXACT_TOL:
        return f"layer output differs from densified A'x + c' by {err:.3e}"
    return None


def check_kernel_output(out, ref) -> str | None:
    out = np.asarray(out, dtype=np.float64)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return f"kernel output has shape {out.shape} or non-finite entries"
    err = np.linalg.norm(out - ref) / np.linalg.norm(ref)
    if err > EXACT_TOL:
        return f"kernel output differs from the site-by-site reference by {err:.3e}"
    return None


def check_reconstruction(t_ref, t_back, noise_rel: float, sites: int) -> tuple[str | None, float]:
    """Relative error of a compress/reconstruct round trip and the reason it is too large.

    The planted part has TT-rank below the bond cap, so TT-SVD quasi-optimality
    bounds the error by ``sqrt(sites - 1)`` times the noise.
    """
    t_back = np.asarray(t_back, dtype=np.float64)
    if t_back.size != t_ref.size or not np.all(np.isfinite(t_back)):
        return f"reconstruction has {t_back.size} entries or non-finite values", float("nan")
    err = float(np.linalg.norm(t_back.ravel() - t_ref.ravel()) / np.linalg.norm(t_ref))
    limit = np.sqrt(sites - 1) * noise_rel * 1.01
    if err > limit:
        return f"round-trip error {err:.3e} exceeds {limit:.3e}", err
    return None, err


def mpo_peak_elements(shapes) -> int:
    """Largest intermediate of a left-to-right operator/product contraction, from core shapes.

    ``shapes`` are operator core shapes ``(left, in, out, right)``.  After
    site ``k`` the running result holds the outputs so far times the bond.
    """
    peak, outs = 0, 1
    for left, _, dout, right in shapes:
        outs *= dout
        peak = max(peak, left * dout * right, outs * right)
    return peak
