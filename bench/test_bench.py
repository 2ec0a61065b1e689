"""Self-tests of the benchmark: oracles, checkers, fixtures and the span tracer.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import sys
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import fixtures  # noqa: E402
import run  # noqa: E402
import ttkit  # noqa: E402
from spans import Tracer  # noqa: E402
from ttkit import cli, kernels, layers, tt  # noqa: E402


def _qudo(rng, n, d):
    obj = fixtures.qudo_problem(rng, n, d)
    return obj["v"], obj["w"]


def test_qudo_dp_matches_brute_force():
    rng = np.random.default_rng(0)
    for n, d in [(1, 2), (2, 3), (5, 2), (6, 3), (4, 5)]:
        v, w = _qudo(rng, n, d)
        problem = ttkit.QudoProblem(tuple(np.array(t) for t in v), tuple(np.array(t) for t in w))
        brute = ttkit.brute_force_qudo(problem)
        cost, config = checks.qudo_optimum(v, w)
        assert config == brute.configuration
        assert abs(cost - brute.cost) < 1e-12


def test_held_karp_matches_brute_force():
    rng = np.random.default_rng(1)
    for nodes, variant in product((2, 3, 5, 7), ("closed", "open")):
        costs = np.array(fixtures.tsp_problem(rng, nodes, variant)["cost_matrix"])
        brute = ttkit.brute_force_tsp(costs, variant)
        assert abs(checks.held_karp(costs, variant) - brute.cost) < 1e-12


def test_tour_checker_rejects_planted_wrong_answers():
    rng = np.random.default_rng(2)
    costs = np.array(fixtures.tsp_problem(rng, 6, "closed")["cost_matrix"])
    best = ttkit.brute_force_tsp(costs, "closed")
    tour = list(best.configuration)
    assert checks.check_tour(costs, "closed", tour, best.cost, best.cost, exact=True) is None

    repeated = tour[:-1] + [tour[1]]
    why = checks.check_tour(costs, "closed", repeated, best.cost, best.cost, exact=False)
    assert why.startswith("not a tour")

    worse = next(
        [0, *rest] for rest in permutations(range(1, 6))
        if checks.tour_cost(costs, [0, *rest], "closed") > best.cost + 1e-6
    )
    worse_cost = checks.tour_cost(costs, worse, "closed")
    why = checks.check_tour(costs, "closed", worse, worse_cost, best.cost, exact=True)
    assert "misses the optimum" in why
    # a truncated (non-exact) answer may be suboptimal, but must report its true cost
    assert checks.check_tour(costs, "closed", worse, worse_cost, best.cost, exact=False) is None
    why = checks.check_tour(costs, "closed", worse, best.cost, best.cost, exact=False)
    assert "reported cost" in why


def test_qudo_checker_rejects_a_suboptimal_configuration():
    v, w = _qudo(np.random.default_rng(3), 6, 3)
    cost, config = checks.qudo_optimum(v, w)
    assert checks.check_qudo(v, w, config, cost, cost) is None
    other = list(config)
    other[2] = (other[2] + 1) % 3
    other_cost = checks.qudo_cost(v, w, other)
    assert "misses the optimum" in checks.check_qudo(v, w, other, other_cost, cost)


def _small_layer(rng):
    # Bond 4 truncates the weights (full bond 16) but not a 4 x 4 output,
    # so the layer's output rounding is exact, as in the infer workload.
    a = rng.normal(size=(16, 16))
    c = rng.normal(size=16)
    plan = layers.ShapePlan.balanced(16, 16, 2)
    layer, _ = layers.compress_layer(a, c, plan, tt.TruncationPolicy.truncated(max_bond=4))
    assert layer.weights.bond_dims == (4,)
    return layer


def test_layer_checker_agrees_with_ttkit_and_rejects_a_perturbed_output():
    rng = np.random.default_rng(4)
    layer = _small_layer(rng)
    x = rng.normal(size=16)
    a2 = checks.mpo_to_matrix(layer.weights.cores)
    c2 = checks.mps_to_vector(layer.bias.cores)
    assert np.allclose(a2, tt.mpo_to_matrix(layer.weights), atol=1e-13)
    y = layers.apply_compressed_layer(layer, x)
    assert checks.check_layer_output(y, a2 @ x + c2) is None
    bumped = y.copy()
    bumped[3] += 1e-6 * np.linalg.norm(y)
    assert "differs" in checks.check_layer_output(bumped, a2 @ x + c2)


def test_kernel_checker_agrees_with_ttkit_and_rejects_a_perturbed_output():
    rng = np.random.default_rng(5)
    cores = fixtures.kernel_mpo_cores(rng, sites=7, bond=3, outputs=4)
    z = rng.random(7)
    features = kernels.product_feature_map(z, [kernels.cosine_kernel()] * 7)
    out = kernels.apply_mpo_to_product(tt.TensorTrainOperator(cores), features)
    ref = checks.kernel_reference(cores, checks.cosine_features(z))
    assert checks.check_kernel_output(out, ref) is None
    assert "differs" in checks.check_kernel_output(out * (1 + 1e-6), ref)
    peak = max(kernels.apply_mpo_to_product(tt.TensorTrainOperator(cores), features,
                                            return_trace=True)[1])
    assert checks.mpo_peak_elements(c.shape for c in cores) == peak


def test_reconstruction_check_rejects_an_error_over_the_bound():
    rng = np.random.default_rng(6)
    t = fixtures.planted_tensor(rng, [3] * 5, rank=2, noise_rel=1e-3)
    assert checks.check_reconstruction(t, t, 1e-3, 5)[0] is None
    bad = t + 1e-2 * rng.normal(size=t.shape) / np.sqrt(t.size)
    assert "exceeds" in checks.check_reconstruction(t, bad, 1e-3, 5)[0]


def test_fixtures_are_deterministic_per_seed(tmp_path):
    a = fixtures.fixture_dir(tmp_path / "a", "solve", 7)
    b = fixtures.fixture_dir(tmp_path / "b", "solve", 7)
    c = fixtures.fixture_dir(tmp_path / "c", "solve", 8)
    files = sorted(p.name for p in a.glob("*.json"))
    assert files == sorted(p.name for p in b.glob("*.json"))
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files)


def test_fixture_cache_keeps_only_the_newest_seeds(tmp_path):
    for seed in range(fixtures.CACHED_SEEDS + 2):
        newest = fixtures.fixture_dir(tmp_path, "solve", seed)
    kept = list(tmp_path.glob("v*/seed-*/solve"))
    assert len(kept) == fixtures.CACHED_SEEDS
    assert newest in kept


def test_planted_matrix_has_the_planted_operator_rank():
    rng = np.random.default_rng(9)
    a = fixtures.planted_matrix(rng, 64, 3, rank=2, noise_rel=0.0)
    plan = layers.ShapePlan.balanced(64, 64, 3)
    op = layers.matrix_to_mpo(a, plan, tt.TruncationPolicy.exact())
    assert op.bond_dims == (2, 2)


def _namespace_snapshot():
    snap = {}
    for key, mod in list(sys.modules.items()):
        if key == "ttkit" or key.startswith("ttkit."):
            for name, value in vars(mod).items():
                snap[(key, name)] = value
                if isinstance(value, type) and "__init__" in vars(value):
                    snap[(key, name, "__init__")] = vars(value)["__init__"]
    return snap


def test_tracer_restores_every_patched_name():
    before = _namespace_snapshot()
    tracer = Tracer()
    tracer.patch()
    during = _namespace_snapshot()
    changed = [k for k in before if during[k] is not before[k]]
    assert ("ttkit.tt", "truncated_svd") in changed
    assert ("ttkit.layers", "tt_svd") in changed  # patched where it was imported too
    assert ("ttkit.tt", "TensorTrain", "__init__") in changed
    assert ("ttkit.cli", "main") in changed
    assert not any(k[0] == "ttkit.network" and k[1] == "contract_network" for k in changed)
    assert isinstance(tt.TensorTrain([np.ones((1, 2, 1))]), tt.TensorTrain)
    tracer.restore()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_the_root_span(tmp_path):
    rng = np.random.default_rng(10)
    problem = tmp_path / "tsp.json"
    fixtures.write_json(problem, fixtures.tsp_problem(rng, 5, "closed"))
    tracer = Tracer()
    with tracer.round(1):
        assert cli.main(["tsp-solve", "--problem", str(problem),
                         "--output", str(tmp_path / "sol.json")]) == 0
    names = [tracer.names[i] for i in tracer.name_id]
    root = names.index("bench.round")
    assert tracer.parent[root] == -1 and names.count("bench.round") == 1
    selfs = tracer.self_times()
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == tracer.end[root] - tracer.start[root]
    # nesting goes across modules: solve_tsp -> apply_non_repetition -> tt_round -> truncated_svd
    parents = {}
    for sid, par in enumerate(tracer.parent):
        if par >= 0:
            parents.setdefault(names[sid], set()).add(names[par])
    assert "tt.tt_round" in parents["tt.truncated_svd"]
    assert "optimize.apply_non_repetition" in parents["tt.tt_round"]
    assert "optimize.solve_tsp" in parents["optimize.apply_non_repetition"]
    assert tracer.counters["tt.svd_flops"] > 0
    assert tracer.counters["io.bytes_read"] == problem.stat().st_size


def test_self_time_subtracts_only_the_covered_part():
    tracer = Tracer()
    tracer.names = ["root", "child"]
    tracer.name_id = [0, 1, 1]
    tracer.start = [0, 10, 15]
    tracer.end = [100, 20, 30]  # overlapping children cover 10..30
    tracer.parent = [-1, 0, 0]
    tracer.round_id = [1, 1, 1]
    assert tracer.self_times()[0] == 80


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(1, 201))
    pct, value = run.tail(samples)
    assert pct == pytest.approx(95.0)
    assert sum(s > value for s in samples) >= 10
    assert run.tail(list(range(12)))[0] == 50.0


def test_solve_check_keeps_the_truncated_probe_out_of_the_timed_tally(tmp_path):
    rng = np.random.default_rng(11)
    costs, best = {}, {}
    for name in ("exact_000.json", "trunc_000.json"):
        problem = fixtures.tsp_problem(rng, 5, "closed")
        fixtures.write_json(tmp_path / name, problem)
        costs[name] = np.array(problem["cost_matrix"])
        sol = ttkit.brute_force_tsp(costs[name], "closed")
        best[name] = {"configuration": list(sol.configuration), "cost": sol.cost}

    def timed(r, **kw):
        return {"round": r, "op": "tsp5closed", "problem": "exact_000.json",
                "exit": 0, "error": "", **best["exact_000.json"], **kw}

    def probe(**kw):
        return {"op": "tsp5closed-trunc", "problem": "trunc_000.json", "exit": 0,
                "error": "", "ms": 1.0, **best["trunc_000.json"], **kw}

    result = {"records": [timed(0), timed(1), timed(2)],
              "probe_records": [probe(), probe(configuration=[0, 1, 1, 2, 3]),
                                probe(exit=3, error="refused")]}
    tally, quality = run.check_solve(tmp_path, result, {})
    assert (tally["attempted"], tally["failed"], tally["correct"]) == (2, 0, True)
    assert quality["truncated_fail_ratio"] == pytest.approx(2 / 3)
    assert quality["valid_truncated_tours"] == 1 and quality["opt_gap"] == pytest.approx(0.0)

    # a probe tour that misreports its cost is not the known defect
    result["probe_records"].append(probe(cost=best["trunc_000.json"]["cost"] + 1.0))
    assert run.check_solve(tmp_path, result, {})[0]["correct"] is False

    # a suboptimal timed answer counts as failed and is unexpected
    c = costs["exact_000.json"]
    optimum = best["exact_000.json"]["cost"]
    worse = next([0, *rest] for rest in permutations(range(1, 5))
                 if checks.tour_cost(c, [0, *rest], "closed") > optimum + 1e-6)
    result = {"records": [timed(1), timed(2, configuration=worse,
                                          cost=checks.tour_cost(c, worse, "closed"))]}
    tally, _ = run.check_solve(tmp_path, result, {})
    assert (tally["attempted"], tally["failed"], tally["correct"]) == (2, 1, False)
