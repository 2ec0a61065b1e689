"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from ttkit import io
from ttkit.kernels import apply_mpo_to_product, product_feature_map, product_kernel
from ttkit.layers import ShapePlan, matrix_to_mpo
from ttkit.network import ContractionNetwork, contract_network
from ttkit.optimize import (
    IteConfig,
    QudoProblem,
    apply_non_repetition,
    brute_force_qudo,
    brute_force_tsp,
    ite_state,
    solve_qudo,
    solve_tsp,
)
from ttkit.tt import (
    TensorTrain,
    TensorTrainOperator,
    TruncationPolicy,
    mpo_to_matrix,
    param_count_mpo,
    param_count_mps,
    tt_round,
    tt_svd,
    tt_to_dense,
)

from oracles import loop_five_node_network, singular_values_via_gram

EXACT = TruncationPolicy.exact()
RUN = [sys.executable, "-m", "ttkit"]


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {name}: PASS")

        return run

    return wrap


def random_qudo(rng, n, d):
    return QudoProblem(
        tuple(rng.uniform(-1.0, 1.0, size=d) for _ in range(n)),
        tuple(rng.uniform(-1.0, 1.0, size=(d, d)) for _ in range(n - 1)),
    )


def cost_tensor(problem):
    n, d = problem.n, problem.d
    out = np.zeros((d,) * n)
    for i in range(n):
        shape = [1] * n
        shape[i] = d
        out = out + problem.local[i].reshape(shape)
    for i in range(n - 1):
        shape = [1] * n
        shape[i] = d
        shape[i + 1] = d
        out = out + problem.coupling[i].reshape(shape)
    return out


def unique_optimum_qudo(rng, n, d):
    while True:
        p = random_qudo(rng, n, d)
        costs = np.sort(cost_tensor(p).ravel())
        if costs[1] - costs[0] > 1e-6:
            return p


@criterion(1, "contraction oracle")
def test_criterion_01_contraction_oracle():
    rng = np.random.default_rng(1001)
    for _ in range(50):
        a = rng.normal(size=(2, 2, 2, 2))
        b = rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2, 2))
        d = rng.normal(size=(2, 2))
        e = rng.normal(size=(2, 2, 2))
        net = ContractionNetwork(
            nodes={"A": a, "B": b, "C": c, "D": d, "E": e},
            edges=(
                (("A", 1), ("B", 0)),
                (("A", 2), ("C", 0)),
                (("B", 1), ("C", 1)),
                (("C", 2), ("E", 0)),
                (("A", 3), ("D", 0)),
                (("D", 1), ("E", 1)),
            ),
            free_legs=(("A", 0), ("E", 2)),
        )
        got = contract_network(net)
        want = loop_five_node_network(a, b, c, d, e)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@criterion(2, "storage formulas")
def test_criterion_02_storage_formulas():
    assert param_count_mps(5, 2, 3) == 66
    assert param_count_mpo(4, 2, 2) == 48
    rng = np.random.default_rng(1002)
    for n in range(2, 9):
        for d in (2, 3):
            for b in range(1, 5):
                bonds = [1] + [b] * (n - 1) + [1]
                train = TensorTrain(
                    [rng.normal(size=(bonds[i], d, bonds[i + 1])) for i in range(n)]
                )
                assert train.param_count() == param_count_mps(n, d, b)
                op = TensorTrainOperator(
                    [rng.normal(size=(bonds[i], d, d, bonds[i + 1])) for i in range(n)]
                )
                assert op.param_count() == param_count_mpo(n, d, b)


@criterion(3, "exact TT-SVD round-trip")
def test_criterion_03_exact_roundtrip():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    for _ in range(100):
        dims = [int(rng.integers(2, 5))]
        size = dims[0]
        while True:
            d = int(rng.integers(2, 5))
            if size * d > 2**10 or rng.random() < 0.1:
                break
            dims.append(d)
            size *= d
        t = rng.normal(size=tuple(dims))
        assert t.size <= 2**10
        train = tt_svd(t, EXACT)
        err = np.linalg.norm(tt_to_dense(train) - t)
        assert err <= 1e-10 * np.linalg.norm(t)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"round-trip sweep took {elapsed:.2f}s"


@criterion(4, "truncation law")
def test_criterion_04_truncation_law():
    rng = np.random.default_rng(1004)
    m = rng.normal(size=(64, 64))
    spectrum = singular_values_via_gram(m)
    total = float(np.sum(spectrum**2))
    for b in range(1, 65):
        train = tt_svd(m, TruncationPolicy.truncated(max_bond=b))
        assert train.n_sites == 2
        err2 = float(np.linalg.norm(tt_to_dense(train) - m) ** 2)
        tail = float(np.sum(spectrum[b:] ** 2))
        assert abs(err2 - tail) <= 1e-9 * max(tail, 1e-12 * total)
    # multi-core bound on 50 random trains
    for _ in range(50):
        n = int(rng.integers(3, 6))
        bonds = [1] + [int(rng.integers(2, 9)) for _ in range(n - 1)] + [1]
        train = TensorTrain(
            [rng.normal(size=(bonds[i], 3, bonds[i + 1])) for i in range(n)]
        )
        dense = tt_to_dense(train)
        cap = int(rng.integers(1, 5))
        rounded, weights = tt_round(
            train, TruncationPolicy.truncated(max_bond=cap), return_weights=True
        )
        err = np.linalg.norm(tt_to_dense(rounded) - dense)
        assert err <= np.sqrt(sum(weights)) + 1e-12


@criterion(5, "matrix-to-MPO pipeline")
def test_criterion_05_matrix_pipeline():
    plan = ShapePlan((2, 2, 2, 2), (2, 2, 2, 2))
    op = matrix_to_mpo(np.eye(16), plan, EXACT)
    assert op.bond_dims == (1, 1, 1)
    assert np.allclose(mpo_to_matrix(op), np.eye(16), atol=1e-12)
    rng = np.random.default_rng(1005)
    plan = ShapePlan((2, 2, 2), (2, 2, 2))
    for _ in range(100):
        m = rng.normal(size=(8, 8))
        op = matrix_to_mpo(m, plan, EXACT)
        assert np.linalg.norm(mpo_to_matrix(op) - m) <= 1e-10 * np.linalg.norm(m)


@criterion(6, "kernel equivalence")
def test_criterion_06_kernel_equivalence():
    rng = np.random.default_rng(1006)
    # N=10: full dense oracle
    n = 10
    bonds = [1] + [3] * (n - 1) + [1]
    op = TensorTrainOperator(
        [rng.normal(size=(bonds[i], 2, 2, bonds[i + 1])) for i in range(n)]
    )
    ps = product_feature_map(rng.normal(size=n), [product_kernel()] * n)
    got = apply_mpo_to_product(op, ps)
    want = (mpo_to_matrix(op) @ ps.to_dense().ravel()).reshape(op.out_dims)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
    # N=30: completes implicitly, every intermediate small
    n = 30
    out_dims = [1] * n
    out_dims[0] = out_dims[15] = out_dims[29] = 2
    bonds = [1] + [3] * (n - 1) + [1]
    op = TensorTrainOperator(
        [rng.normal(size=(bonds[i], 2, out_dims[i], bonds[i + 1])) for i in range(n)]
    )
    ps = product_feature_map(rng.normal(size=n), [product_kernel()] * n)
    result, trace = apply_mpo_to_product(op, ps, return_trace=True)
    assert result.size == 8
    assert np.all(np.isfinite(result))
    assert max(trace) <= 10**6


@criterion(7, "damped-amplitude law")
def test_criterion_07_amplitude_law():
    rng = np.random.default_rng(1007)
    shapes = [(2, n) for n in range(2, 13)] + [(3, n) for n in range(2, 8)] + [
        (4, n) for n in range(2, 7)
    ]
    for trial in range(50):
        d, n = shapes[int(rng.integers(0, len(shapes)))]
        assert d**n <= 4096
        p = random_qudo(rng, n, d)
        tau = float(rng.uniform(0.1, 10.0))
        amps = ite_state(p, IteConfig(tau=tau)).dense_amplitudes().ravel()
        want = np.exp(-tau * cost_tensor(p).ravel())
        amps = amps / np.linalg.norm(amps)
        want = want / np.linalg.norm(want)
        assert np.max(np.abs(amps - want) / want) <= 1e-10


@criterion(8, "solver exactness")
def test_criterion_08_solver_exactness():
    rng = np.random.default_rng(1008)
    instances = [unique_optimum_qudo(rng, 8, 2) for _ in range(100)]
    instances += [unique_optimum_qudo(rng, 5, 3) for _ in range(100)]
    for tau in (0.1, 1.0, 10.0):
        for p in instances:
            want = brute_force_qudo(p)
            got = solve_qudo(p, IteConfig(tau=tau))
            assert got.configuration == want.configuration
            assert got.cost == pytest.approx(want.cost, rel=1e-12)


@criterion(9, "constraint layers")
def test_criterion_09_constraint_layers():
    rng = np.random.default_rng(1009)
    # support after non-repetition is exactly the permutations
    p = random_qudo(rng, 4, 4)
    s = apply_non_repetition(ite_state(p, IteConfig(tau=1.0)))
    amps = s.dense_amplitudes()
    peak = float(np.max(np.abs(amps)))
    permutation_count = 0
    for idx in np.ndindex(amps.shape):
        if len(set(idx)) == 4:
            permutation_count += 1
            assert abs(amps[idx]) > 1e-9 * peak
        else:
            assert abs(amps[idx]) <= 1e-12 * peak
    assert permutation_count == 24
    # 100 5-node instances against the 120-permutation oracle
    greedy_hits = 0
    for trial in range(100):
        costs = rng.uniform(0.0, 10.0, size=(5, 5))
        np.fill_diagonal(costs, 0.0)
        variant = "closed" if trial % 2 == 0 else "open"
        want = brute_force_tsp(costs, variant)
        got = solve_tsp(costs, variant)
        assert got.configuration == want.configuration
        assert got.cost == pytest.approx(want.cost, rel=1e-12)
        greedy = solve_tsp(costs, variant, IteConfig(readout="greedy"))
        assert sorted(greedy.configuration) == list(range(5))
        if greedy.configuration == want.configuration:
            greedy_hits += 1
    print(f"\n    greedy readout matched the oracle on {greedy_hits}/100 tours")


@criterion(10, "argmax shift invariance")
def test_criterion_10_shift_invariance():
    rng = np.random.default_rng(1010)
    for _ in range(50):
        n, d = 6, 2
        p = random_qudo(rng, n, d)
        base = solve_qudo(p, IteConfig(tau=1.0)).configuration
        shifted = QudoProblem(
            tuple(v + float(rng.uniform(-10, 10)) for v in p.local),
            tuple(w + float(rng.uniform(-10, 10)) for w in p.coupling),
        )
        assert solve_qudo(shifted, IteConfig(tau=1.0)).configuration == base


@criterion(11, "command-line contract")
def test_criterion_11_cli_contract():
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rng = np.random.default_rng(1011)

        def run(*args):
            return subprocess.run(RUN + list(args), capture_output=True, text=True)

        # binary/text round-trip is value-exact
        t = np.concatenate([rng.normal(size=14), [0.0, -0.0, 1e-308, 1e308]])
        b1, txt, b2 = tmp / "a.ttk", tmp / "a.json", tmp / "b.ttk"
        io.write_tensor(b1, t)
        io.write_tensor(txt, io.read_tensor(b1))
        io.write_tensor(b2, io.read_tensor(txt))
        assert np.array_equal(io.read_tensor(b2), t)
        assert b1.read_bytes() == b2.read_bytes()

        # exit codes against a malformed-fixture corpus
        good = tmp / "good.json"
        io.write_tensor(good, np.ones(4))
        bad = tmp / "bad.json"
        bad.write_text("{not json")
        nan_file = tmp / "nan.json"
        io.write_tensor(nan_file, np.array([np.nan, 1.0]))
        big = tmp / "big.json"
        io.write_json(
            big,
            {"kind": "mps", "phys_dims": [2] * 30, "bond_dims": [1] * 29,
             "cores": [{"dims": [1, 2, 1], "data": [1.0, 1.0]}] * 30},
        )
        out = tmp / "out.json"
        assert run("compress", "--input", str(good), "--output", str(out)).returncode == 0
        assert run("compress", "--input", str(good), "--output", str(out),
                   "--max-bond", "0").returncode == 1
        assert run("compress", "--input", str(bad), "--output", str(out)).returncode == 2
        assert run("compress", "--input", str(tmp / "absent.json"),
                   "--output", str(out)).returncode == 2
        assert run("compress", "--input", str(nan_file), "--output", str(out)).returncode == 3
        assert run("reconstruct", "--input", str(big), "--output", str(out)).returncode == 3

        # qudo subcommand reproduces the solver-exactness check through files
        rng8 = np.random.default_rng(1012)
        for trial in range(12):
            n, d = (8, 2) if trial % 2 == 0 else (5, 3)
            p = unique_optimum_qudo(rng8, n, d)
            prob = tmp / f"q{trial}.json"
            io.write_json(
                prob,
                {"n": n, "d": d, "v": [list(v) for v in p.local],
                 "w": [[list(row) for row in w] for w in p.coupling]},
            )
            oracle_out = tmp / f"qo{trial}.json"
            r = run("oracle", "qudo", "--problem", str(prob), "--output", str(oracle_out))
            assert r.returncode == 0, r.stderr
            want = json.loads(oracle_out.read_text())
            for tau in ("0.1", "1", "10"):
                sol_out = tmp / f"qs{trial}_{tau}.json"
                r = run("qudo-solve", "--problem", str(prob), "--tau", tau,
                        "--output", str(sol_out))
                assert r.returncode == 0, r.stderr
                got = json.loads(sol_out.read_text())
                assert got["configuration"] == want["configuration"]

        # tsp subcommand reproduces the constraint-layer check through files
        for trial in range(8):
            costs = np.round(rng8.uniform(0.0, 10.0, size=(5, 5)), 6)
            np.fill_diagonal(costs, 0.0)
            variant = "closed" if trial % 2 == 0 else "open"
            prob = tmp / f"t{trial}.json"
            io.write_json(prob, {"cost_matrix": costs.tolist(), "variant": variant})
            sol_out = tmp / f"ts{trial}.json"
            oracle_out = tmp / f"to{trial}.json"
            assert run("tsp-solve", "--problem", str(prob),
                       "--output", str(sol_out)).returncode == 0
            assert run("oracle", "tsp", "--problem", str(prob),
                       "--output", str(oracle_out)).returncode == 0
            got = json.loads(sol_out.read_text())
            want = json.loads(oracle_out.read_text())
            assert got["configuration"] == want["configuration"]
            assert got["cost"] == pytest.approx(want["cost"], rel=1e-12)
