"""ttkit benchmark: one workload, one seed, checked outputs, metrics as JSON.

    python3 bench/run.py --workload compress|infer|solve --seed N \\
        --seconds S --trace 0|1

Run from the root of a ttkit checkout.  Fixtures are generated from the
seed (cached under ``.bench_build/``); the program runs in fresh worker
processes that import ``ttkit`` from the checkout's ``src``; every output
is checked against the independent oracles in ``checks.py``.  Standard
output ends with two JSON lines: a report (every end-to-end metric with its
unit, tail percentile and round count, reach, the environment record, and
with ``--trace 1`` every span that occurred) and then the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` measures
the end-to-end metrics; ``--trace 1`` alternates traced and untraced rounds
and reports per-layer metrics and the tracing overhead.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import fixtures
import checks

BENCH_DIR = Path(__file__).resolve().parent
# BLAS threads for the program.  The machine this was tuned on has 2
# cores; one thread measured as fast as two for these shapes and shares the
# machine with less noise.
BLAS_THREADS = 1
# Setup is measured this many times per run, in fresh processes; the
# median is reported.  Half of the setup-only samples run before the timed
# loop and half after it, so that the median spans more than one of the
# machine's fast and slow stretches.
SETUP_SAMPLES = 7
# Wall-time budget of one reach-ladder step, including interpreter start.
LADDER_BUDGET_S = 2.0
# A run gives up (exit 2, no result) when its workers have not finished
# this long after it started, so that it always ends within 180 s.
RUN_LIMIT_S = 170.0

UNITS = {
    "ops_per_s": "1/s",
    "round_rel_p50": "ratio",
    "round_rel_tail": "ratio",
    "round_ms_p50": "ms",
    "round_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "truncated_fail_ratio": "ratio",
    "rel_error": "ratio",
    "opt_gap": "ratio",
    "qudo_reach_n": "count",
    "tsp_reach_nodes": "count",
}
# End-to-end metrics in the result object (BENCHMARK.json "end_to_end").
# Round latency enters as a ratio to the reference job the worker times
# between rounds: on a machine that alternates between a fast and a slow
# state, the median and tail in milliseconds moved by up to a third
# between runs, the ratios by a few percent.  The millisecond figures,
# throughput, fail_ratio, rel_error, opt_gap and reach are in the report
# line; the last four also do not apply to every workload or can be zero.
RESULT_METRICS = ("round_rel_p50", "round_rel_tail", "setup_s", "peak_rss_mb")

# Per-layer metrics in the result object of a traced run (BENCHMARK.json
# "per_layer").  Times are listed only for spans that every workload
# reaches; calls are listed for spans that infer or solve reach, zero where
# one of them skips it.  Spans that only compress reaches (tensor and train
# files, layer compression) are in the report line, which lists every span
# that occurred.
LAYER_TIME_SPANS = ("tt.truncated_svd", "tt.TensorTrain", "tt.tt_to_dense", "dense.as_tensor")
LAYER_CALL_SPANS = (
    "tt.truncated_svd", "tt.tt_svd", "tt.tt_round", "tt.apply_mpo", "tt.tt_add",
    "tt.TensorTrain", "tt.tt_to_dense",
    "io.read_problem", "io.write_json", "cli.main",
    "dense.split_index",
    "layers.vector_to_mps", "layers.apply_compressed_layer",
    "kernels.product_feature_map", "kernels.apply_mpo_to_product",
    "optimize.ite_state", "optimize.non_repetition_layer", "optimize.apply_non_repetition",
    "optimize.readout_exact",
)
LAYER_COUNTERS = {
    "tt.svd_flops": "flop",
    "tt.tt_to_dense.elements": "count",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "kernels.peak_elements": "count",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail(samples) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it (never below the median), and its value."""
    n = len(samples)
    pct = max(50.0, 100.0 * (1.0 - 10.0 / n))
    return pct, float(np.percentile(samples, pct))


def worker_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _time_left(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_LIMIT_S:.0f} s limit")
    return left


def run_worker(args, env, fx: Path, work: Path, out: Path, setup_only: bool,
               deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", args.workload, "--fixtures", str(fx), "--work", str(work),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    log = work / "worker.log"
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(
                cmd, env=env, stdout=fh, stderr=subprocess.STDOUT,
                timeout=_time_left(deadline),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{log.read_text()[-4000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    src = Path(env["PYTHONPATH"]).resolve()
    if not Path(result["ttkit_file"]).resolve().is_relative_to(src):
        raise BenchError(f"worker imported ttkit from {result['ttkit_file']}, not from {src}")
    return result


# -- checks ----------------------------------------------------------------

def _train_cores(obj) -> list[np.ndarray]:
    return [np.asarray(c["data"], dtype=np.float64).reshape(c["dims"]) for c in obj["cores"]]


def _op_reason(rec, reasons, final=None) -> str | None:
    """Why one recorded op failed, or ``None``."""
    if rec["exit"] != 0:
        return f"exit {rec['exit']} {rec['error']}".strip()
    if reasons[rec["op"]] is not None:
        return reasons[rec["op"]]
    if final is not None and rec["digest"] != final[rec["op"]]:
        return "output differs from the checked final output"
    return None


def check_compress(fx: Path, result: dict, shapes: dict) -> tuple[dict, dict]:
    """Check the last round's output files; every round must have written the same bytes."""
    paths = dict(zip(("compress", "reconstruct", "layer-compress"), map(Path, result["outputs"])))
    noise, bond = shapes["noise_rel"], shapes["max_bond"]
    tensor = fixtures.read_ttk(fx / "tensor.ttk")
    reasons, final, dense_train = {}, {}, None
    errors = {"rel_error_roundtrip": None, "rel_error_layer": None}
    for op, path in paths.items():
        try:
            final[op] = hashlib.sha256(path.read_bytes()).hexdigest()
            if op == "compress":
                cores = _train_cores(json.loads(path.read_text(encoding="utf-8")))
                dense_train = checks.mps_to_vector(cores)
                reason, _ = checks.check_reconstruction(tensor, dense_train, noise, tensor.ndim)
                if max(c.shape[2] for c in cores) > bond:
                    reason = f"train bonds exceed --max-bond {bond}"
            elif op == "reconstruct":
                back = fixtures.read_ttk(path)
                reason, errors["rel_error_roundtrip"] = checks.check_reconstruction(
                    tensor, back, noise, tensor.ndim)
                if reason is None and back.shape != tensor.shape:
                    reason = f"reconstruction has shape {back.shape}, expected {tensor.shape}"
                if reason is None and dense_train is not None:
                    drift = np.linalg.norm(back.ravel() - dense_train) / np.linalg.norm(dense_train)
                    if drift > checks.EXACT_TOL:
                        reason = f"reconstruction differs from the densified train by {drift:.3e}"
            else:
                layer = json.loads(path.read_text(encoding="utf-8"))
                a_cores, c_cores = _train_cores(layer["weights"]), _train_cores(layer["bias"])
                a, c = fixtures.read_ttk(fx / "matrix.ttk"), fixtures.read_ttk(fx / "bias.ttk")
                reason, errors["rel_error_layer"] = checks.check_reconstruction(
                    np.concatenate([a.ravel(), c]),
                    np.concatenate([checks.mpo_to_matrix(a_cores).ravel(),
                                    checks.mps_to_vector(c_cores)]),
                    noise, shapes["matrix_sites"],
                )
                if max(core.shape[3] for core in a_cores) > bond:
                    reason = f"layer bonds exceed --max-bond {bond}"
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output {path.name}: {exc}"
        reasons[op] = reason
    failures = [_op_reason(rec, reasons, final) for rec in result["records"]]
    parts = [e for e in errors.values() if e is not None]
    quality = {"rel_error": sum(parts) / len(parts) if len(parts) == 2 else None, **errors}
    return _tally(result["records"], failures), quality


def check_infer(fx: Path, result: dict, shapes: dict) -> tuple[dict, dict]:
    data = np.load(fx / "infer.npz")
    outs = np.load(result["outputs"])
    a, c, xs = data["weights"], data["bias"], data["requests"]
    w_cores = [outs[k] for k in sorted(outs.files) if k.startswith("w_")]
    b_cores = [outs[k] for k in sorted(outs.files) if k.startswith("b_")]
    mpo_cores = [data[f"mpo_{k:02d}"] for k in range(shapes["kernel_sites"])]
    a2, c2 = checks.mpo_to_matrix(w_cores), checks.mps_to_vector(b_cores)
    layer_reason, _ = checks.check_reconstruction(
        np.concatenate([a.ravel(), c]), np.concatenate([a2.ravel(), c2]),
        shapes["noise_rel"], shapes["matrix_sites"],
    )
    reasons, errors = {}, []
    for i, y, out in zip(outs["request_index"], outs["y"], outs["out"]):
        x = xs[i]
        y_true = a @ x + c
        errors.append(float(np.linalg.norm(y - y_true) / np.linalg.norm(y_true)))
        reason = layer_reason or checks.check_layer_output(y, a2 @ x + c2)
        if reason is None:
            z = checks.squash(y[: shapes["kernel_sites"]])
            ref = checks.kernel_reference(mpo_cores, checks.cosine_features(z))
            reason = checks.check_kernel_output(out, ref)
        reasons[int(i)] = reason
    failures = []
    for rec in result["records"]:
        request = rec["round"] % len(xs)
        failures.append(_op_reason(rec, {"request": reasons.get(request, "never checked")}))
    quality = {"rel_error": float(np.mean(errors)) if errors else None}
    return _tally(result["records"], failures), quality


def _problem_oracle(path: Path) -> tuple[dict, float]:
    """A problem file and its optimum cost."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    if "cost_matrix" in obj:
        return obj, checks.held_karp(obj["cost_matrix"], obj["variant"])
    return obj, checks.qudo_optimum(obj["v"], obj["w"])[0]


def _check_solution(obj, optimum, sol, exact: bool) -> str | None:
    if "cost_matrix" in obj:
        return checks.check_tour(obj["cost_matrix"], obj["variant"], sol["configuration"],
                                 sol["cost"], optimum, exact)
    return checks.check_qudo(obj["v"], obj["w"], sol["configuration"], sol["cost"], optimum)


def _known_defect(rec, why) -> bool:
    # ROADMAP item 5: truncated tsp-solve may return a non-tour with exit 0,
    # or (once fixed) refuse with exit 3.  Either is a failed probe op, not an
    # unexpected wrong answer.
    return rec["exit"] == 3 or why.startswith(("not a tour", "closed tour does not start"))


def _solve_failures(fx: Path, records, cache: dict, exact: bool) -> list:
    failures = []
    for rec in records:
        name = rec["problem"]
        if name not in cache:
            cache[name] = _problem_oracle(fx / name)
        obj, optimum = cache[name]
        if rec["exit"] != 0:
            failures.append(f"exit {rec['exit']} {rec['error']}".strip())
        else:
            failures.append(_check_solution(obj, optimum, rec, exact=exact))
    return failures


def check_solve(fx: Path, result: dict, shapes: dict) -> tuple[dict, dict]:
    """Check the timed exact solves, then the truncated-TSP probe.

    Every timed op must give the optimum.  The probe (ROADMAP item 5's
    defect) is tallied on its own: its non-tours are reported as
    ``truncated_fail_ratio`` and leave ``correct`` true; any other wrong
    answer from it makes ``correct`` false.
    """
    cache: dict[str, tuple] = {}
    timed = _tally(result["records"], _solve_failures(fx, result["records"], cache, True))
    probe_records = result.get("probe_records", [])
    probe_failures = _solve_failures(fx, probe_records, cache, False)
    probe = _tally(probe_records, probe_failures, expected=_known_defect)
    gaps = [(float(rec["cost"]) - cache[rec["problem"]][1]) / cache[rec["problem"]][1]
            for rec, why in zip(probe_records, probe_failures) if why is None]
    timed["correct"] = timed["correct"] and probe["correct"]
    quality = {"opt_gap": float(np.mean(gaps)) if gaps else None,
               "valid_truncated_tours": len(gaps)}
    if probe_records:
        quality["truncated_fail_ratio"] = probe["failed"] / probe["attempted"]
        quality["truncated_probe"] = {
            **probe, "op_ms_p50": statistics.median(rec["ms"] for rec in probe_records)}
    return timed, quality


def _tally(records, failures, expected=lambda rec, why: False) -> dict:
    """Attempted/failed over counted ops; correct unless a failure is unexpected.

    Warm-up (round 0) outputs are checked too but not counted.
    """
    attempted = failed = 0
    unexpected, examples = [], []
    for rec, why in zip(records, failures):
        counted = rec.get("round") != 0
        where = f"round {rec['round']}" if "round" in rec else rec["problem"]
        label = f"{where} {rec['op']}"
        if why is not None and not expected(rec, why):
            unexpected.append(f"{label}: {why}")
        if counted:
            attempted += 1
            if why is not None:
                failed += 1
                if len(examples) < 5:
                    examples.append(f"{label}: {why}")
    return {"attempted": attempted, "failed": failed, "correct": not unexpected,
            "unexpected": unexpected[:5], "failure_examples": examples}


CHECKS = {"compress": check_compress, "infer": check_infer, "solve": check_solve}


# -- reach ladder ------------------------------------------------------------

def reach_ladder(fx: Path, env: dict, work: Path, deadline: float) -> dict:
    """Largest QUDO n and closed-tour size solved right, with default flags, within budget.

    Each step runs ``python -m ttkit`` in a fresh process; a family stops at
    its first step that fails, answers wrong, or runs over budget.
    """
    s = fixtures.SHAPES["solve"]
    families = {
        "qudo_reach_n": ("qudo-solve", [(n, f"ladder-qudo_{n:04d}.json") for n in s["ladder_qudo_n"]]),
        "tsp_reach_nodes": ("tsp-solve", [(k, f"ladder-tsp_{k:02d}.json") for k in s["ladder_tsp_nodes"]]),
    }
    out, steps = {}, []
    for metric, (command, ladder) in families.items():
        reach = 0
        for size, name in ladder:
            sol_path = work / "ladder-solution.json"
            sol_path.unlink(missing_ok=True)
            cmd = [sys.executable, "-m", "ttkit", command, "--problem", str(fx / name),
                   "--output", str(sol_path)]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                      timeout=min(LADDER_BUDGET_S, _time_left(deadline)))
                code, stderr = proc.returncode, proc.stderr.strip()
            except subprocess.TimeoutExpired:
                code, stderr = None, "over budget"
            wall = time.perf_counter() - t0
            why = None
            if code != 0:
                why = f"exit {code}: {stderr[-200:]}"
            elif wall > LADDER_BUDGET_S:
                why = f"took {wall:.2f} s, over the {LADDER_BUDGET_S} s budget"
            else:
                obj, optimum = _problem_oracle(fx / name)
                sol = json.loads(sol_path.read_text(encoding="utf-8"))
                why = _check_solution(obj, optimum, sol, exact=True)
            steps.append({"family": metric, "size": size, "wall_s": wall, "stopped_by": why})
            if why is not None:
                break
            reach = size
        out[metric] = reach
    return {"reach": out, "steps": steps}


# -- metrics -------------------------------------------------------------------

def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result, setups, tally, quality, reach) -> tuple[dict, dict]:
    rounds = result["rounds"]
    durations_ms = [r[2] / 1e6 for r in rounds]
    ops = sum(len(r[3]) for r in rounds)
    relative = [r[2] / r[4] for r in rounds]
    pct, tail_ms = tail(durations_ms)
    metrics = {
        "round_rel_p50": statistics.median(relative),
        "round_rel_tail": tail(relative)[1],
        "ops_per_s": ops / (sum(durations_ms) / 1e3),
        "round_ms_p50": statistics.median(durations_ms),
        "round_ms_tail": tail_ms,
        "setup_s": statistics.median(s["total_s"] for s in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "fail_ratio": tally["failed"] / tally["attempted"],
    }
    for key in ("rel_error", "opt_gap", "truncated_fail_ratio"):
        if key in quality:
            metrics[key] = quality[key]
    if reach is not None:
        metrics.update(reach["reach"])
    op_names = result["op_names"]
    per_op = {
        name: statistics.median(r[3][k] / 1e6 for r in rounds)
        for k, name in enumerate(op_names)
    }
    extra = {"tail_percentile": pct, "rounds": len(rounds), "ops": ops,
             "reference_ms_p50": statistics.median(r[4] for r in rounds) / 1e6,
             "op_ms_p50": per_op,
             "setup_samples_s": [s["total_s"] for s in setups],
             "setup_parts_s": result["setup"]}
    return {k: _metric(v, UNITS[k]) for k, v in metrics.items()}, extra


def per_layer(result) -> tuple[dict, dict]:
    rounds = result["rounds"]
    traced = [r[2] / 1e6 for r in rounds if r[1]]
    plain = [r[2] / 1e6 for r in rounds if not r[1]]
    if not traced or not plain:
        raise BenchError("the traced run needs at least one traced and one untraced round")
    n = len(traced)
    spans, counters = result["spans"], result["counters"]
    occurred = {
        name: {"calls": s["calls"] / n, "self_ms": s["self_ns"] / 1e6 / n}
        for name, s in sorted(spans.items())
    }
    overhead_ms = statistics.median(traced) - statistics.median(plain)
    metrics = {}
    for name in LAYER_CALL_SPANS:
        metrics[f"{name}.calls"] = _metric(spans.get(name, {}).get("calls", 0) / n, "count")
    for name in LAYER_TIME_SPANS:
        metrics[f"{name}.self_ms"] = _metric(spans[name]["self_ns"] / 1e6 / n, "ms")
    for key, unit in LAYER_COUNTERS.items():
        value = counters.get(key, 0)
        metrics[key] = _metric(value if key == "kernels.peak_elements" else value / n, unit)
    bonds_in = counters.get("tt.round_bonds_in", 0)
    metrics["tt.round_kept_ratio"] = _metric(
        counters.get("tt.round_bonds_out", 0) / bonds_in if bonds_in else 0.0, "ratio")
    metrics["trace.overhead_ms"] = _metric(overhead_ms, "ms")
    metrics["trace.overhead_pct"] = _metric(100.0 * overhead_ms / statistics.median(plain), "%")
    extra = {"traced_rounds": n, "untraced_rounds": len(plain),
             "round_ms_p50_traced": statistics.median(traced),
             "round_ms_p50_untraced": statistics.median(plain),
             "spans_per_round": occurred}
    return metrics, extra


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        return None
    if len(out) == 2 and Path(out[0]).resolve() == root.resolve():
        return out[1]
    return None


def environment(root: Path, seed: int, workload: str, result: dict) -> dict:
    commit = _git_commit(root)
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": result.get("numpy", np.__version__),
        "blas": blas_name,
        "blas_threads": result.get("blas_threads"),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "workload": workload,
        "shapes": fixtures.SHAPES[workload],
        "load": "closed loop, one caller in one process",
    }


def run(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    src = root / "src"
    if not (src / "ttkit" / "__init__.py").is_file():
        raise BenchError(f"no ttkit sources at {src / 'ttkit'}; run from a ttkit checkout")
    cache = root / ".bench_build" / "ttkit-bench"
    fx = fixtures.fixture_dir(cache / "fixtures", args.workload, args.seed)
    env = worker_env(src)
    work = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=cache))
    try:
        setups = []

        def sample_setups(indexes):
            for i in indexes:
                probe = run_worker(args, env, fx, work, work / f"setup{i}.json", True, deadline)
                setups.append(probe["setup"])

        extra_samples = 0 if args.trace else SETUP_SAMPLES - 1
        sample_setups(range(extra_samples // 2))
        result = run_worker(args, env, fx, work, work / "result.json", False, deadline)
        setups.append(result["setup"])
        sample_setups(range(extra_samples // 2, extra_samples))
        shapes = fixtures.SHAPES[args.workload]
        tally, quality = CHECKS[args.workload](fx, result, shapes)
        report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "env": environment(root, args.seed, args.workload, result),
                  "checks": tally, "quality": quality}
        if args.trace:
            metrics, extra = per_layer(result)
            spans_dir = cache / "spans"
            spans_dir.mkdir(exist_ok=True)
            spans_file = spans_dir / f"{args.workload}.jsonl"
            shutil.move(result["spans_file"], spans_file)
            extra["spans_file"] = str(spans_file.relative_to(root))
        else:
            reach = reach_ladder(fx, env, work, deadline) if args.workload == "solve" else None
            metrics, extra = end_to_end(result, setups, tally, quality, reach)
            if reach is not None:
                extra["reach_steps"] = reach["steps"]
            report["metrics"] = metrics
        report.update(extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    final = {"correct": tally["correct"], "attempted": tally["attempted"],
             "failed": tally["failed"],
             "metrics": ({k: metrics[k] for k in RESULT_METRICS} if not args.trace else metrics)}
    return {"report": report, "result": final}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        out = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
