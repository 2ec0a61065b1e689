"""Program side of one benchmark run: set up ``ttkit``, run rounds, save outputs.

``run.py`` starts this file as a fresh process whose ``PYTHONPATH`` holds
only the checkout's ``src``, so ``import ttkit`` costs what a user pays.
One caller drives the program in a closed loop: each op finishes before
the next starts.  A round is one pass through the workload's fixed mix of
ops, and its latency is the wall time of those ops alone; the bookkeeping
after a round (digests, reading solution files) is not timed.  Every
``REFERENCE_EVERY_S`` the worker also times a fixed reference job, and each
round is paired with the measurements just before and after it (see
:class:`Reference`).
Outputs are saved for ``run.py`` to check against the oracles in
``checks.py``.

    python3 bench/worker.py --workload W --fixtures DIR --work DIR \\
        --seconds S --trace 0|1 --out RESULT.json [--setup-only]
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Exit code of ``ttkit.cli.main(argv)``, and an error text when it raised."""
    try:
        return int(cli.main(argv)), ""
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), ""
    except Exception as exc:  # an op that raises counts as failed, the loop goes on
        return -1, f"{type(exc).__name__}: {exc}"


def _digest(path: Path) -> str:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return ""


class Compress:
    """``compress`` -> ``reconstruct`` -> ``layer-compress``, all through ``cli.main``."""

    def __init__(self, modules, fx: Path, work: Path, shapes: dict):
        self.cli = modules["cli"]
        bond = str(shapes["max_bond"])
        self.outputs = [work / "train.json", work / "back.ttk", work / "layer.json"]
        self.ops = [
            ("compress", ["compress", "--input", str(fx / "tensor.ttk"),
                          "--output", str(self.outputs[0]), "--max-bond", bond]),
            ("reconstruct", ["reconstruct", "--input", str(self.outputs[0]),
                             "--output", str(self.outputs[1])]),
            ("layer-compress", ["layer-compress", "--matrix", str(fx / "matrix.ttk"),
                                "--bias", str(fx / "bias.ttk"),
                                "--sites", str(shapes["matrix_sites"]),
                                "--max-bond", bond, "--output", str(self.outputs[2])]),
        ]
        self.records: list[dict] = []

    def prepare(self) -> None:
        pass

    def run_round(self, r: int) -> list[tuple[str, int, str, int]]:
        out = []
        for name, argv in self.ops:
            t0 = time.perf_counter_ns()
            code, err = _call_cli(self.cli, argv)
            out.append((name, code, err, time.perf_counter_ns() - t0))
        return out

    def after_round(self, r: int, ops) -> None:
        for (name, code, err, _), path in zip(ops, self.outputs):
            self.records.append(
                {"round": r, "op": name, "exit": code, "error": err, "digest": _digest(path)}
            )

    def dump(self, work: Path) -> dict:
        return {"records": self.records, "outputs": [str(p) for p in self.outputs]}


class Infer:
    """One request: compressed layer, squash, cosine feature map, kernel MPO."""

    def __init__(self, modules, fx: Path, work: Path, shapes: dict):
        import numpy as np

        from checks import squash

        self.np, self.squash = np, squash
        self.m = modules
        self.shapes = shapes
        data = np.load(fx / "infer.npz")
        self.weights, self.bias = data["weights"], data["bias"]
        self.requests = data["requests"]
        self.mpo_cores = [data[f"mpo_{k:02d}"] for k in range(shapes["kernel_sites"])]
        self.n_in = shapes["kernel_sites"]
        self.y: dict[int, object] = {}
        self.out: dict[int, object] = {}
        self.records: list[dict] = []
        self._last = None

    def prepare(self) -> None:
        layers, tt, kernels = self.m["layers"], self.m["tt"], self.m["kernels"]
        n = self.weights.shape[0]
        plan = layers.ShapePlan.balanced(n, self.weights.shape[1], self.shapes["matrix_sites"])
        policy = tt.TruncationPolicy.truncated(max_bond=self.shapes["max_bond"])
        self.layer, _ = layers.compress_layer(self.weights, self.bias, plan, policy)
        self.mpo = tt.TensorTrainOperator(self.mpo_cores)
        self.site_kernels = [kernels.cosine_kernel()] * self.n_in

    def run_round(self, r: int):
        layers, kernels = self.m["layers"], self.m["kernels"]
        x = self.requests[r % len(self.requests)]
        t0 = time.perf_counter_ns()
        try:
            y = layers.apply_compressed_layer(self.layer, x)
            features = kernels.product_feature_map(self.squash(y[: self.n_in]), self.site_kernels)
            out = kernels.apply_mpo_to_product(self.mpo, features)
            code, err = 0, ""
        except Exception as exc:  # counted as a failed request
            y = out = None
            code, err = -1, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter_ns() - t0
        self._last = (y, out)
        return [("request", code, err, dt)]

    def after_round(self, r: int, ops) -> None:
        (_, code, err, _), = ops
        i = r % len(self.requests)
        y, out = self._last
        if code == 0:
            if i not in self.y:
                self.y[i], self.out[i] = y, out
            elif not (self.np.array_equal(self.y[i], y) and self.np.array_equal(self.out[i], out)):
                code, err = -2, "output differs from an earlier answer to the same request"
        self.records.append({"round": r, "op": "request", "exit": code, "error": err})

    def dump(self, work: Path) -> dict:
        np = self.np
        keys = sorted(self.y)
        arrays = {
            "request_index": np.array(keys, dtype=np.int64),
            "y": np.array([self.y[k] for k in keys]),
            "out": np.array([self.out[k] for k in keys]),
        }
        arrays.update({f"w_{k:02d}": np.asarray(c) for k, c in enumerate(self.layer.weights.cores)})
        arrays.update({f"b_{k:02d}": np.asarray(c) for k, c in enumerate(self.layer.bias.cores)})
        np.savez(work / "infer-outputs.npz", **arrays)
        return {"records": self.records, "outputs": str(work / "infer-outputs.npz")}


class Solve:
    """Four ``cli.main`` solves per round, each on the next problem of its slice's pool.

    The truncated-TSP slice is not in the timed mix: it returns non-tours
    (a known defect), so it runs once per problem of its pool after the
    timed loop, as a probe whose failures are reported on their own.
    """

    def __init__(self, modules, fx: Path, work: Path, shapes: dict):
        from fixtures import solve_slices, truncated_slice

        self.cli = modules["cli"]
        self.work = work
        self.fx = fx
        self.slices = [self._with_pool(*sl) for sl in solve_slices()]
        self.truncated = self._with_pool(*truncated_slice())
        self.records: list[dict] = []
        self.probe_records: list[dict] = []

    def _with_pool(self, name, command, flags):
        pool = sorted(p.name for p in self.fx.glob(f"{name}_*.json"))
        if not pool:
            raise FileNotFoundError(f"no problem files for slice {name} in {self.fx}")
        return name, command, flags, pool

    def prepare(self) -> None:
        pass

    def _problem(self, pool, r):
        return pool[r % len(pool)]

    def _solve(self, slice_, problem: str):
        name, command, flags, _ = slice_
        argv = [command, "--problem", str(self.fx / problem),
                "--output", str(self.work / f"{name}.json"), *flags]
        t0 = time.perf_counter_ns()
        code, err = _call_cli(self.cli, argv)
        return name, code, err, time.perf_counter_ns() - t0

    def run_round(self, r: int):
        return [self._solve(sl, self._problem(sl[3], r)) for sl in self.slices]

    def _record(self, op, problem: str) -> dict:
        name, code, err, _ = op
        rec = {"op": name, "problem": problem, "exit": code, "error": err}
        path = self.work / f"{name}.json"
        if code == 0:
            try:
                sol = json.loads(path.read_text(encoding="utf-8"))
                rec["configuration"], rec["cost"] = sol["configuration"], sol["cost"]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rec["exit"], rec["error"] = -3, f"unreadable solution file: {exc}"
        path.unlink(missing_ok=True)
        return rec

    def after_round(self, r: int, ops) -> None:
        for op, (_, _, _, pool) in zip(ops, self.slices):
            self.records.append({"round": r, **self._record(op, self._problem(pool, r))})

    def probe(self) -> None:
        """Solve every problem of the truncated slice's pool once, untimed by the loop."""
        for problem in self.truncated[3]:
            op = self._solve(self.truncated, problem)
            self.probe_records.append({**self._record(op, problem), "ms": op[3] / 1e6})

    def dump(self, work: Path) -> dict:
        return {"records": self.records, "probe_records": self.probe_records}


WORKLOADS = {"compress": Compress, "infer": Infer, "solve": Solve}

REFERENCE_EVERY_S = 0.2


class Reference:
    """A fixed job that does not use ``ttkit``, timed between rounds.

    The machine this was tuned on alternates between a fast and a slow state
    every few seconds.  A round's latency divided by the mean of the
    reference times measured just before and just after it cancels that
    state: over repeated 30-s runs the median of the ratio moved by about 3%
    where the median latency moved by 20%.  Both neighbours count because a
    ``compress`` round outlasts the 0.2 s between measurements.  The job is
    three SVDs of a 96x96 matrix.  Of the jobs tried (an interpreted loop,
    a pass over 16 MB of fresh memory, a 512x128 SVD or matmul, and a mix
    of the loop, these SVDs and an 8 MB pass), it gave the steadiest median
    ratios for both ``compress`` and ``infer``; memory passes were the
    least steady.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.small = np.random.default_rng(12345).normal(size=(96, 96))

    def _once(self) -> int:
        t0 = time.perf_counter_ns()
        for _ in range(3):
            self.np.linalg.svd(self.small)
        return time.perf_counter_ns() - t0

    def measure(self) -> int:
        """Median of three timings of the job, in ns."""
        return sorted(self._once() for _ in range(3))[1]


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through its own API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            func = getattr(lib, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--fixtures", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import ttkit
    from ttkit import cli, kernels, layers, tt

    import_s = time.perf_counter() - t0
    from fixtures import SHAPES

    modules = {"cli": cli, "layers": layers, "kernels": kernels, "tt": tt}
    work = Path(args.work)
    wl = WORKLOADS[args.workload](modules, Path(args.fixtures), work, SHAPES[args.workload])

    t0 = time.perf_counter()
    wl.prepare()
    prepare_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = wl.run_round(0)
    warmup_s = time.perf_counter() - t0
    wl.after_round(0, warm)
    result = {
        "ttkit_file": ttkit.__file__,
        "setup": {"import_s": import_s, "prepare_s": prepare_s, "warmup_s": warmup_s,
                  "total_s": import_s + prepare_s + warmup_s},
    }
    if not args.setup_only:
        import numpy as np

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        reference = Reference()
        rounds = []  # [round, traced, duration_ns, [op durations], reference_ns]
        unpaired = []  # rounds waiting for the next reference measurement
        last_ref = [reference.measure()]

        def pair_reference():
            ref_ns = reference.measure()
            for row in unpaired:
                row[4] = (last_ref[0] + ref_ns) / 2
            unpaired.clear()
            last_ref[0] = ref_ns
            return time.perf_counter() + REFERENCE_EVERY_S

        next_reference = time.perf_counter() + REFERENCE_EVERY_S
        deadline = time.perf_counter() + args.seconds
        r = 1
        while time.perf_counter() < deadline:
            traced = tracer is not None and r % 2 == 1
            if traced:
                with tracer.round(r):
                    ops = wl.run_round(r)
            else:
                ops = wl.run_round(r)
            rounds.append([r, traced, sum(op[3] for op in ops), [op[3] for op in ops], None])
            unpaired.append(rounds[-1])
            wl.after_round(r, ops)
            r += 1
            if time.perf_counter() >= next_reference:
                next_reference = pair_reference()
        if unpaired:
            pair_reference()
        # Peak RSS of the timed loop, before any probe adds to it.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace and hasattr(wl, "probe"):
            wl.probe()
        result.update(wl.dump(work))
        result["rounds"] = rounds
        result["op_names"] = [op[0] for op in warm]
        if tracer is not None:
            result["spans"] = tracer.summary()
            result["counters"] = tracer.counters
            with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
                for row in tracer.rows():
                    fh.write(json.dumps(row) + "\n")
            result["spans_file"] = str(work / "spans.jsonl")
        result["numpy"] = np.__version__
        result["blas_threads"] = blas_threads()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
