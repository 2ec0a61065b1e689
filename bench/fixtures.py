"""Seeded fixtures for the three benchmark workloads.

Everything the program receives is generated here from the seed and
written to a cache directory keyed by seed: binary TTKT tensor files and
JSON problem files for the command-line workloads, and one ``.npz`` of
plain arrays for ``infer``.  The writers follow the file formats in the
README and never call ``ttkit``, so the program only ever sees generated
bytes.  The same seed always gives the same files.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
from pathlib import Path

import numpy as np

# Bump when any generator below changes, so stale caches are not reused.
FIXTURE_VERSION = 2
# Seeds kept in the cache per workload; older ones are deleted, because a
# compress fixture is 16 MB and a run of the benchmark uses many seeds.
CACHED_SEEDS = 8

# Input shapes; reported with every result.
SHAPES = {
    "compress": {
        "tensor_dims": [4] * 10,
        "tensor_planted_rank": 8,
        "matrix": [1024, 1024],
        "matrix_sites": 5,
        "matrix_planted_rank": 8,
        "noise_rel": 1e-3,
        "max_bond": 16,
    },
    "infer": {
        "matrix": [1024, 1024],
        "matrix_sites": 5,
        "matrix_planted_rank": 8,
        "noise_rel": 1e-3,
        "max_bond": 16,
        "requests": 64,
        "kernel_sites": 30,
        "kernel_bond": 8,
        "kernel_outputs": 10,
    },
    "solve": {
        "pool": 16,
        "truncated_pool": 24,
        "qudo": [[20, 2], [8, 6]],
        "tsp_exact": [[7, "closed"], [6, "open"]],
        "tsp_truncated": [10, "closed"],
        "truncated_max_bond": 16,
        "ladder_qudo_n": [16, 32, 64, 128, 256, 512, 1024],
        "ladder_tsp_nodes": [5, 6, 7, 8, 9, 10],
    },
}

TTK_MAGIC = b"TTKT"


def write_ttk(path: Path, t: np.ndarray) -> None:
    """Binary tensor file: magic, version 1, rank (u32 LE), dims (u64 LE), f64 LE data."""
    t = np.ascontiguousarray(t, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(TTK_MAGIC + bytes([1]))
        fh.write(struct.pack("<I", t.ndim))
        fh.write(struct.pack(f"<{t.ndim}Q", *t.shape))
        fh.write(t.tobytes())


def read_ttk(path: Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != TTK_MAGIC or raw[4] != 1:
        raise ValueError(f"{path}: not a version-1 TTKT file")
    (rank,) = struct.unpack_from("<I", raw, 5)
    dims = struct.unpack_from(f"<{rank}Q", raw, 9)
    count = int(np.prod(dims, dtype=np.int64))
    return np.frombuffer(raw, dtype="<f8", count=count, offset=9 + 8 * rank).reshape(dims)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _chain_contract(cores: list[np.ndarray]) -> np.ndarray:
    acc = cores[0]
    for core in cores[1:]:
        acc = np.tensordot(acc, core, axes=([acc.ndim - 1], [0]))
    return acc.reshape(acc.shape[1:-1])


def planted_tensor(rng, dims, rank, noise_rel) -> np.ndarray:
    """Dense tensor of TT-rank ``rank`` plus Gaussian noise of relative norm ``noise_rel``."""
    bonds = [1] + [rank] * (len(dims) - 1) + [1]
    cores = [
        rng.normal(size=(bonds[k], d, bonds[k + 1])) / np.sqrt(bonds[k])
        for k, d in enumerate(dims)
    ]
    t = _chain_contract(cores)
    t /= np.linalg.norm(t)
    noise = rng.normal(size=t.shape)
    return t + noise_rel * noise / np.linalg.norm(noise)


def planted_matrix(rng, n, sites, rank, noise_rel) -> np.ndarray:
    """``n x n`` matrix whose operator train over ``sites`` equal factors has bond ``rank``.

    Row ``r`` and column ``c`` are split row-major into per-site digits and
    site ``k`` couples row digit ``k`` with column digit ``k``, the pairing
    ``ttkit`` uses; then relative noise is added.  Rows have unit RMS norm.
    """
    f = round(n ** (1.0 / sites))
    if f**sites != n:
        raise ValueError(f"{n} is not a {sites}-th power")
    bonds = [1] + [rank] * (sites - 1) + [1]
    cores = [
        rng.normal(size=(bonds[k], f, f, bonds[k + 1])) / np.sqrt(bonds[k])
        for k in range(sites)
    ]
    t = _chain_contract(cores)  # axes (row_0, col_0, row_1, col_1, ...)
    perm = [2 * k for k in range(sites)] + [2 * k + 1 for k in range(sites)]
    a = np.transpose(t, perm).reshape(n, n)
    a *= np.sqrt(n) / np.linalg.norm(a)
    noise = rng.normal(size=a.shape)
    return a + noise_rel * np.linalg.norm(a) * noise / np.linalg.norm(noise)


def kernel_mpo_cores(rng, sites, bond, outputs) -> list[np.ndarray]:
    """Random operator cores with one output index of size ``outputs`` on the middle site.

    Inputs have dimension 2, the size of the cosine kernel's features.
    """
    in_dim = 2
    label = sites // 2
    bonds = [1] + [bond] * (sites - 1) + [1]
    cores = []
    for k in range(sites):
        out = outputs if k == label else 1
        core = rng.normal(size=(bonds[k], in_dim, out, bonds[k + 1]))
        cores.append(core / np.sqrt(bonds[k] * in_dim))
    return cores


def qudo_problem(rng, n, d) -> dict:
    return {
        "n": n,
        "d": d,
        "v": rng.random((n, d)).tolist(),
        "w": rng.random((n - 1, d, d)).tolist(),
    }


def tsp_problem(rng, nodes, variant) -> dict:
    """Asymmetric leg costs drawn uniformly from [1, 2)."""
    costs = 1.0 + rng.random((nodes, nodes))
    np.fill_diagonal(costs, 0.0)
    return {"cost_matrix": costs.tolist(), "variant": variant}


def _gen_compress(rng, out: Path) -> None:
    s = SHAPES["compress"]
    tensor = planted_tensor(rng, s["tensor_dims"], s["tensor_planted_rank"], s["noise_rel"])
    write_ttk(out / "tensor.ttk", tensor)
    n = s["matrix"][0]
    a = planted_matrix(rng, n, s["matrix_sites"], s["matrix_planted_rank"], s["noise_rel"])
    write_ttk(out / "matrix.ttk", a)
    write_ttk(out / "bias.ttk", 0.1 * rng.normal(size=n))


def _gen_infer(rng, out: Path) -> None:
    s = SHAPES["infer"]
    n = s["matrix"][0]
    a = planted_matrix(rng, n, s["matrix_sites"], s["matrix_planted_rank"], s["noise_rel"])
    arrays = {
        "weights": a,
        "bias": 0.1 * rng.normal(size=n),
        "requests": rng.normal(size=(s["requests"], n)),
    }
    cores = kernel_mpo_cores(rng, s["kernel_sites"], s["kernel_bond"], s["kernel_outputs"])
    arrays.update({f"mpo_{k:02d}": c for k, c in enumerate(cores)})
    np.savez(out / "infer.npz", **arrays)


def solve_slices() -> list[tuple[str, str, list]]:
    """``(slice name, command, extra flags)`` for the four ops of one solve round."""
    s = SHAPES["solve"]
    slices = [(f"qudo{n}d{d}", "qudo-solve", []) for n, d in s["qudo"]]
    slices += [(f"tsp{k}{v}", "tsp-solve", []) for k, v in s["tsp_exact"]]
    return slices


def truncated_slice() -> tuple[str, str, list]:
    """``(slice name, command, extra flags)`` of the truncated-TSP probe after the timed loop."""
    s = SHAPES["solve"]
    k, v = s["tsp_truncated"]
    flags = ["--max-bond", str(s["truncated_max_bond"]), "--readout", "greedy"]
    return f"tsp{k}{v}-trunc", "tsp-solve", flags


def _gen_solve(rng, out: Path) -> None:
    s = SHAPES["solve"]
    for n, d in s["qudo"]:
        for i in range(s["pool"]):
            write_json(out / f"qudo{n}d{d}_{i:03d}.json", qudo_problem(rng, n, d))
    for k, v in s["tsp_exact"]:
        for i in range(s["pool"]):
            write_json(out / f"tsp{k}{v}_{i:03d}.json", tsp_problem(rng, k, v))
    k, v = s["tsp_truncated"]
    for i in range(s["truncated_pool"]):
        write_json(out / f"tsp{k}{v}-trunc_{i:03d}.json", tsp_problem(rng, k, v))
    for n in s["ladder_qudo_n"]:
        write_json(out / f"ladder-qudo_{n:04d}.json", qudo_problem(rng, n, 2))
    for k in s["ladder_tsp_nodes"]:
        write_json(out / f"ladder-tsp_{k:02d}.json", tsp_problem(rng, k, "closed"))


GENERATORS = {"compress": _gen_compress, "infer": _gen_infer, "solve": _gen_solve}


def fixture_dir(cache_root: Path, workload: str, seed: int) -> Path:
    """Generate (or reuse) the fixtures of one workload and seed; returns their directory."""
    final = cache_root / f"v{FIXTURE_VERSION}" / f"seed-{seed}" / workload
    if (final / "done").exists():
        return final
    tmp = final.with_name(f"{workload}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # One independent stream per workload, so each workload's inputs
    # depend only on the seed.
    stream = {"compress": 0, "infer": 1, "solve": 2}[workload]
    rng = np.random.default_rng([seed, stream])
    GENERATORS[workload](rng, tmp)
    (tmp / "done").write_text("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
    cached = sorted(final.parent.parent.glob(f"seed-*/{workload}"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-CACHED_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)
        if not any(old.parent.iterdir()):
            old.parent.rmdir()
    return final
