"""Tensor trains from scratch: decomposition, storage, truncation.

Walks a dense tensor through the SVD sweep, reads the storage formulas off
real cores, and shows that truncation error is exactly the discarded
spectral weight.
"""

import numpy as np

from ttkit import (
    TruncationPolicy,
    param_count_mps,
    tt_round,
    tt_svd,
    tt_to_dense,
)

rng = np.random.default_rng(0)

# --- exact decomposition round-trips ---------------------------------------
t = rng.normal(size=(4, 4, 4, 4, 4))
train = tt_svd(t, TruncationPolicy.exact())
back = tt_to_dense(train)
print("shape", t.shape, "-> bond dims", train.bond_dims)
print(f"exact round-trip error: {np.linalg.norm(back - t) / np.linalg.norm(t):.2e}")

# --- storage accounting -----------------------------------------------------
# A uniform train stores 2db + (N-2)db^2 elements instead of d^N.
for n, d, b in [(5, 2, 3), (8, 2, 4), (20, 2, 8)]:
    print(
        f"N={n:2d} d={d} b={b}: train stores {param_count_mps(n, d, b):6d} "
        f"elements vs dense {d**n}"
    )

# --- low-rank structure compresses, noise does not ---------------------------
low_rank = sum(
    np.multiply.outer(
        np.multiply.outer(rng.normal(size=8), rng.normal(size=8)), rng.normal(size=8)
    )
    for _ in range(2)
)
noise = rng.normal(size=(8, 8, 8))
for name, data in [("rank-2 sum", low_rank), ("white noise", noise)]:
    tr = tt_svd(data, TruncationPolicy.exact())
    print(f"{name:11s}: bond dims {tr.bond_dims}, {tr.param_count()} stored")

# --- truncation: error equals the dropped spectral weight -------------------
m = rng.normal(size=(64, 64))
sigma = np.linalg.svd(m, compute_uv=False)
print("\n  b   measured error    sqrt(tail of spectrum)")
for b in (1, 4, 16, 48):
    approx = tt_svd(m, TruncationPolicy.truncated(max_bond=b))
    err = np.linalg.norm(tt_to_dense(approx) - m)
    tail = np.sqrt(np.sum(sigma[b:] ** 2))
    print(f"{b:3d}   {err:14.6f}    {tail:14.6f}")

# --- rounding an existing train without densifying --------------------------
fat = tt_svd(low_rank + 1e-3 * noise, TruncationPolicy.exact())
weights = []
slim = tt_round(fat, TruncationPolicy.truncated(max_bond=2), discarded=weights)
err = np.linalg.norm(tt_to_dense(slim) - tt_to_dense(fat))
print(
    f"\nrounded bonds {fat.bond_dims} -> {slim.bond_dims}; "
    f"error {err:.3e} <= bound {np.sqrt(sum(weights)):.3e}"
)
