"""Independent brute-force oracles used to freeze expected values.

Everything here works by explicit enumeration or a different numerical
route than the library (nested loops instead of tensordot, Gram-matrix
eigenvalues instead of SVD), so agreement is meaningful.  The last helper
checks the ``discarded=`` list contract that every SVD sweep shares.
"""

from functools import reduce
from itertools import product

import numpy as np


def loop_contract_pair(a, b, axis_pairs):
    """contract_pair by explicit nested loops over every index."""
    axes_a = [i for i, _ in axis_pairs]
    axes_b = [j for _, j in axis_pairs]
    free_a = [i for i in range(a.ndim) if i not in axes_a]
    free_b = [j for j in range(b.ndim) if j not in axes_b]
    out_shape = [a.shape[i] for i in free_a] + [b.shape[j] for j in free_b]
    out = np.zeros(out_shape if out_shape else (1,))
    summed = [a.shape[i] for i in axes_a]
    for free_idx in product(*(range(n) for n in out_shape)):
        fa = free_idx[: len(free_a)]
        fb = free_idx[len(free_a) :]
        total = 0.0
        for bound in product(*(range(n) for n in summed)):
            ia = [0] * a.ndim
            ib = [0] * b.ndim
            for pos, v in zip(free_a, fa):
                ia[pos] = v
            for pos, v in zip(free_b, fb):
                ib[pos] = v
            for (pa, pb), v in zip(axis_pairs, bound):
                ia[pa] = v
                ib[pb] = v
            total += a[tuple(ia)] * b[tuple(ib)]
        out[free_idx if out_shape else (0,)] = total
    return out.reshape(out_shape)


def loop_five_node_network(a, b, c, d, e):
    """Six nested sums for the five-node two-free-leg reference network.

    ``T[i, p] = sum_{j,k,l,m,n,o} A[i,j,k,l] B[j,m] C[k,m,n] D[l,o] E[n,o,p]``
    """
    di, dp = a.shape[0], e.shape[2]
    out = np.zeros((di, dp))
    dims = (a.shape[1], a.shape[2], a.shape[3], b.shape[1], c.shape[2], d.shape[1])
    for i in range(di):
        for p in range(dp):
            total = 0.0
            for j, k, l, m, n, o in product(*(range(x) for x in dims)):
                total += a[i, j, k, l] * b[j, m] * c[k, m, n] * d[l, o] * e[n, o, p]
            out[i, p] = total
    return out


def singular_values_via_gram(m):
    """Singular values from the eigenvalues of m^T m (no SVD involved)."""
    gram = m.T @ m
    eigvals = np.linalg.eigvalsh(gram)
    return np.sqrt(np.clip(eigvals, 0.0, None))[::-1]


def enumerate_qudo(v_tables, w_tables):
    """All configurations and costs of a chain problem, by plain loops."""
    n = len(v_tables)
    d = len(v_tables[0])
    configs = list(product(range(d), repeat=n))
    costs = []
    for x in configs:
        c = sum(float(v_tables[i][x[i]]) for i in range(n))
        c += sum(float(w_tables[i][x[i]][x[i + 1]]) for i in range(n - 1))
        costs.append(c)
    return configs, costs


def enumerate_tours(costs, variant):
    """All tours and their costs in lexicographic order."""
    from itertools import permutations

    d = len(costs)
    if variant == "closed":
        tours = [(0,) + rest for rest in permutations(range(1, d))]
    else:
        tours = list(permutations(range(d)))
    out = []
    for tour in tours:
        c = sum(float(costs[tour[i]][tour[i + 1]]) for i in range(d - 1))
        if variant == "closed":
            c += float(costs[tour[-1]][0])
        out.append((tour, c))
    return out


def dense_outer(vectors):
    """Outer product by explicit enumeration of every multi-index."""
    dims = [len(v) for v in vectors]
    out = np.zeros(dims)
    for idx in product(*(range(n) for n in dims)):
        val = 1.0
        for v, i in zip(vectors, idx):
            val *= v[i]
        out[idx] = val
    return out


def outer_reduce(vectors):
    """Outer product folded left to right, one ``np.multiply.outer`` per site.

    The densification ``ProductState.to_dense`` used before it went through
    ``tt_to_dense``; the two differ only in how the factors are grouped.
    """
    return reduce(np.multiply.outer, vectors)


def einsum_train_dense(cores):
    """Dense tensor of a (left, physical, right) core chain by one einsum call."""
    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    bonds = [next(letters) for _ in range(len(cores) + 1)]
    phys = [next(letters) for _ in cores]
    spec = ",".join(bonds[k] + phys[k] + bonds[k + 1] for k in range(len(cores)))
    target = bonds[0] + "".join(phys) + bonds[-1]
    out = np.einsum(f"{spec}->{target}", *cores, optimize=True)
    return out.reshape(out.shape[1:-1])


def einsum_operator_dense(cores):
    """Dense (outputs..., inputs...) tensor of a (left, in, out, right) core chain."""
    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    bonds = [next(letters) for _ in range(len(cores) + 1)]
    ins = [next(letters) for _ in cores]
    outs = [next(letters) for _ in cores]
    spec = ",".join(bonds[k] + ins[k] + outs[k] + bonds[k + 1] for k in range(len(cores)))
    target = bonds[0] + "".join(outs + ins) + bonds[-1]
    out = np.einsum(f"{spec}->{target}", *cores, optimize=True)
    return out.reshape(out.shape[1:-1])


def einsum_apply_dense(op_cores, state_cores):
    """Dense outputs of a (left, in, out, right) chain applied to a (left, in, right) chain.

    One einsum call over both chains at once.
    """
    letters = iter("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
    n = len(op_cores)
    op_bonds = [next(letters) for _ in range(n + 1)]
    st_bonds = [next(letters) for _ in range(n + 1)]
    ins = [next(letters) for _ in range(n)]
    outs = [next(letters) for _ in range(n)]
    spec = ",".join(
        [op_bonds[k] + ins[k] + outs[k] + op_bonds[k + 1] for k in range(n)]
        + [st_bonds[k] + ins[k] + st_bonds[k + 1] for k in range(n)]
    )
    target = op_bonds[0] + st_bonds[0] + "".join(outs) + op_bonds[-1] + st_bonds[-1]
    out = np.einsum(f"{spec}->{target}", *op_cores, *state_cores, optimize=True)
    return out.reshape(out.shape[2:-2])


def fix_signs_loop(u, v):
    """Reference sign fix, column by column: first non-negligible entry of u made >= 0."""
    for j in range(u.shape[1]):
        col = u[:, j]
        peak = np.max(np.abs(col))
        if peak == 0.0:
            continue
        lead = col[np.abs(col) > 1e-12 * peak][0]
        if lead < 0.0:
            u[:, j] = -col
            v[j, :] = -v[j, :]


def sweep_with_list(kind, sweep, *args):
    """Run ``sweep(*args)`` without and with a ``discarded`` list that already
    holds entries, and check the list contract.

    Both calls return exactly ``kind`` with equal cores, and the list gains
    one weight per link after its old entries.  Returns the train and the
    new weights.
    """
    plain = sweep(*args)
    held = [-1.0, -2.0]
    train = sweep(*args, discarded=held)
    assert type(plain) is kind and type(train) is kind
    assert len(train.cores) == len(plain.cores)
    assert all(np.array_equal(a, b) for a, b in zip(train.cores, plain.cores))
    assert held[:2] == [-1.0, -2.0] and len(held) == 2 + train.n_sites - 1
    return train, held[2:]
