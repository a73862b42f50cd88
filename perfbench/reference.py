"""Plain Python-integer arithmetic mod p: the checker's own reference.

Nothing here imports stablext or numpy, so a defect in the program's
F_p kernel (such as a fixed-width overflow) cannot hide from a check built
on these functions.  A dense matrix is a list of rows of Python ints; a
sparse matrix is a list of rows, each a list of (column, value) pairs.
"""

from __future__ import annotations


def sparse(rows):
    """The nonzero entries of each row, as (column, value) pairs."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def matmul(x, y, p: int):
    """x @ y mod p for dense x and y."""
    cols = list(zip(*y))
    return [[sum(a * b for a, b in zip(row, col)) % p for col in cols]
            for row in x]


def sparse_product(x, y, p: int) -> dict:
    """x @ y mod p for sparse x and y, as {(row, col): value} of nonzeros."""
    out = {}
    for i, row in enumerate(x):
        for t, a in row:
            for j, b in y[t]:
                out[i, j] = out.get((i, j), 0) + a * b
    return {ij: v % p for ij, v in out.items() if v % p}


def intertwines(f, src_actions, tgt_actions, p: int) -> bool:
    """Whether the dense target.dim x source.dim matrix f satisfies
    T_b f = f S_b for every pair of sparse action matrices (S_b, T_b)."""
    fs = sparse(f)
    return all(sparse_product(t_b, fs, p) == sparse_product(fs, s_b, p)
               for s_b, t_b in zip(src_actions, tgt_actions))


def rank(vectors, p: int) -> int:
    """Rank mod p of sparse vectors given as {index: value} dicts.

    Each vector is reduced against the pivots found so far, smallest index
    first; pivot vectors are normalised to 1, so sparse inputs stay cheap.
    """
    pivots = {}
    for vec in vectors:
        row = {j: v % p for j, v in vec.items() if v % p}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                break
            s = row[c]
            for j, v in piv.items():
                w = (row.get(j, 0) - s * v) % p
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
    return len(pivots)


def dense_rank(rows, p: int) -> int:
    """Rank mod p of a dense matrix."""
    return rank([{j: v for j, v in enumerate(row) if v} for row in rows], p)


def combine(coeffs, maps, nrows: int, ncols: int, p: int):
    """sum_i c_i B_i mod p for sparse B_i, as a dense matrix."""
    acc = [[0] * ncols for _ in range(nrows)]
    for c, b in zip(coeffs, maps):
        for i, row in enumerate(b):
            out = acc[i]
            for j, v in row:
                out[j] += c * v
    return [[v % p for v in row] for row in acc]
