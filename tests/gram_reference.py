"""Reference Gram matrix of the derangement block M, built densely.

Each derangement row becomes its 0/1 row of M, and N = M^T M is a float64
matrix product over chunks of rows: the straightforward construction that
`modrank.gram_offdiag` must reproduce exactly.
"""

import numpy as np


def derangement_block(rows, n):
    """Dense 0/1 block of M for the given derangement image rows.

    Each row has exactly n-2 ones: the first n-1 points all move, and
    exactly one of them lands on the last point (whose column is cut)."""
    rows = np.asarray(rows)
    m = rows.shape[0]
    cols = (n - 1) * (n - 2)
    if (rows == np.arange(n, dtype=rows.dtype)).any():
        raise ValueError("non-derangement row passed to derangement_block")
    # index arithmetic overflows int8 past degree 12; widen first
    pts = np.arange(n - 1, dtype=np.int64)
    J = rows[:, : n - 1].astype(np.int64)
    valid = J <= n - 2
    col = pts[None, :] * (n - 2) + J - (J > pts[None, :])
    block = np.zeros((m, cols), dtype=np.int8)
    r_idx = np.broadcast_to(np.arange(m)[:, None], J.shape)[valid]
    block[r_idx, col[valid]] = 1
    assert (block.sum(axis=1) == n - 2).all()
    return block


def dense_gram(rows, n, chunk=16_384):
    """Exact N = M^T M by float64 products of dense blocks; every partial
    sum is an integer bounded by the row count, far below 2^53."""
    cols = (n - 1) * (n - 2)
    acc = np.zeros((cols, cols), dtype=np.float64)
    for lo in range(0, rows.shape[0], chunk):
        blk = derangement_block(rows[lo : lo + chunk], n).astype(np.float64)
        acc += blk.T @ blk
    N = np.rint(acc).astype(np.int64)
    assert np.array_equal(acc, N)
    return N
