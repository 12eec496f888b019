"""The class alignment's assignment problem: the lexicographically first
permutation of largest total weight over a square integer table, in
O(K^3) with numpy alone."""

from __future__ import annotations

import numpy as np


def first_best_assignment(table: np.ndarray) -> tuple[int, ...]:
    """The lexicographically first permutation ``perm`` that maximizes
    ``table[k, perm[k]].sum()`` over a square integer table, in O(K^3).

    The Hungarian method (Kuhn 1955; Munkres 1957) gives one best
    assignment and dual potentials; the best assignments are exactly the
    perfect matchings on the edges those potentials make tight. Row by row,
    row i then takes the smallest tight column that still leaves a perfect
    matching: its own, or one whose row can pass its column along an
    alternating path of tight edges through later rows back to row i's."""
    K = table.shape[0]
    col_of, u, v = _hungarian(-table.astype(np.int64))
    if table.trace() == table[np.arange(K), col_of].sum():
        return tuple(range(K))  # identity is the first permutation
    tight = u[:, None] + v[None, :] == -table
    row_of = np.argsort(col_of)
    for i in range(K - 1):
        home = col_of[i]
        # reached[r]: row r (after i) can move to column via[r] while the
        # chain of rows it displaces ends in row i's column
        reached = np.zeros(K, dtype=bool)
        via = np.zeros(K, dtype=np.int64)
        frontier = np.array([home])
        while frontier.size:
            hits = tight[:, frontier]
            hits[: i + 1] = False
            hits[reached] = False
            rows = np.flatnonzero(hits.any(axis=1))
            reached[rows] = True
            via[rows] = frontier[hits[rows].argmax(axis=1)]
            frontier = col_of[rows]
        free = reached[row_of]
        free[home] = True
        j = int(np.flatnonzero(tight[i] & free)[0])
        if j == home:
            continue
        r, col_of[i] = row_of[j], j
        while True:
            c = via[r]
            r_next, col_of[r] = row_of[c], c
            if c == home:
                break
            r = r_next
        row_of[col_of] = np.arange(K)
    return tuple(int(c) for c in col_of)


def _hungarian(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A minimum-cost assignment of a square integer cost matrix by
    shortest augmenting paths, with its dual potentials: returns
    ``(col_of, u, v)`` with ``u[i] + v[j] <= cost[i, j]`` everywhere and
    equality on every assigned ``(i, col_of[i])``. Integer arithmetic, so
    ties stay exact."""
    K = cost.shape[0]
    big = np.iinfo(np.int64).max // 4
    # 1-based rows and columns; column 0 is the unassigned start of a path
    a = np.zeros((K + 1, K + 1), dtype=np.int64)
    a[1:, 1:] = cost
    u = np.zeros(K + 1, dtype=np.int64)
    v = np.zeros(K + 1, dtype=np.int64)
    row_at = np.zeros(K + 1, dtype=np.int64)  # row_at[j]: row assigned column j, 0 for none
    way = np.zeros(K + 1, dtype=np.int64)
    for i in range(1, K + 1):
        row_at[0], j0 = i, 0
        slack = np.full(K + 1, big, dtype=np.int64)
        used = np.zeros(K + 1, dtype=bool)
        while row_at[j0]:
            used[j0] = True
            i0 = row_at[j0]
            reduced = a[i0] - u[i0] - v
            better = ~used & (reduced < slack)
            slack[better], way[better] = reduced[better], j0
            open_slack = np.where(used, big, slack)
            j1 = int(np.argmin(open_slack))
            delta = open_slack[j1]
            u[row_at[used]] += delta
            v[used] -= delta
            slack[~used] -= delta
            j0 = j1
        while j0:
            j1 = way[j0]
            row_at[j0], j0 = row_at[j1], j1
    col_of = np.empty(K, dtype=np.int64)
    col_of[row_at[1:] - 1] = np.arange(K)
    return col_of, u[1:], v[1:]
