"""Transportation simplex for the dual of the ball-Lipschitz program.

The potential program

    max  sum_i c_i f_i,   |f_i - f_j| <= d_ij,   |f_i| <= cap_i

has as its LP dual a min-cost transshipment with node divergences c_i, metric
arc costs d_ij between sites, and arcs of cost cap_i to a boundary node.
Because the costs are a metric and the caps are 1-Lipschitz, every flow path
can be shortcut to a direct arc, so the dual collapses to a dense
transportation problem between the positive-mass sites (plus a boundary
source) and the negative-mass sites (plus a boundary sink).  Its optimum
equals the potential optimum by strong duality, and a maximizing potential
is one c-transform of its duals away (`lipschitz_potential`).

This module implements the classic transportation simplex on the dense cost
matrix: spanning-tree basis, vectorized reduced costs, deterministic
entering/leaving rules with a Bland-style fallback after degenerate stalls.
Everything is fixed-order, so results are reproducible bit for bit.

Basis tree.  Row a is node a and column b is node p + b.  The p + q - 1
basic cells live in numbered slots (``cells[k]``, ``flows[k]``); the tree
hangs from node 0 and is stored as arrays over nodes: ``parent``, the slot
of the edge to the parent (``pslot``), ``depth``, and ``thread``, the
successor in a preorder walk (cyclic, so the last node threads back to the
root), with its inverse ``rthread``.  Invariants after every pivot: the
subtree of v is the thread segment that starts at v and runs while the
depth stays above ``depth[v]``; ``depth[v] = depth[parent[v]] + 1``; the
potentials satisfy alpha[a] + beta[b] = cost[a, b] on every basic cell up to
the float drift of the incremental updates.  A pivot finds the cycle by
climbing from both ends of the entering cell to their common ancestor,
cuts the subtree below the leaving cell, shifts its potentials by the
entering reduced cost, and re-hangs it from the entering cell with the
parent links along the cut path reversed.  Potentials are recomputed from
the tree every 512 pivots and for the final certificate.

Warm starts.  A `WarmStart` holder passed as ``warm`` keeps the optimal
basis (cells and flows) of the last solve made with it.  When the next
problem has the same shape and exactly (``np.array_equal``) the same supply
and demand vectors, that basis is still primal feasible, and the solve
starts from it and only re-prices; otherwise it silently takes the
least-cost start.  Either way the result is certified the same way, and the
holder then keeps the new optimal basis.  A holder is plain state for one
chain of related solves; nothing is cached at module level.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, SolverError

_TOL_RC = 1e-9
_STALL_SWITCH = 200
_REFRESH = 512


class WarmStart:
    """Last optimal basis of a chain of transportation solves (see module doc)."""

    __slots__ = ("supply", "demand", "cells", "flows")

    def __init__(self):
        self.supply = self.demand = self.cells = self.flows = None

    def basis_for(self, supply, demand):
        """Copy of the stored basis if the marginals match exactly, else None.

        ``np.array_equal`` is False for different shapes, so a basis is never
        reused across problem sizes.
        """
        if (self.cells is None or not np.array_equal(self.supply, supply)
                or not np.array_equal(self.demand, demand)):
            return None
        return list(self.cells), list(self.flows)


def _least_cost_start(cost, supply, demand):
    """Deterministic cost-aware initial basis (p + q - 1 cells).

    The classic least-cost method: repeatedly allocate as much as possible to
    the cheapest open cell, closing exactly one row or column per allocation
    (the final allocation closes both).  Yields a spanning-tree basic
    solution, typically far closer to optimal than a northwest-corner start.
    """
    p, q = cost.shape
    s = supply.copy()
    d = demand.copy()
    work = cost.copy()
    open_rows = p
    open_cols = q
    cells = []
    flows = []
    for _ in range(p + q - 1):
        flat = int(np.argmin(work))
        a, b = flat // q, flat % q
        move = min(s[a], d[b])
        cells.append((a, b))
        flows.append(move)
        s[a] -= move
        d[b] -= move
        if open_rows == 1 and open_cols == 1:
            break
        if open_rows == 1:
            close_row = False
        elif open_cols == 1:
            close_row = True
        else:
            close_row = s[a] <= d[b]
        if close_row:
            work[a, :] = np.inf
            open_rows -= 1
        else:
            work[:, b] = np.inf
            open_cols -= 1
    return cells, flows


class _BasisTree:
    """Parent/depth/thread arrays of the basis spanning tree, rooted at node 0."""

    def __init__(self, cells, p, q):
        n = p + q
        adj = [[] for _ in range(n)]
        for k, (a, b) in enumerate(cells):
            adj[a].append((p + b, k))
            adj[p + b].append((a, k))
        self.parent = parent = [-1] * n
        self.pslot = pslot = [-1] * n
        self.depth = depth = [0] * n
        order = []
        seen = [False] * n
        seen[0] = True
        stack = [0]
        while stack:
            u = stack.pop()
            order.append(u)
            for v, k in reversed(adj[u]):
                if not seen[v]:
                    seen[v] = True
                    parent[v], pslot[v], depth[v] = u, k, depth[u] + 1
                    stack.append(v)
        if len(order) != n:
            raise ContractError("transportation basis is not a spanning tree")
        self.thread = thread = [0] * n
        self.rthread = rthread = [0] * n
        for u, v in zip(order, order[1:] + order[:1]):
            thread[u], rthread[v] = v, u

    def potentials(self, cost, p):
        """Node potentials from scratch: alpha on rows, -beta on columns.

        Storing -beta lets one index shift move a whole subtree, with the same
        rounding as the separate updates alpha += delta, beta -= delta.
        """
        pot = np.zeros(len(self.parent))
        parent, thread = self.parent, self.thread
        v = thread[0]
        while v != 0:
            u = parent[v]
            # alpha + beta = cost on basic cells.
            if v < p:
                pot[v] = cost[v, u - p] + pot[u]
            else:
                pot[v] = pot[u] - cost[u, v - p]
            v = thread[v]
        return pot

    def cycle(self, i, j):
        """Climb from i and j to their common ancestor.

        Returns the nodes passed on each side, from i (resp. j) up to but not
        including the ancestor; the tree edge above node x is basis slot
        ``pslot[x]``.
        """
        parent, depth = self.parent, self.depth
        up_i, up_j = [], []
        while depth[i] > depth[j]:
            up_i.append(i)
            i = parent[i]
        while depth[j] > depth[i]:
            up_j.append(j)
            j = parent[j]
        while i != j:
            up_i.append(i)
            i = parent[i]
            up_j.append(j)
            j = parent[j]
        return up_i, up_j

    def subtree(self, v):
        """Nodes of the subtree under v, in preorder."""
        depth, thread = self.depth, self.thread
        dv = depth[v]
        nodes = [v]
        x = thread[v]
        while depth[x] > dv:
            nodes.append(x)
            x = thread[x]
        return nodes

    def rehang(self, sub, stem, u, slot):
        """Move subtree ``sub`` (preorder, rooted at ``stem[-1]``) under u.

        ``stem`` runs from the new subtree root ``stem[0]`` up to the old one;
        the parent links along it are reversed and ``stem[0]`` hangs from u
        through basis slot ``slot``.
        """
        parent, pslot, depth = self.parent, self.pslot, self.depth
        thread, rthread = self.thread, self.rthread
        # The new preorder is a run of pieces of ``sub``: the old subtree of
        # stem[0], then for each higher stem node the parts of its old subtree
        # before and after the nested segment of the stem node below it.
        # Thread links inside a piece stay, and all depths in a piece shift
        # alike, by 2 more per stem step.
        shift = depth[u] + 1 - depth[stem[0]]
        pieces = []
        lo = hi = sub.index(stem[0])
        for s in stem:
            start = sub.index(s, 0, lo + 1)
            end = max(hi, start + 1)
            ds = depth[s]
            while end < len(sub) and depth[sub[end]] > ds:
                end += 1
            pieces += [(start, lo, shift), (hi, end, shift)]
            lo, hi = start, end
            shift += 2
        # Unlink the old segment from the thread.
        before, after = rthread[sub[0]], thread[sub[-1]]
        thread[before], rthread[after] = after, before
        # Reverse the parent links along the stem.
        for t in range(len(stem) - 1, 0, -1):
            child, up = stem[t], stem[t - 1]
            parent[child], pslot[child] = up, pslot[up]
        parent[stem[0]], pslot[stem[0]] = u, slot
        # Link the pieces in order right after u.
        prev, nxt = u, thread[u]
        for a, b, d in pieces:
            if a < b:
                for x in sub[a:b]:
                    depth[x] += d
                thread[prev], rthread[sub[a]] = sub[a], prev
                prev = sub[b - 1]
        thread[prev], rthread[nxt] = nxt, prev


def transport_simplex(cost, supply, demand, max_iter=None, warm=None):
    """Minimum cost of a balanced dense transportation problem.

    Returns ``(value, alpha, beta)`` where the potentials satisfy
    ``alpha[a] + beta[b] <= cost[a, b] + _TOL_RC`` everywhere (dual
    feasibility, i.e. the optimality certificate) and ``alpha[0] = 0``.
    ``warm`` is an optional `WarmStart` holder; it is read before and updated
    after the solve.  Raises `SolverError` when ``max_iter`` pricing rounds do
    not reach optimality.
    """
    cost = np.asarray(cost, dtype=float)
    supply = np.asarray(supply, dtype=float).copy()
    demand = np.asarray(demand, dtype=float).copy()
    p, q = cost.shape
    if supply.shape != (p,) or demand.shape != (q,):
        raise ContractError("supply/demand shapes do not match the cost matrix")
    if supply.min(initial=0.0) < 0 or demand.min(initial=0.0) < 0:
        raise ContractError("supplies and demands must be nonnegative")
    total = supply.sum()
    if abs(total - demand.sum()) > 1e-9 * (1.0 + total):
        raise ContractError("transportation problem must be balanced")

    basis = warm.basis_for(supply, demand) if warm is not None else None
    cells, flows = basis or _least_cost_start(cost, supply, demand)
    if max_iter is None:
        max_iter = 400 * (p + q) + 2000

    tree = _BasisTree(cells, p, q)
    pslot = tree.pslot
    pot = tree.potentials(cost, p)
    reduced = np.empty((p, q))
    reduced_flat = reduced.ravel()
    stall = 0
    for it in range(max_iter):
        if it and it % _REFRESH == 0:
            # Cancel accumulated float drift in the delta-shifted potentials.
            pot = tree.potentials(cost, p)
        np.subtract(cost, pot[:p, None], out=reduced)
        reduced += pot[None, p:]
        if stall >= _STALL_SWITCH:
            # Bland-style: first improving cell in row-major order.
            flat = np.flatnonzero(reduced_flat < -_TOL_RC)
            if flat.size == 0:
                break
            enter_flat = int(flat[0])
        else:
            enter_flat = int(np.argmin(reduced_flat))
            if reduced_flat[enter_flat] >= -_TOL_RC:
                break
        ea, eb = enter_flat // q, enter_flat % q
        rc = float(reduced_flat[enter_flat])

        # The cycle runs from row node ea up to the common ancestor and down
        # to column node p + eb; walking it from ea, even steps are the cells
        # whose flow decreases when the entering cell increases.
        up_row, up_col = tree.cycle(ea, p + eb)
        row_slots = [pslot[x] for x in up_row]
        col_slots = [pslot[x] for x in up_col]
        path = row_slots + col_slots[::-1]
        minus = path[0::2]
        theta = min(flows[k] for k in minus)
        leave = min((k for k in minus if flows[k] <= theta),
                    key=lambda k: cells[k])
        for k, slot in enumerate(path):
            flows[slot] += -theta if k % 2 == 0 else theta

        # Cutting the leaving cell detaches the subtree holding one end of the
        # entering cell.  Rows there shift by +delta and columns by -delta,
        # which keeps their basic equations, with delta fixed by the entering
        # cell's equation.
        if leave in row_slots:
            stem = up_row[:row_slots.index(leave) + 1]
            hang, delta = p + eb, rc
        else:
            stem = up_col[:col_slots.index(leave) + 1]
            hang, delta = ea, -rc
        sub = tree.subtree(stem[-1])
        pot[sub] += delta
        tree.rehang(sub, stem, hang, leave)
        cells[leave] = (ea, eb)
        flows[leave] = theta
        stall = stall + 1 if theta <= _TOL_RC else 0
    else:
        raise SolverError(
            f"transportation simplex exceeded {max_iter} iterations"
        )

    if warm is not None:
        warm.supply, warm.demand = supply, demand
        warm.cells, warm.flows = cells, flows
    # Fresh potentials for the optimality certificate (no accumulated drift).
    pot = tree.potentials(cost, p)
    value = 0.0
    for (a, b), fl in zip(cells, flows):
        value += cost[a, b] * fl
    return float(value), pot[:p], -pot[p:]


def _solve_boundary(sites, signed_mass, caps, warm):
    """``(value, neg, alpha, beta)`` of the audited boundary problem.

    Rows are the positive sites plus the boundary B, columns the negative
    sites plus B; the boundary row and column carry the caps.
    """
    pos = np.flatnonzero(signed_mass > 0)
    neg = np.flatnonzero(signed_mass < 0)
    if pos.size == 0 or neg.size == 0:
        raise ContractError("transportation route needs both mass signs")
    sp = sites[pos]
    sn = sites[neg]
    diff = sp[:, None, :] - sn[None, :, :]
    dmat = np.sqrt(np.sum(diff * diff, axis=-1))
    p, q = pos.size, neg.size

    cost = np.zeros((p + 1, q + 1))
    cost[:p, :q] = dmat
    cost[:p, q] = caps[pos]
    cost[p, :q] = caps[neg]
    supply = np.concatenate([signed_mass[pos], [-signed_mass[neg].sum()]])
    demand = np.concatenate([-signed_mass[neg], [signed_mass[pos].sum()]])

    value, alpha, beta = transport_simplex(cost, supply, demand, warm=warm)
    # Dual feasibility audit: the certificate that `value` is optimal.
    slack = cost - alpha[:, None] - beta[None, :]
    if slack.min() < -1e-7 * (1.0 + float(np.abs(cost).max())):
        raise SolverError("transportation duals failed the optimality audit")
    return value, neg, alpha, beta


def lipschitz_dual_value(sites, signed_mass, caps, warm=None):
    """Optimal F_r value via the boundary transportation problem.

    ``signed_mass`` must contain both signs (one-signed instances have a
    closed form and never reach this routine).  ``warm`` is passed on to
    `transport_simplex`.  Raises `SolverError` if the duals fail the
    optimality audit.
    """
    return _solve_boundary(sites, signed_mass, caps, warm)[0]


def lipschitz_potential(sites, signed_mass, caps):
    """Optimal F_r value and a maximizing site potential, from the duals.

    The c-transform ``f(x) = min(cap(x), min_b g_b + |x - y_b|)`` of the
    negative-site duals ``g_b = -(beta[b] + alpha[B])`` is 1-Lipschitz, has
    ``|f| <= cap`` (cell (B, b) gives ``g_b >= -cap_b``), ``f <= g_b`` on
    negative sites and ``f >= alpha[a] + beta[B]`` on positive ones (cells
    (a, b), (a, B), (B, B)), so ``sum(mass * f)`` reaches the dual optimum.
    Returns the transport value, bit-identical to `lipschitz_dual_value`,
    and f at every site.  Raises `SolverError` if the duals fail the
    optimality audit.
    """
    value, neg, alpha, beta = _solve_boundary(sites, signed_mass, caps, None)
    g = -(beta[:-1] + alpha[-1])
    diff = sites[:, None, :] - sites[neg][None, :, :]
    reach = g[None, :] + np.sqrt(np.sum(diff * diff, axis=-1))
    return value, np.minimum(caps, reach.min(axis=1))
