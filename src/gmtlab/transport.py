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

Pricing.  A full pass computes every reduced cost cost[a, b] - alpha[a] -
beta[b] and enters the most negative cell (Dantzig's rule), the first one in
row-major order on ties.  Matrices of at least 64 * 64 cells also price from
a candidate list (Ahuja, Magnanti & Orlin 1993, ch. 11): after a
nondegenerate pivot whose cell came from a full pass, the 64 most negative
cells of that pass (ties at the cut in row-major order) become candidates,
and the following rounds price only them, with the current potentials and
the full pass's float expression, entering the most negative.  A full pass
runs on the first round, after every degenerate pivot, after the periodic
refresh, once no candidate is below -_TOL_RC, and throughout Bland's mode.
Only a full pass that finds no improving cell ends a solve, so the
optimality certificate is unchanged.  Smaller matrices use the full pass
alone: there it is cheaper than keeping the list.

Basis tree.  Row a is node a and column b is node p + b.  The p + q - 1
basic cells live in numbered slots (``cells[k]``, ``flows[k]``); the tree
hangs from node 0 and is stored as arrays over nodes: ``parent``, the slot
of the edge to the parent (``pslot``), ``depth``, and ``children``, each
node's child list.  Invariants after every pivot: every node but the root
appears once in its parent's child list; ``depth[v] = depth[parent[v]] +
1``; ``cells[pslot[v]]`` joins v and ``parent[v]``; the potentials satisfy
alpha[a] + beta[b] = cost[a, b] on every basic cell up to the float drift of
the incremental updates.  A pivot finds the cycle by climbing from both ends
of the entering cell to their common ancestor, cuts the subtree below the
leaving cell, re-hangs it from the entering cell with the parent links along
the cut path reversed, and walks it once, breadth first, to recompute its
depths and shift its potentials by the entering reduced cost.  Potentials
are recomputed from the tree every 512 pivots and for the final certificate:
the basic cells' costs are gathered with one fancy index, and a breadth-first
walk sets pot[v] = cost + pot[parent] on rows and pot[parent] - cost on
columns over Python floats, the same float operations as indexing cell by
cell.  Each pot[v] reads only its parent's, so any parent-first order gives
the same bits.  The objective sums cost * flow over the same gathered costs,
in slot order.

Set-up.  Every argument must be finite (else `ContractError`, naming it).
The boundary cost matrix is filled in place one coordinate at a time
(`_distances`), with no (p, q, n) difference array.

Warm starts.  A `WarmStart` holder passed as ``warm`` keeps the optimal
basis (cells, flows and tree links) of every solve made with it, each under
the holder's ``key`` at the time, a point the caller sets before each solve
(`gmtlab.cones.d_cone_flat` uses the frame parameters).  A basis whose
problem had exactly the same supply and demand vectors is still primal
feasible for the next problem.  `WarmStart.basis_for` is the one lookup: it
returns a copy of the matching ``(cells, flows, tree)`` whose key is nearest
to the current key in the max-norm, the most recent on ties, and the solve
starts from it and only re-prices; if none matches it silently takes the
least-cost start.  The holder keeps a tree's parent, slot and depth arrays,
which rebuilding it from the cells would give too, and rebuilds the child
lists from ``parent`` when it hands a basis out; only the order within a
child list can differ, no pivot choice reads it, so every bit is the same.
Either way the result is certified the same way, and the holder then adds
the new optimal basis.  A failed solve adds nothing.  A holder is plain
state for one chain of related solves; nothing is cached at module level.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, SolverError

_TOL_RC = 1e-9
_STALL_SWITCH = 200
_REFRESH = 512
# Candidate-list pricing: matrices of at least _PARTIAL_CELLS cells keep the
# _CANDIDATES most negative cells of a full pass (see module doc).
_CANDIDATES = 64
_PARTIAL_CELLS = 64 * _CANDIDATES


class WarmStart:
    """Optimal bases of a chain of transportation solves (see module doc).

    ``key`` is set by the caller before each solve and is stored with the
    basis that solve ends at; it says which stored basis is the nearest.
    Keys are points of one length per holder.  Left at ``()``, every key
    ties, so the most recent matching basis wins.
    """

    __slots__ = ("key", "_bases")

    def __init__(self):
        self.key = ()
        # (supply bytes, demand bytes) -> (keys, [(cells, flows, links), ...])
        # where links = (parent, pslot, depth) of the basis tree.
        self._bases = {}

    def basis_for(self, supply, demand):
        """Copy of the nearest stored ``(cells, flows, tree)`` with exactly
        these marginals.

        Among the bases whose supply and demand have the same bits as the
        given ones (so a basis is never reused across problem sizes), the
        one whose key is nearest to ``key`` in the max-norm wins, ties going
        to the most recent; None if none match.
        """
        group = self._bases.get((supply.tobytes(), demand.tobytes()))
        if group is None:
            return None
        keys, bases = group
        gap = np.max(np.abs(np.array(keys) - self.key), axis=-1, initial=0.0)
        # The last of the nearest: ties go to the most recent.
        cells, flows, links = bases[gap.size - 1 - int(gap[::-1].argmin())]
        return list(cells), list(flows), _BasisTree(*map(list, links))

    def keep(self, supply, demand, cells, flows, tree):
        """Store an optimal basis and its tree links under the current key."""
        keys, bases = self._bases.setdefault(
            (supply.tobytes(), demand.tobytes()), ([], []))
        keys.append(np.array(self.key, dtype=float))
        bases.append((list(cells), list(flows),
                      (tree.parent, tree.pslot, tree.depth)))


def _least_cost_start(cost, supply, demand):
    """Deterministic cost-aware initial basis (p + q - 1 cells).

    The classic least-cost method: repeatedly allocate as much as possible to
    the cheapest open cell, closing exactly one row or column per allocation
    (the final allocation closes both).  Yields a spanning-tree basic
    solution, typically far closer to optimal than a northwest-corner start.
    """
    p, q = cost.shape
    s = supply.tolist()
    d = demand.tolist()
    work = cost.copy()
    open_rows = p
    open_cols = q
    cells = []
    flows = []
    for _ in range(p + q - 1):
        flat = int(work.argmin())
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


def _candidates(reduced_flat):
    """Flat indices, row-major, of the _CANDIDATES most negative entries.

    Only entries below -_TOL_RC qualify, and only they are partitioned; ties
    at the cut go to the earliest cells in row-major order, so the list is
    deterministic.
    """
    improving = np.flatnonzero(reduced_flat < -_TOL_RC)
    if improving.size <= _CANDIDATES:
        return improving
    rc = reduced_flat[improving]
    cut = np.partition(rc, _CANDIDATES - 1)[_CANDIDATES - 1]
    chosen = rc < cut
    ties = np.flatnonzero(rc == cut)[:_CANDIDATES - np.count_nonzero(chosen)]
    chosen[ties] = True
    return improving[chosen]


class _BasisTree:
    """Basis spanning tree rooted at node 0: parent links and child lists."""

    def __init__(self, parent, pslot, depth):
        """A tree that owns these arrays; the child lists follow from
        ``parent``."""
        self.parent, self.pslot, self.depth = parent, pslot, depth
        self.children = children = [[] for _ in parent]
        for v in range(1, len(parent)):
            children[parent[v]].append(v)

    @classmethod
    def of_cells(cls, cells, p, q):
        """The tree of p + q - 1 basic cells; `ContractError` unless they
        span all p + q nodes."""
        n = p + q
        adj = [[] for _ in range(n)]
        for k, (a, b) in enumerate(cells):
            adj[a].append((p + b, k))
            adj[p + b].append((a, k))
        parent = [-1] * n
        pslot = [-1] * n
        depth = [0] * n
        seen = [False] * n
        seen[0] = True
        order = [0]
        for u in order:
            for v, k in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v], pslot[v], depth[v] = u, k, depth[u] + 1
                    order.append(v)
        if len(order) != n:
            raise ContractError("transportation basis is not a spanning tree")
        return cls(parent, pslot, depth)

    def potentials(self, cell_cost, p):
        """Node potentials from scratch: alpha on rows, -beta on columns.

        ``cell_cost[k]`` is the cost of basis slot k, as a Python float.
        Storing -beta lets one index shift move a whole subtree, with the same
        rounding as the separate updates alpha += delta, beta -= delta.
        """
        parent, pslot = self.parent, self.pslot
        pot = [0.0] * len(parent)
        for v in self.subtree(0)[1:]:
            u = parent[v]
            # alpha + beta = cost on basic cells.
            c = cell_cost[pslot[v]]
            pot[v] = c + pot[u] if v < p else pot[u] - c
        return np.array(pot)

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
        """Nodes of the subtree under v, breadth first: parents first."""
        children = self.children
        nodes = [v]
        for x in nodes:  # the walk reaches the children it appends
            nodes += children[x]
        return nodes

    def rehang(self, stem, u, slot):
        """Move the subtree of ``stem[-1]`` under u and return its nodes.

        ``stem`` runs from the new subtree root ``stem[0]`` up to the old
        one; the parent links along it are reversed and ``stem[0]`` hangs
        from u through basis slot ``slot``.  One walk lists the moved
        nodes, parents first, and their depths are recomputed in that order.
        """
        parent, pslot, depth = self.parent, self.pslot, self.depth
        children = self.children
        children[parent[stem[-1]]].remove(stem[-1])
        for t in range(len(stem) - 1, 0, -1):
            child, up = stem[t], stem[t - 1]
            children[child].remove(up)
            children[up].append(child)
            parent[child], pslot[child] = up, pslot[up]
        parent[stem[0]], pslot[stem[0]] = u, slot
        children[u].append(stem[0])
        nodes = self.subtree(stem[0])
        for x in nodes:
            depth[x] = depth[parent[x]] + 1
        return nodes


def _require_finite(**arrays):
    """Raise `ContractError` naming the first argument that is not finite."""
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise ContractError(f"{name} must be finite")


def _cell_costs(cost_flat, cells, q):
    """Costs of the basis cells, slot by slot, as Python floats."""
    return cost_flat[[a * q + b for a, b in cells]].tolist()


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
    _require_finite(cost=cost, supply=supply, demand=demand)
    p, q = cost.shape
    if supply.shape != (p,) or demand.shape != (q,):
        raise ContractError("supply/demand shapes do not match the cost matrix")
    if supply.min(initial=0.0) < 0 or demand.min(initial=0.0) < 0:
        raise ContractError("supplies and demands must be nonnegative")
    total = supply.sum()
    if abs(total - demand.sum()) > 1e-9 * (1.0 + total):
        raise ContractError("transportation problem must be balanced")

    basis = warm.basis_for(supply, demand) if warm is not None else None
    if basis is None:
        cells, flows = _least_cost_start(cost, supply, demand)
        tree = _BasisTree.of_cells(cells, p, q)
    else:
        cells, flows, tree = basis
    if max_iter is None:
        max_iter = 400 * (p + q) + 2000

    pslot = tree.pslot
    cost_flat = cost.ravel()
    pot = tree.potentials(_cell_costs(cost_flat, cells, q), p)
    reduced = np.empty((p, q))
    reduced_flat = reduced.ravel()
    partial = p * q >= _PARTIAL_CELLS
    cand = None
    stall = 0
    for it in range(max_iter):
        if it and it % _REFRESH == 0:
            # Cancel accumulated float drift in the delta-shifted potentials.
            pot = tree.potentials(_cell_costs(cost_flat, cells, q), p)
            cand = None
        if cand is not None:
            # Price the candidates alone, with the full pass's expression.
            cand_rc = cost_flat[cand] - pot[cand_rows]
            cand_rc += pot[cand_cols]
            k = int(cand_rc.argmin())
            rc = float(cand_rc[k])
            if rc < -_TOL_RC:
                enter_flat = int(cand[k])
            else:
                cand = None
        full = cand is None
        if full:
            np.subtract(cost, pot[:p, None], out=reduced)
            reduced += pot[None, p:]
            if stall >= _STALL_SWITCH:
                # Bland-style: first improving cell in row-major order.
                flat = np.flatnonzero(reduced_flat < -_TOL_RC)
                if flat.size == 0:
                    break
                enter_flat = int(flat[0])
            else:
                enter_flat = int(reduced_flat.argmin())
                if reduced_flat[enter_flat] >= -_TOL_RC:
                    break
            rc = float(reduced_flat[enter_flat])
        ea, eb = enter_flat // q, enter_flat % q

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
        pot[tree.rehang(stem, hang, leave)] += delta
        cells[leave] = (ea, eb)
        flows[leave] = theta
        if theta <= _TOL_RC:
            stall += 1
            cand = None
        else:
            stall = 0
            if full and partial:
                cand = _candidates(reduced_flat)
                cand_rows, cand_cols = cand // q, p + cand % q
    else:
        raise SolverError(
            f"transportation simplex exceeded {max_iter} iterations"
        )

    if warm is not None:
        warm.keep(supply, demand, cells, flows, tree)
    # Fresh potentials for the optimality certificate (no accumulated drift).
    cell_cost = _cell_costs(cost_flat, cells, q)
    pot = tree.potentials(cell_cost, p)
    value = 0.0
    for c, fl in zip(cell_cost, flows):
        value += c * fl
    return value, pot[:p], -pot[p:]


def _distances(x, y, out=None):
    """Euclidean distances |x_i - y_j| between the rows of x and of y.

    Filled into ``out`` (a new (p, q) array if None) one coordinate at a
    time, squares added in coordinate order, with no (p, q, n) temporary.
    For n <= 7 the bits equal ``np.sqrt(np.sum(diff * diff, axis=-1))``
    with ``diff = x[:, None] - y[None]``, since numpy adds fewer than 8
    terms in sequence; for n >= 8 numpy sums pairwise and the last bit may
    differ.
    """
    if out is None:
        out = np.empty((x.shape[0], y.shape[0]))
    np.subtract.outer(x[:, 0], y[:, 0], out=out)
    np.square(out, out=out)
    if x.shape[1] > 1:
        term = np.empty_like(out)
        for k in range(1, x.shape[1]):
            np.subtract.outer(x[:, k], y[:, k], out=term)
            np.square(term, out=term)
            out += term
    return np.sqrt(out, out=out)


def _solve_boundary(sites, signed_mass, caps, warm):
    """``(value, neg, alpha, beta)`` of the audited boundary problem.

    Rows are the positive sites plus the boundary B, columns the negative
    sites plus B; the boundary row and column carry the caps.
    """
    _require_finite(sites=sites, signed_mass=signed_mass, caps=caps)
    pos = np.flatnonzero(signed_mass > 0)
    neg = np.flatnonzero(signed_mass < 0)
    if pos.size == 0 or neg.size == 0:
        raise ContractError("transportation route needs both mass signs")
    p, q = pos.size, neg.size
    cost = np.empty((p + 1, q + 1))
    _distances(sites[pos], sites[neg], out=cost[:p, :q])
    cost[:p, q] = caps[pos]
    cost[p, :q] = caps[neg]
    cost[p, q] = 0.0
    supply = np.concatenate([signed_mass[pos], [-signed_mass[neg].sum()]])
    demand = np.concatenate([-signed_mass[neg], [signed_mass[pos].sum()]])

    value, alpha, beta = transport_simplex(cost, supply, demand, warm=warm)
    # Dual feasibility audit: the certificate that `value` is optimal.
    slack = np.subtract(cost, alpha[:, None])
    slack -= beta
    if slack.min() < -1e-7 * (1.0 + float(np.abs(cost).max())):
        raise SolverError("transportation duals failed the optimality audit")
    return value, neg, alpha, beta


def lipschitz_dual_value(sites, signed_mass, caps, warm=None):
    """Optimal F_r value via the boundary transportation problem.

    ``signed_mass`` must contain both signs (one-signed instances have a
    closed form and never reach this routine), and every input must be
    finite (else `ContractError`).  ``warm`` is passed on to
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
    reach = _distances(sites, sites[neg])
    reach += g[None, :]
    return value, np.minimum(caps, reach.min(axis=1))
