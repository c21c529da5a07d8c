"""An independent exact oracle for the patrol-planning problem (P).

:class:`repro.planning.milp.PatrolMILP` encodes each cell's PWL utility
with convex-combination weights ``lambda`` plus SOS2 segment binaries.
This oracle solves the same problem through an unrelated encoding, the
*incremental* ("delta") model: cell ``v`` fills its segments in order,

    c_v = x_0 + sum_s delta_s,    U_v = y_0 + sum_s slope_s * delta_s,
    0 <= delta_s <= L_s,          delta_s >= L_s * y_s,
    delta_{s+1} <= L_{s+1} * y_s, y_s binary,

so segment ``s + 1`` may only start once segment ``s`` is full. The flow
polytope is rebuilt directly from ``graph.incidence_lists()`` and
``graph.cell_visit_edges()`` with coverage ``c_v = K * (inflow(v) +
[v = source])``. A bug in the lambda/SOS2 formulation would have to be
reproduced in this encoding to go unnoticed.

:func:`check_solution` is the matching primal checker: it verifies that a
returned :class:`~repro.planning.milp.MILPSolution` is a unit flow, that
its coverage follows from that flow, and that its objective is the true
utility of that coverage.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp


def oracle_optimum(graph, n_patrols, utilities) -> float:
    """Optimal total utility of problem (P), via the delta encoding."""
    K = float(n_patrols)
    n_edges = graph.n_edges
    cells = sorted(utilities)
    # Variable layout: [f (n_edges) | per cell: delta (m) then y (m - 1)].
    offsets, cursor = {}, n_edges
    for v in cells:
        offsets[v] = cursor
        cursor += 2 * utilities[v].n_segments - 1
    n_vars = cursor

    rows, lo, hi = [], [], []

    def add_row(coeffs: dict[int, float], lower: float, upper: float) -> None:
        rows.append(coeffs)
        lo.append(lower)
        hi.append(upper)

    out_edges, in_edges = graph.incidence_lists()
    src, snk = graph.source_node, graph.sink_node
    add_row({e: 1.0 for e in out_edges[src]}, 1.0, 1.0)
    add_row({e: 1.0 for e in in_edges[snk]}, 1.0, 1.0)
    for node in range(graph.n_nodes):
        if node not in (src, snk) and (in_edges[node] or out_edges[node]):
            row = {e: 1.0 for e in in_edges[node]}
            row.update({e: -1.0 for e in out_edges[node]})
            add_row(row, 0.0, 0.0)

    c = np.zeros(n_vars)
    var_ub = np.ones(n_vars)
    integrality = np.zeros(n_vars)
    constant = 0.0
    visit_edges = graph.cell_visit_edges()
    for v in cells:
        xs, ys = utilities[v].xs, utilities[v].ys
        lengths = np.diff(xs)
        m = lengths.size
        delta = offsets[v] + np.arange(m)
        ys_bin = offsets[v] + m + np.arange(m - 1)
        var_ub[delta] = lengths
        integrality[ys_bin] = 1
        c[delta] = -np.diff(ys) / lengths
        constant += ys[0]
        # sum_s delta_s - K * inflow(v) = K * [v = source] - x_0
        row = {int(d): 1.0 for d in delta}
        row.update({e: -K for e in visit_edges.get(v, [])})
        rhs = (K if v == graph.source_cell else 0.0) - xs[0]
        add_row(row, rhs, rhs)
        for s in range(m - 1):
            add_row({int(delta[s]): 1.0, int(ys_bin[s]): -lengths[s]}, 0.0, np.inf)
            add_row(
                {int(delta[s + 1]): 1.0, int(ys_bin[s]): -lengths[s + 1]},
                -np.inf, 0.0,
            )

    data = [
        (r, col, val) for r, row in enumerate(rows) for col, val in row.items()
    ]
    r_idx, c_idx, vals = zip(*data)
    matrix = sparse.csr_matrix((vals, (r_idx, c_idx)), shape=(len(rows), n_vars))
    result = milp(
        c=c,
        constraints=LinearConstraint(matrix, lo, hi),
        bounds=Bounds(np.zeros(n_vars), var_ub),
        integrality=integrality,
        options={"mip_rel_gap": 0.0},
    )
    assert result.success, result.message
    return constant - float(result.fun)


def check_solution(graph, n_patrols, utilities, solution, tol=1e-7) -> None:
    """Assert ``solution`` is a feasible plan whose objective is honest."""
    flows = np.asarray(solution.edge_flows, dtype=float)
    assert flows.shape == (graph.n_edges,)
    assert flows.min() >= -tol and flows.max() <= 1.0 + tol
    out_edges, in_edges = graph.incidence_lists()
    for node in range(graph.n_nodes):
        net = flows[out_edges[node]].sum() - flows[in_edges[node]].sum()
        expected = (node == graph.source_node) - (node == graph.sink_node)
        assert abs(net - expected) <= tol, f"node {node} breaks conservation"

    K = float(n_patrols)
    for v, edges in graph.cell_visit_edges().items():
        inflow = flows[edges].sum() + (v == graph.source_cell)
        assert abs(solution.coverage[v] - K * inflow) <= tol * K
    true_value = sum(float(utilities[v](solution.coverage[v])) for v in utilities)
    assert abs(solution.objective_value - true_value) <= tol * max(
        1.0, abs(true_value)
    )
