"""HiGHS patrol plans cross-checked against an independent exact oracle.

``PatrolMILP`` (lambda weights + SOS2 binaries, solved with HiGHS) is
compared with :func:`tests.oracles.milp_oracle.oracle_optimum` (incremental
delta encoding, built straight from the graph) on seeded non-concave
instances, and every returned plan goes through the primal checker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo import Grid
from repro.planning import PatrolMILP, PiecewiseLinear, TimeUnrolledGraph
from tests.oracles.milp_oracle import check_solution, oracle_optimum


def sigmoid_instance(seed, height=4, width=4, horizon=4, n_breakpoints=4,
                     n_patrols=2, source=0):
    """Sigmoid detection curves anchored at zero: non-concave utilities,
    so the SOS2 segment binaries genuinely bind."""
    rng = np.random.default_rng(seed)
    grid = Grid.rectangular(height, width)
    graph = TimeUnrolledGraph(grid, source_cell=source, horizon=horizon)
    milp = PatrolMILP(graph, n_patrols=n_patrols)
    xs = np.linspace(0.0, milp.max_coverage, n_breakpoints)
    utilities = {}
    for v in graph.reachable_cells:
        scale = rng.random()
        mid = xs[-1] * (0.3 + 0.4 * rng.random())
        raw = 1.0 / (1.0 + np.exp(-1.5 * (xs - mid)))
        utilities[int(v)] = PiecewiseLinear(xs, scale * (raw - raw[0]))
    return graph, milp, utilities


#: (seed, shape kwargs). Seeds 7 and 23 on the 4x4/h4 shape are the two
#: patrol instances the repo has always cross-checked; the rest vary the
#: park shape, horizon, breakpoint count, patrol count and post.
CASES = [(7, {}), (23, {})] + [
    (seed, shape)
    for shape in (
        {},
        dict(height=4, width=5, horizon=5, n_breakpoints=5),
        dict(height=3, width=3, horizon=6),
        dict(height=3, width=4, horizon=5, n_patrols=3, source=5),
        dict(height=5, width=5, horizon=4, n_breakpoints=5, source=12),
    )
    for seed in range(5)
]


@pytest.mark.parametrize(
    "seed,shape", CASES,
    ids=[f"seed{s}-" + "-".join(f"{k}{v}" for k, v in sh.items())
         for s, sh in CASES],
)
def test_highs_matches_oracle(seed, shape):
    graph, milp, utilities = sigmoid_instance(seed, **shape)
    optimum = oracle_optimum(graph, milp.n_patrols, utilities)
    scale = max(1.0, abs(optimum))

    exact = milp.solve(utilities, mode="milp")
    check_solution(graph, milp.n_patrols, utilities, exact)
    assert abs(exact.objective_value - optimum) <= 1e-6 * scale

    auto = milp.solve(utilities, mode="auto")
    check_solution(graph, milp.n_patrols, utilities, auto)
    tol = max(milp.mip_gap, milp.envelope_gap)
    assert auto.objective_value <= optimum + 1e-9 * scale
    assert optimum - auto.objective_value <= tol * scale + 1e-9


def test_oracle_instances_are_nonconcave():
    """The cross-check is only meaningful where the SOS2 binaries bind."""
    for seed, shape in CASES:
        __, __m, utilities = sigmoid_instance(seed, **shape)
        assert not all(u.is_concave() for u in utilities.values())


def test_check_solution_rejects_a_dishonest_objective():
    graph, milp, utilities = sigmoid_instance(7)
    solution = milp.solve(utilities, mode="milp")
    solution.objective_value += 1e-3
    with pytest.raises(AssertionError):
        check_solution(graph, milp.n_patrols, utilities, solution)
