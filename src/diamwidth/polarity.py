"""Polarity graph of the projective plane PG(2,q) over a prime field.

Vertices are the q^2+q+1 projective points (homogeneous triples, first
nonzero coordinate normalized to 1); u ~ v iff u.v = 0 (mod q) and u != v.
The result has (1/2)q(q+1)^2 edges, exactly q+1 absolute points of degree
q (the rest have degree q+1), contains no 4-cycle subgraph, and has
diameter 2 -- the classical dense C4-free diameter-2 family.

Prime q only; the deeper generalized-quadrangle construction is not built
here, but ``verify_polarity_claims`` checks the defining properties of any
supplied polarity graph (plane or quadrangle case).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cycles import find_cycle_subgraph
from .graphs import ABSENT, BUDGET, Graph, diameter, graph_from_edges


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def projective_points(q: int) -> list[tuple[int, int, int]]:
    """Normalized points of PG(2,q), q prime, in lexicographic order."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    pts = [(0, 0, 1)]
    pts += [(0, 1, z) for z in range(q)]
    pts += [(1, y, z) for y in range(q) for z in range(q)]
    return pts


def er_polarity_graph(q: int) -> Graph:
    pts = projective_points(q)
    n = len(pts)
    edges = []
    for i in range(n):
        a = pts[i]
        for j in range(i + 1, n):
            b = pts[j]
            if (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) % q == 0:
                edges.append((i, j))
    labels = {i: f"pt:{p[0]},{p[1]},{p[2]}" for i, p in enumerate(pts)}
    return graph_from_edges(n, edges, labels)


def absolute_points(q: int) -> list[int]:
    """Indices of the self-conjugate points (u.u = 0); exactly q+1 of them."""
    pts = projective_points(q)
    return [
        i for i, p in enumerate(pts) if (p[0] ** 2 + p[1] ** 2 + p[2] ** 2) % q == 0
    ]


def max_common_neighbors(g: Graph) -> int:
    """Max number of common neighbours over all vertex pairs."""
    best = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            c = (g.adj[u] & g.adj[v]).bit_count()
            if c > best:
                best = c
    return best


@dataclass(frozen=True)
class PolarityReport:
    passed: bool
    forbidden_cycle: int
    diameter_bound: int
    diameter_actual: int | float
    cycle_witness: object  # the cycle found, ABSENT, or BUDGET

    def reason(self) -> str:
        if self.passed:
            return "ok"
        if self.cycle_witness is BUDGET:
            return f"C_{self.forbidden_cycle} search ran out of budget"
        if self.cycle_witness is not ABSENT:
            return f"contains C_{self.forbidden_cycle}: {self.cycle_witness}"
        return f"diameter {self.diameter_actual} exceeds {self.diameter_bound}"


def verify_polarity_claims(g: Graph, incidence_girth: int) -> PolarityReport:
    """Check the polarity-graph properties implied by a generalized polygon.

    A polarity graph of a generalized m-gon (incidence girth 2m) must avoid
    C_{2(m-1)} as a subgraph and have diameter at most m-1.  Accepted
    incidence girths: 6 (projective plane: C4-free, diameter 2) and 8
    (generalized quadrangle: C6-free, diameter 3).
    """
    if incidence_girth not in (6, 8):
        raise ValueError("incidence girth must be 6 (plane) or 8 (quadrangle)")
    m = incidence_girth // 2
    forbidden = 2 * (m - 1)
    dbound = m - 1
    witness = find_cycle_subgraph(g, forbidden)
    diam = diameter(g)
    return PolarityReport(witness is ABSENT and diam <= dbound, forbidden, dbound, diam, witness)
