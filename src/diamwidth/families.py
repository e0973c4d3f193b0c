"""Parameterized generators for named graph families and gadgets.

Every generator emits a labelled Graph with a documented id layout so tests
and verifiers can address gadget roles without guessing:

* paths/cycles/cliques: ids in the obvious order, no labels.
* ``spider``: id 0 is the centre ("center"), leg j's vertices are
  consecutive, labelled "leg:j:t".
* ``h_graph(i, l)``: spine ids 0..i ("spine:t"), then the four pendant
  paths ("arm:a:t", a in 0..3; arms 0,1 hang off spine vertex 0, arms 2,3
  off spine vertex i).
* ``cycle_bouquet``: vertex-shared mode has the hub at id 0 ("hub");
  edge-shared mode has the shared edge at ids 0,1 ("hub", "hub2").
* ``wall(h, k)``: the brick wall of height h; vertex (row r, column c) is
  labelled "w:r:c".  Row 0 spans columns 1..2h+1; rows 1..h-1 span
  0..2h+1; row h spans 1..2h+1 for odd h and 0..2h for even h.  Rows are
  horizontal paths; a rung joins (r,c)-(r+1,c) when c is odd for even r
  and even for odd r.  This reproduces the reference drawings exactly
  (16, 30, 48 vertices for h = 2, 3, 4).
* ``patterned_apex_path(n, b)``: path ids 0..n-1 ("p:i"), apex id n
  ("apex"), apex ~ p_i iff bit (i mod |b|) of b is '1'.
* ``gadget_triangle_free_cw(h)``: wall ids 0..w-1 as in ``wall``, copy
  x_i = w + i ("x:r:c"), then r = 2w ("r") and b = 2w+1 ("b").
* ``gadget_cv_unbounded(n)``: path ids 0..n ("p:k"), then the 12-clique
  Z in the fixed order x(0,1), x(1,2), x(2,3), x(3,0), y(0,2), y(1,3),
  y(2,4), y(3,5), y(4,6), y(5,7), y(6,0), y(7,1), labelled "Z:x:i,j" /
  "Z:y:i,j".  Edge p_k ~ x(i,j) iff k = i or j (mod 4); p_k ~ y(i,j) iff
  k = i or j (mod 8).
* ``gadget_ce_unbounded(n, l)``: path ids 0..n ("p:k"), apexes x_0..x_{2l-4}
  ("x:j"), p_i ~ x_j iff bit ((i - j) mod (2l-3)) of 1(10)^{l-2} is '1'.
* ``gadget_samecyc(n, variant, l)``: path ids 0..n ("p:k"), x = n+1, y = n+2.
  Variant "A": x over residues {0,1} mod 4 (pattern 1100), y the rest.
  Variant "B": pattern 11(01)^{l-2}00(10)^{l-2} of length 4l-4; x on the
  1-bits, y on the 0-bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from inspect import signature
from itertools import combinations
from typing import Callable

from .graphs import Graph, bipartition, bit_indices, disjoint_union, graph_from_edges, subdivide
from .polarity import er_polarity_graph


# -- standard families -----------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("clique needs n >= 1")
    return graph_from_edges(n, list(combinations(range(n), 2)))


def complete_bipartite(r: int, s: int) -> Graph:
    if r < 1 or s < 1:
        raise ValueError("biclique needs r, s >= 1")
    return graph_from_edges(r + s, [(i, r + j) for i in range(r) for j in range(s)])


def spider(lengths: list[int]) -> Graph:
    """Subdivided star: centre plus one leg of l_j edges per entry."""
    if not lengths or any(l < 1 for l in lengths):
        raise ValueError("spider needs k >= 1 legs of length >= 1")
    edges = []
    labels = {0: "center"}
    nxt = 1
    for j, l in enumerate(lengths):
        prev = 0
        for t in range(l):
            labels[nxt] = f"leg:{j}:{t}"
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return graph_from_edges(nxt, edges, labels)


def h_graph(i: int, l: int = 1) -> Graph:
    """Two degree-3 vertices joined by an i-edge spine, each carrying two
    pendant paths of l edges."""
    if i < 1 or l < 1:
        raise ValueError("h_graph needs i >= 1 and l >= 1")
    edges = [(t, t + 1) for t in range(i)]
    labels = {t: f"spine:{t}" for t in range(i + 1)}
    nxt = i + 1
    for a, anchor in enumerate([0, 0, i, i]):
        prev = anchor
        for t in range(l):
            labels[nxt] = f"arm:{a}:{t}"
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return graph_from_edges(nxt, edges, labels)


def cycle_bouquet(lengths: list[int], mode: str) -> Graph:
    """Cycles C_{l_1},...,C_{l_k} sharing one vertex ("vertex") or one
    edge ("edge")."""
    if not lengths or any(l < 3 for l in lengths):
        raise ValueError("bouquet needs cycle lengths >= 3")
    edges = []
    labels: dict[int, str] = {}
    if mode == "vertex":
        labels[0] = "hub"
        nxt = 1
        for j, l in enumerate(lengths):
            chain = list(range(nxt, nxt + l - 1))
            for t, w in enumerate(chain):
                labels[w] = f"petal:{j}:{t}"
            edges.append((0, chain[0]))
            edges += list(zip(chain, chain[1:]))
            edges.append((chain[-1], 0))
            nxt += l - 1
    elif mode == "edge":
        labels[0] = "hub"
        labels[1] = "hub2"
        edges.append((0, 1))
        nxt = 2
        for j, l in enumerate(lengths):
            chain = list(range(nxt, nxt + l - 2))
            for t, w in enumerate(chain):
                labels[w] = f"petal:{j}:{t}"
            edges.append((0, chain[0]))
            edges += list(zip(chain, chain[1:]))
            edges.append((chain[-1], 1))
            nxt += l - 2
    else:
        raise ValueError("mode must be 'vertex' or 'edge'")
    return graph_from_edges(nxt, edges, labels)


# -- walls ------------------------------------------------------------------


def _wall_columns(h: int, r: int) -> range:
    if r == 0:
        return range(1, 2 * h + 2)
    if r == h:
        return range(1, 2 * h + 2) if h % 2 else range(0, 2 * h + 1)
    return range(0, 2 * h + 2)


def wall(h: int, k: int = 0) -> Graph:
    """Brick wall of height h, optionally with every edge subdivided k times."""
    if h < 2:
        raise ValueError("wall needs height >= 2")
    if k < 0:
        raise ValueError("subdivision count must be >= 0")
    ids: dict[tuple[int, int], int] = {}
    labels = {}
    for r in range(h + 1):
        for c in _wall_columns(h, r):
            ids[(r, c)] = len(ids)
            labels[ids[(r, c)]] = f"w:{r}:{c}"
    edges = []
    for (r, c), v in ids.items():
        if (r, c + 1) in ids:
            edges.append((v, ids[(r, c + 1)]))
        if (r + 1, c) in ids and c % 2 != r % 2:
            edges.append((v, ids[(r + 1, c)]))
    base = graph_from_edges(len(ids), edges, labels)
    return subdivide(base, k) if k else base


# -- apex-path patterns ------------------------------------------------------


def _apexed_path(
    n: int, apexes: list[tuple[str, Callable[[int], bool]]], clique: bool
) -> Graph:
    """Path ids 0..n-1 ("p:i"), then one id per (label, test) apex in
    order, adjacent to p_i iff test(i); the apexes form a clique if asked."""
    edges = [(i, i + 1) for i in range(n - 1)]
    labels = {i: f"p:{i}" for i in range(n)}
    for a, (label, test) in enumerate(apexes):
        labels[n + a] = label
        edges += [(n + a, i) for i in range(n) if test(i)]
    if clique:
        edges += list(combinations(range(n, n + len(apexes)), 2))
    return graph_from_edges(n + len(apexes), edges, labels)


def patterned_apex_path(n: int, b: str) -> Graph:
    if n < 1:
        raise ValueError("patterned path needs n >= 1")
    if not b or set(b) - {"0", "1"}:
        raise ValueError("pattern must be a nonempty bit string")
    return _apexed_path(n, [("apex", lambda i: b[i % len(b)] == "1")], False)


def apex_path(n: int) -> Graph:
    """P_n joined to a single dominating vertex (id n)."""
    return patterned_apex_path(n, "1")


# -- unboundedness gadgets ---------------------------------------------------


def gadget_triangle_free_cw(h: int) -> Graph:
    """Triangle-free diameter-2 companion of the wall W_h.

    Besides the wall and a proper 2-colouring {R, B} (R holds vertex 0),
    vertex r dominates R, b dominates B, r ~ b, and each wall vertex w_i
    gets a copy x_i adjacent to w_i, to the opposite colour class minus
    N(w_i), and to the copies of w_i's neighbours.
    """
    w = wall(h, 0)
    parts = bipartition(w)
    assert parts is not None
    red, blue = parts  # vertex 0 is in red by construction
    nw = w.n
    edges = list(w.edges())
    labels = dict(w.labels)
    for i in range(nw):
        labels[nw + i] = "x:" + labels[i].split(":", 1)[1]
    r_id, b_id = 2 * nw, 2 * nw + 1
    labels[r_id] = "r"
    labels[b_id] = "b"
    for v in bit_indices(red):
        edges.append((r_id, v))
    for v in bit_indices(blue):
        edges.append((b_id, v))
    edges.append((r_id, b_id))
    for i in range(nw):
        own = red if (red >> i) & 1 else blue
        other = blue if own is red else red
        edges.append((nw + i, i))
        for v in bit_indices(other & ~w.adj[i]):
            edges.append((nw + i, v))
        for j in bit_indices(w.adj[i]):
            if i < j:
                edges.append((nw + i, nw + j))
    return graph_from_edges(2 * nw + 2, edges, labels)


_CV_X_PAIRS = [(0, 1), (1, 2), (2, 3), (3, 0)]
_CV_Y_PAIRS = [(0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 0), (7, 1)]


def gadget_cv_unbounded(n: int) -> Graph:
    """Diameter-2 gadget with an induced (n+1)-vertex path and a 12-clique.

    Avoids the vertex-shared bouquet with twelve 6-cycles and twelve
    8-cycles: any 8-cycle through an x-type clique vertex, and any 6-cycle
    through a y-type one, must use a second clique vertex.
    """
    if n < 1:
        raise ValueError("gadget needs n >= 1")
    apexes = [(f"Z:x:{i},{j}", lambda k, i=i, j=j: k % 4 in (i, j)) for i, j in _CV_X_PAIRS]
    apexes += [(f"Z:y:{i},{j}", lambda k, i=i, j=j: k % 8 in (i, j)) for i, j in _CV_Y_PAIRS]
    return _apexed_path(n + 1, apexes, True)


def ce_pattern(l: int) -> str:
    """The bit pattern 1(10)^{l-2} governing the edge-shared gadget."""
    if l < 3:
        raise ValueError("pattern needs l >= 3")
    return "1" + "10" * (l - 2)


def gadget_ce_unbounded(n: int, l: int) -> Graph:
    """Diameter-2 gadget avoiding the edge-shared bouquet of 2(2l-3)
    cycles of length 2l."""
    if n < 1:
        raise ValueError("gadget needs n >= 1")
    pattern = ce_pattern(l)
    w = 2 * l - 3
    apexes = [(f"x:{j}", lambda i, j=j: pattern[(i - j) % w] == "1") for j in range(w)]
    return _apexed_path(n + 1, apexes, False)


def samecyc_pattern(variant: str, l: int | None = None) -> str:
    """Bit pattern of the diameter-3 two-apex gadgets.

    Variant A: 1100 (x on residues 0,1 mod 4).  Variant B for l >= 2:
    11(01)^{l-2}00(10)^{l-2}, length 4l-4.
    """
    if variant == "A":
        return "1100"
    if variant == "B":
        if l is None or l < 2:
            raise ValueError("variant B needs l >= 2")
        return "11" + "01" * (l - 2) + "00" + "10" * (l - 2)
    raise ValueError("variant must be 'A' or 'B'")


def gadget_samecyc(n: int, variant: str, l: int | None = None) -> Graph:
    """Diameter-3 gadget: a path plus two apexes x, y splitting the path
    vertices by a bit pattern (every path vertex sees exactly one apex)."""
    if n < 1:
        raise ValueError("gadget needs n >= 1")
    pattern = samecyc_pattern(variant, l)
    sides = (("x", "1"), ("y", "0"))
    apexes = [(side, lambda i, b=b: pattern[i % len(pattern)] == b) for side, b in sides]
    return _apexed_path(n + 1, apexes, False)


# -- FamilySpec: the CLI-facing parameterization ----------------------------


@dataclass(frozen=True)
class FamilySpec:
    """A family id plus its parameters, round-trippable through text.

    Text grammar: ``family`` or ``family:arg,arg,...``.  Bit patterns and
    variant letters stay strings; every other arg is an integer, and
    cycle-length lists accept ``KxL`` multiplicity shorthand
    (``cv:12x6,12x8``).
    Disjoint unions: ``union:spec+spec``.
    """

    family: str
    args: tuple = ()

    def text(self) -> str:
        if not self.args:
            return self.family
        if self.family == "union":
            return "union:" + "+".join(a.text() for a in self.args)
        return self.family + ":" + ",".join(str(a) for a in self.args)


# Family name -> builder taking the spec's parsed args.
_BUILDERS: dict[str, Callable[..., Graph]] = {
    "path": path_graph,
    "cycle": cycle_graph,
    "clique": complete_graph,
    "biclique": complete_bipartite,
    "spider": lambda *legs: spider(list(legs)),
    "hgraph": h_graph,
    "cv": lambda *lengths: cycle_bouquet(list(lengths), "vertex"),
    "ce": lambda *lengths: cycle_bouquet(list(lengths), "edge"),
    "wall": wall,
    "apexpath": patterned_apex_path,
    "gadget-cw": gadget_triangle_free_cw,
    "gadget-cv": gadget_cv_unbounded,
    "gadget-ce": gadget_ce_unbounded,
    "samecyc": gadget_samecyc,
    "sub-biclique": lambda n: subdivide(complete_bipartite(n, n), 1),
    "sub-clique": lambda n: subdivide(complete_graph(n), 2),
    "er-polarity": er_polarity_graph,
    "union": lambda *parts: reduce(disjoint_union, map(build_family, parts)),
}


def parse_family_spec(text: str) -> FamilySpec:
    text = text.strip()
    name, _, rest = text.partition(":")
    if name not in _BUILDERS:
        raise ValueError(f"unknown family {name!r}")
    if name == "union":
        if not rest:
            raise ValueError("union needs member specs")
        return FamilySpec("union", tuple(parse_family_spec(p) for p in rest.split("+")))
    if not rest:
        raise ValueError(f"family {name!r} needs parameters")
    args: list = []
    for pos, item in enumerate(rest.split(",")):
        item = item.strip()
        if name == "apexpath" and pos == 1:
            args.append(item)  # bit pattern: keep leading zeros
        elif name == "samecyc" and pos == 1:
            args.append(item)  # variant letter
        elif name in ("cv", "ce"):  # cycle lengths; KxL is K cycles of length L
            k, x, l = item.partition("x")
            args.extend([int(l)] * int(k) if x else [int(k)])
        else:
            args.append(int(item))
    try:
        signature(_BUILDERS[name]).bind(*args)
    except TypeError:
        raise ValueError(f"family {name!r} does not take {len(args)} parameters") from None
    return FamilySpec(name, tuple(args))


# Family name -> the vertex count of the graph its builder makes from the
# same args, computed without building it.
_ORDERS: dict[str, Callable[..., int]] = {
    "path": lambda n: n,
    "cycle": lambda n: n,
    "clique": lambda n: n,
    "biclique": lambda r, s: r + s,
    "spider": lambda *legs: 1 + sum(legs),
    "hgraph": lambda i, l=1: i + 1 + 4 * l,
    "cv": lambda *lengths: 1 + sum(l - 1 for l in lengths),
    "ce": lambda *lengths: 2 + sum(l - 2 for l in lengths),
    # 2h^2 + 4h wall vertices, and k more on each of its 3h^2 + 4h - 1 edges
    "wall": lambda h, k=0: 2 * h * h + 4 * h + k * (3 * h * h + 4 * h - 1),
    "apexpath": lambda n, b: n + 1,
    "gadget-cw": lambda h: 2 * (2 * h * h + 4 * h) + 2,
    "gadget-cv": lambda n: n + 13,
    "gadget-ce": lambda n, l: n + 2 * l - 2,
    "samecyc": lambda n, variant, l=None: n + 3,
    "sub-biclique": lambda n: 2 * n + n * n,
    "sub-clique": lambda n: n * n,
    "er-polarity": lambda q: q * q + q + 1,
    "union": lambda *parts: sum(_vertex_count(p) for p in parts),
}

# The most vertices a family spec may ask for: about seven times the
# largest spec in use (cv:12x6,12x8, 145 vertices).  The densest family
# at the cap, clique:1000, has 499,500 edges and builds in under a second.
FAMILY_LIMIT = 1000


def _vertex_count(spec: FamilySpec) -> int:
    """The vertex count of ``build_family(spec)``, from the parameters."""
    return _ORDERS[spec.family](*spec.args)


def build_family(spec: FamilySpec | str) -> Graph:
    if isinstance(spec, str):
        spec = parse_family_spec(spec)
    if spec.family not in _BUILDERS:
        raise ValueError(f"unknown family {spec.family!r}")
    n = _vertex_count(spec)
    if n > FAMILY_LIMIT:
        raise ValueError(f"{spec.text()} has {n} vertices, over the limit of {FAMILY_LIMIT}")
    return _BUILDERS[spec.family](*spec.args)
