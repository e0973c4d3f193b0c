"""Distance-type refutation engine over completions of an induced path.

Question: can an induced path p_0..p_L live inside a C_{2r}-subgraph-free
graph of diameter at most d?  The search adds auxiliary witness vertices
and, for every path pair at distance more than d, branches over all
connector templates of length at most d (a common neighbour; a witness
shifted one step along the path; the two-witness bridge), rejecting any
extension that closes a C_{2r} subgraph.

Outcomes:

* Consistent: a concrete partial model was found (path + witnesses +
  adjacency); it verifies against all three constraint families.  Pair
  distances among witnesses are left undecided; only path pairs carry
  obligations.
* Refuted: the whole search space over the bounded witness vocabulary
  (at most W auxiliary vertices, default 3L/d) is exhausted.  This is a
  proof relative to that vocabulary; connector templates are exhaustive,
  so a refutation with vocabulary W rules out any qualifying graph whose
  witness set fits in W.  A dead-obligation refutation (every connector
  template for some pair closes a C_{2r} against the bare path) is
  vocabulary-independent and rules out every qualifying graph.
* BudgetExhausted: the node budget ran out first.

Search cost: ``nodes`` counts one per connector choice tried, and the
budget bounds that count only.  A run resumed from a ``--state`` file
counts from the nodes saved there, so one budget bounds the total.  The
C_{2r} test after each choice is a DFS from the new edge (a, b) that stops
at 2r - 2 path vertices.  Its last level is one mask test per candidate c
next on the path: the cycle closes iff ``adj[c] & adj[a]`` has a vertex
off the path.  The test counts no nodes.

For C4 a single-witness choice is decided by one mask, before any edge is
written.  It joins a witness w to path vertices a and/or b that share no
neighbour while their obligation is open (a common neighbour would put
p_i and p_j within d).  So a C4 runs through a new edge w - v iff
``reach[v] & adj[w]`` is non-zero, where ``reach[v]`` is the union of
``adj[c]`` over the neighbours c of v.  ``_choices`` reads these masks
once per search node, and they hold for all its choices.  It builds only
the choices the search will try, each with its template index, and
counts the closing ones.  ``_dfs`` pays for each run of closing
templates between two tried ones in one step, one node per template: the
budget cut and the state dumps fall on the node counts they would if
each template were tried, and saved decisions are template indices.  A
tried choice removes its edges on return.  The dead-obligation prepass
reads the same count.  Two-witness choices and r >= 3 run the DFS.  An
obligation is met when p_i and p_j are adjacent, share a neighbour, or
(d = 3) ``reach[i] & adj[j]`` is non-zero: three mask tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .graphs import ABSENT, DEFAULT_BUDGET, Budget, BudgetExhausted, Graph
from .cycles import find_cycle_subgraph

_STATE_DUMP_EVERY = 50_000


@dataclass(frozen=True)
class RefutationOutcome:
    status: str  # "Refuted" | "Consistent" | "BudgetExhausted"
    model: Graph | None
    nodes: int
    witnesses_used: int
    dead_obligation: tuple[int, int] | None = None
    vocabulary: int = 0


def _connector_shapes(i: int, j: int, d: int, L: int):
    """All templates for a path of length <= d between p_i and p_j whose
    interior is not entirely on the (chordless) path."""
    shapes: list[tuple] = [("single", i, j)]
    if d == 3:
        if j - i >= 2:
            shapes.append(("single", i + 1, j))
            shapes.append(("single", i, j - 1))
        if i >= 1:
            shapes.append(("single", i - 1, j))
        if j + 1 <= L:
            shapes.append(("single", i, j + 1))
        shapes.append(("double", i, j))
    return shapes


class _ForeignState(Exception):
    """A replayed decision names no choice of its node: the saved state is
    not a cut of this search."""


def _closes_cycle(adj: list[int], close: int, last: int, used: int, levels: int) -> bool:
    """Whether the path in ``used``, from a to ``last``, closes a cycle of
    ``levels`` + 4 vertices, where ``close`` is ``adj[a]``.  The DFS adds
    ``levels`` vertices; the next candidate c then closes the cycle iff
    ``adj[c] & adj[a]`` has a vertex off the path, one mask test per c.  For
    C4 (``levels`` 0) that candidate level is the neighbourhood of ``last``."""
    cand = adj[last] & ~used
    if levels:
        while cand:
            low = cand & -cand
            if _closes_cycle(adj, close, low.bit_length() - 1, used | low, levels - 1):
                return True
            cand ^= low
        return False
    close &= ~used  # adj[c] never holds c itself
    while cand:
        low = cand & -cand
        if adj[low.bit_length() - 1] & close:
            return True
        cand ^= low
    return False


def _reach(adj: list[int], v: int) -> int:
    """The union of ``adj[c]`` over the neighbours c of v: the vertices
    joined to v by a path of two edges, and v itself."""
    reach = 0
    nbrs = adj[v]
    while nbrs:
        low = nbrs & -nbrs
        reach |= adj[low.bit_length() - 1]
        nbrs ^= low
    return reach


class _Search:
    def __init__(self, r: int, d: int, L: int, budget: Budget, vocabulary: int,
                 state_path: str | None = None):
        if r < 2 or d not in (2, 3) or L < 2 or vocabulary < 0:
            raise ValueError("need r >= 2, d in {2,3}, L >= 2, vocabulary >= 0")
        self.r = r
        self.d = d
        self.L = L
        self.levels = 2 * r - 4  # DFS levels of _closes_cycle
        self.budget = budget
        self.W = vocabulary
        self.size = L + 1 + self.W
        self.adj = [0] * self.size
        for i in range(L):
            self.adj[i] |= 1 << (i + 1)
            self.adj[i + 1] |= 1 << i
        self.used_witnesses = 0
        self.obligations = [
            (i, j)
            for j in range(d + 1, L + 1)
            for i in range(0, j - d)
        ]
        self.obligations.sort(key=lambda p: (p[1], p[0]))
        self.decisions: list[int] = []
        self.state_path = state_path

    # -- choice enumeration ------------------------------------------------

    def _choices(self, i: int, j: int) -> tuple[int, list]:
        """The connector templates for (p_i, p_j) as (count, open), in
        template order: existing witnesses before fresh ones, shapes in
        ``_connector_shapes`` order.  ``open`` holds the templates the
        search will try, each as its template index, the edges it still
        needs, the number of fresh witnesses it allocates and a flag: False
        for a single-witness template that the C4 mask (module docstring)
        clears when r = 2, None where ``_closes_cycle`` decides.  A template
        the C4 mask finds closing is counted, never built.  The only place
        templates become edges."""
        adj = self.adj
        base = self.L + 1
        used = self.used_witnesses
        c4 = not self.levels
        flag = False if c4 else None
        out = []
        ci = 0  # template index
        fresh_id = base + used
        for shape, a, b in _connector_shapes(i, j, self.d, self.L):
            if shape == "single":  # a - w - b through one witness
                abit, bbit = 1 << a, 1 << b
                ra = rb = 0  # masks that skip nothing when r >= 3
                if c4:
                    ra, rb = _reach(adj, a), _reach(adj, b)
                for wid in range(base, base + min(used + 1, self.W)):
                    nbrs = adj[wid]
                    if nbrs & abit:
                        if nbrs & bbit:
                            continue
                        if not nbrs & rb:
                            out.append((ci, ((wid, b),), 0, flag))
                    elif nbrs & bbit:
                        if not nbrs & ra:
                            out.append((ci, ((wid, a),), 0, flag))
                    elif not nbrs & (ra | rb):
                        out.append((ci, ((wid, a), (wid, b)), int(wid == fresh_id), flag))
                    ci += 1
                continue
            # a - x - y - b through two witnesses
            pairs = [(x, y, 0) for x in range(used) for y in range(used) if x != y]
            if used < self.W:
                for x in range(used):
                    pairs += [(x, used, 1), (used, x, 1)]
                if used + 1 < self.W:
                    pairs.append((used, used + 1, 2))
            for x, y, fresh in pairs:
                xid, yid = base + x, base + y
                edges = [
                    (u, v) for u, v in ((xid, a), (xid, yid), (yid, b))
                    if not (adj[u] >> v) & 1
                ]
                if edges:
                    out.append((ci, edges, fresh, None))
                    ci += 1
        return ci, out

    # -- dead-shape prepass -------------------------------------------------

    def dead_obligation(self) -> tuple[int, int] | None:
        """An obligation all of whose templates close a C_{2r} against the
        bare path; its existence refutes independently of the vocabulary.
        On a probe with no witness placed yet, ``_choices`` lists every
        template once, on fresh witnesses; one it counts but does not build
        closes a C4, one it flags False does not, and ``_closes_cycle``
        decides the others."""
        probe = _Search(self.r, self.d, self.L, Budget(None), 2)
        adj = probe.adj
        levels = probe.levels
        for (i, j) in self.obligations:
            for _, edges, _, bad in probe._choices(i, j)[1]:
                if bad is None:
                    for u, v in edges:
                        adj[u] ^= 1 << v
                        adj[v] ^= 1 << u
                    bad = any(_closes_cycle(adj, adj[u], v, (1 << u) | (1 << v), levels)
                              for u, v in edges)
                    for u, v in edges:
                        adj[u] ^= 1 << v
                        adj[v] ^= 1 << u
                if not bad:
                    break
            else:
                return (i, j)
        return None

    # -- main search ---------------------------------------------------------

    def run(self, replay: list[int]):
        dead = self.dead_obligation()
        if dead is not None:
            return RefutationOutcome("Refuted", None, self.budget.spent, 0, dead, self.W)
        try:
            found = self._dfs(0, replay)
        except BudgetExhausted:
            # a cut inside the replayed prefix leaves the saved state as it was
            k = len(self.decisions)
            if k >= len(replay) or self.decisions != replay[:k]:
                self._dump_state()
            return RefutationOutcome(
                "BudgetExhausted", None, self.budget.spent, 0, None, self.W
            )
        if found:
            return RefutationOutcome(
                "Consistent", self.model_graph(), self.budget.spent,
                self.used_witnesses, None, self.W,
            )
        return RefutationOutcome("Refuted", None, self.budget.spent, 0, None, self.W)

    def _dfs(self, k: int, replay: list[int]) -> bool:
        """Whether obligations k.. can all be met; raises BudgetExhausted
        when the budget runs out."""
        if k == len(self.obligations):
            return True
        i, j = self.obligations[k]
        adj = self.adj
        if adj[i] >> j & 1 or adj[i] & adj[j] or (self.d == 3 and _reach(adj, i) & adj[j]):
            self.decisions.append(-1)
            found = self._dfs(k + 1, replay[1:] if replay else [])
            self.decisions.pop()
            return found
        total, choices = self._choices(i, j)
        levels = self.levels
        budget = self.budget
        limit = budget.limit
        start = replay[0] if replay else 0
        if start == -1:
            start = 0
        elif start and start >= total:
            raise _ForeignState  # replaying it would skip every choice
        charged = start  # templates before this one are paid for
        for ci, edges, fresh, closes in choices:
            if ci < start:
                continue
            if ci > charged:
                self._charge(ci - charged)  # the closing templates between
            charged = ci + 1
            budget.spent = spent = budget.spent + 1  # Budget.spend, inline
            if limit is not None and spent > limit:
                raise BudgetExhausted
            for u, v in edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            if closes is None:
                for u, v in edges:
                    if _closes_cycle(adj, adj[u], v, (1 << u) | (1 << v), levels):
                        closes = True
                        break
            if not closes:
                self.decisions.append(ci)
                self.used_witnesses += fresh
                sub_replay = replay[1:] if (replay and ci == start) else []
                if self._dfs(k + 1, sub_replay):
                    return True  # keep the model's edges in place
                self.decisions.pop()
                self.used_witnesses -= fresh
            for u, v in edges:
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
            if not budget.spent % _STATE_DUMP_EVERY:
                self._dump_state()
        if total > charged:
            self._charge(total - charged)
        return False

    def _charge(self, run: int) -> None:
        """Pay for ``run`` closing templates in one step, as one node each
        would: a state dump at each multiple of ``_STATE_DUMP_EVERY`` the run
        reaches within the limit, then BudgetExhausted at the first node
        past the limit."""
        budget = self.budget
        spent = budget.spent
        limit = budget.limit
        end = spent + run
        top = end if limit is None else min(end, limit)
        for mark in range(spent - spent % _STATE_DUMP_EVERY + _STATE_DUMP_EVERY,
                          top + 1, _STATE_DUMP_EVERY):
            budget.spent = mark
            self._dump_state()
        if top < end:
            budget.spent = limit + 1
            raise BudgetExhausted
        budget.spent = end

    def model_graph(self) -> Graph:
        n = self.L + 1 + self.used_witnesses
        labels = {i: f"p:{i}" for i in range(self.L + 1)}
        labels.update(
            {self.L + 1 + k: f"w:{k}" for k in range(self.used_witnesses)}
        )
        full = (1 << n) - 1
        return Graph(n, tuple(m & full for m in self.adj[:n]), tuple(sorted(labels.items())))

    def _dump_state(self) -> None:
        if self.state_path:
            payload = {
                "r": self.r,
                "d": self.d,
                "L": self.L,
                "vocabulary": self.W,
                "nodes": self.budget.spent,
                "decisions": list(self.decisions),
            }
            with open(self.state_path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)


def refute_path(
    r: int,
    d: int,
    L: int,
    budget: int | None = DEFAULT_BUDGET,
    vocabulary: int | None = None,
    state_path: str | None = None,
) -> RefutationOutcome:
    """Search for a C_{2r}-free, diameter-<=d completion pattern around an
    induced path with L edges.  See the module docstring for the exact
    semantics of the three outcomes.

    ``state_path`` resumes from a state saved for the same r, d, L and
    vocabulary: its ``decisions`` (a list of ints >= -1) are replayed and
    its ``nodes`` (an int >= 0) already spent.  Any other file, or one with
    a replayed index past its node's choices, starts fresh.  A state whose
    indices are all in range is trusted: the search goes on from the
    choices it names."""
    W = vocabulary if vocabulary is not None else max(1, (3 * L) // d)
    replay, spent = [], 0
    if state_path:
        try:
            with open(state_path, "r", encoding="utf-8") as fh:
                saved = json.load(fh)
        except (OSError, ValueError):
            saved = None
        if isinstance(saved, dict) and (
            [saved.get(k) for k in ("r", "d", "L", "vocabulary")] == [r, d, L, W]
        ):
            decisions, nodes = saved.get("decisions", []), saved.get("nodes", 0)
            if (isinstance(decisions, list)
                    and all(type(x) is int and x >= -1 for x in decisions)
                    and type(nodes) is int and nodes >= 0):
                replay, spent = decisions, nodes
    try:
        return _Search(r, d, L, Budget(budget, spent), W, state_path).run(replay)
    except _ForeignState:
        return _Search(r, d, L, Budget(budget), W, state_path).run([])


def verify_model(model: Graph, r: int, d: int, L: int) -> tuple[bool, str]:
    """Re-check the three constraint families on an emitted model."""
    for i in range(L + 1):
        for j in range(i + 1, L + 1):
            has = model.has_edge(i, j)
            if (j - i == 1) != has:
                return False, f"path adjacency broken at ({i},{j})"
    hit = find_cycle_subgraph(model, 2 * r, budget=None)
    if hit is not ABSENT:
        return False, f"contains C_{2*r}: {hit}"
    from .graphs import distances_from

    for i in range(L + 1):
        dist = distances_from(model, i)
        for j in range(i + 1, L + 1):
            if dist[j] > d:
                return False, f"pair ({i},{j}) at distance {dist[j]} > {d}"
    return True, "ok"
