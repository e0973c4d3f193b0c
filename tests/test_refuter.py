import hashlib
import json
import os

import pytest
from oracles import atlas_graphs, reference_cycles_through_edge

from diamwidth.formats import to_graph6
from diamwidth.graphs import Budget, bit_indices, graph_from_edges, is_connected
from diamwidth.refuter import _closes_cycle, _reach, _Search, refute_path, verify_model


def test_c6_refutation_at_diameter_two():
    out = refute_path(3, 2, 10)
    assert out.status == "Refuted"
    assert out.dead_obligation == (0, 4)  # any common neighbour closes a C6


def test_c4_consistency_small_lengths():
    for L in range(3, 9):
        out = refute_path(2, 2, L, budget=200_000)
        assert out.status != "Refuted"
        if out.status == "Consistent":
            ok, reason = verify_model(out.model, 2, 2, L)
            assert ok, reason


def test_diameter3_consistency():
    out = refute_path(2, 3, 10, budget=500_000)
    assert out.status == "Consistent"
    ok, reason = verify_model(out.model, 2, 3, 10)
    assert ok, reason
    assert out.witnesses_used <= (3 * 10) // 3


def test_vocabulary_must_not_be_negative():
    for w in (-1, -5):
        with pytest.raises(ValueError, match="vocabulary >= 0"):
            refute_path(2, 2, 8, vocabulary=w)
    out = refute_path(2, 2, 8, vocabulary=0)  # no witnesses, a valid search
    assert out.vocabulary == 0 and out.witnesses_used == 0


def test_budget_exhaustion_is_reported():
    out = refute_path(2, 2, 20, budget=2_000)
    assert out.status == "BudgetExhausted"
    assert out.nodes >= 2_000


def test_verify_model_rejects_planted_failures():
    # planted C4 (r=2): path 0-1-2-3 plus witness adjacent to 0 and 2
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (4, 0), (4, 2), (4, 3)])
    ok, reason = verify_model(g, 2, 2, 3)
    assert not ok and "C_4" in reason
    # missing connector: bare path of length 4 at d=2
    p = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    ok, reason = verify_model(p, 2, 2, 4)
    assert not ok and "distance" in reason
    # broken path adjacency
    chord = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ok, reason = verify_model(chord, 2, 2, 3)
    assert not ok and "adjacency" in reason


def test_state_file_roundtrip(tmp_path):
    state = str(tmp_path / "refute-state.json")
    out1 = refute_path(2, 2, 16, budget=3_000, state_path=state)
    assert out1.status == "BudgetExhausted"
    assert os.path.exists(state)
    out2 = refute_path(2, 2, 16, budget=3_000, state_path=state)
    assert out2.status in ("BudgetExhausted", "Consistent")


def test_resume_needs_the_same_vocabulary(tmp_path):
    # saved choice indices replay into one vocabulary's choice lists only
    state = str(tmp_path / "refute-state.json")
    fresh = refute_path(3, 3, 12, 200_000, 6)
    assert (fresh.status, fresh.nodes) == ("Consistent", 135_686)
    assert refute_path(3, 3, 12, 20, 1, state).status == "BudgetExhausted"
    resumed = refute_path(3, 3, 12, 200_000, 6, state)
    assert (resumed.status, resumed.nodes) == (fresh.status, fresh.nodes)
    # same vocabulary: replayed, counting on from the 100,000 nodes saved
    again = refute_path(3, 3, 12, 200_000, 6, state)
    assert (again.status, again.nodes) == ("Consistent", 135_710)


def test_resume_spends_from_the_saved_nodes(tmp_path):
    state = str(tmp_path / "refute-state.json")
    first = refute_path(2, 2, 16, 3_000, state_path=state)
    assert (first.status, first.nodes) == ("BudgetExhausted", 3_001)
    with open(state, encoding="utf-8") as fh:
        saved = fh.read()
    # the budget is already spent: the cut comes inside the replay, and the
    # saved state is kept for a larger budget
    again = refute_path(2, 2, 16, 3_000, state_path=state)
    assert (again.status, again.nodes) == ("BudgetExhausted", 3_002)
    with open(state, encoding="utf-8") as fh:
        assert fh.read() == saved
    more = refute_path(2, 2, 16, 6_000, state_path=state)
    assert (more.status, more.nodes) == ("BudgetExhausted", 6_001)


def test_a_state_file_that_is_not_an_object_starts_fresh(tmp_path):
    state = tmp_path / "refute-state.json"
    for text in ("[1, 2]", "7", "not json"):
        state.write_text(text)
        out = refute_path(2, 2, 16, 3_000, state_path=str(state))
        assert (out.status, out.nodes) == ("BudgetExhausted", 3_001)


def _forge(path, r, d, L, vocabulary, nodes, decisions):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"r": r, "d": d, "L": L, "vocabulary": vocabulary,
                   "nodes": nodes, "decisions": decisions}, fh)


def test_a_replayed_index_past_its_choices_starts_fresh(tmp_path):
    # the first obligation of (2, 2, 8) has one choice: index 1 or 99 would
    # skip it and answer Refuted at 0 nodes; the last list is a 20-node cut
    # with its last index past its choices
    state = str(tmp_path / "refute-state.json")
    fresh = refute_path(2, 2, 8, 1_000)
    assert (fresh.status, fresh.nodes) == ("Consistent", 50)
    for decisions in ([99], [1], [5], [1, 1], [0, 0, 1, 2, 1, 3, 2, 99]):
        _forge(state, 2, 2, 8, 12, 0, decisions)
        out = refute_path(2, 2, 8, 1_000, state_path=state)
        assert (out.status, out.nodes) == ("Consistent", 50), decisions


def test_decisions_that_are_not_ints_from_minus_one_start_fresh(tmp_path):
    state = str(tmp_path / "refute-state.json")
    for decisions in (["a"], "ab", [0.5], [-5], [True], {"0": 0}, None):
        _forge(state, 2, 2, 8, 12, 0, decisions)
        out = refute_path(2, 2, 8, 1_000, state_path=state)
        assert (out.status, out.nodes) == ("Consistent", 50), decisions


def test_saved_nodes_that_are_not_a_count_start_fresh(tmp_path):
    # a negative count would let a run spend past its budget: the state
    # saved at the cut shows where the search stopped
    fresh = str(tmp_path / "fresh.json")
    assert refute_path(2, 2, 16, 100, state_path=fresh).nodes == 101
    with open(fresh, encoding="utf-8") as fh:
        expect = fh.read()
    state = str(tmp_path / "refute-state.json")
    for nodes in (-100_000, -1, True, 1.5, "3", None):
        _forge(state, 2, 2, 16, 24, nodes, [])
        out = refute_path(2, 2, 16, 100, state_path=state)
        assert (out.status, out.nodes) == ("BudgetExhausted", 101), nodes
        with open(state, encoding="utf-8") as fh:
            assert fh.read() == expect, nodes


def test_a_forged_state_in_range_is_trusted(tmp_path):
    # skipping choice 0 at the third obligation: a valid model one node early
    state = str(tmp_path / "refute-state.json")
    _forge(state, 2, 2, 8, 12, 0, [0, 0, 1])
    out = refute_path(2, 2, 8, 1_000, state_path=state)
    assert (out.status, out.nodes) == ("Consistent", 49)
    assert verify_model(out.model, 2, 2, 8)[0]


def test_closure_test_matches_the_reference_cycle_search():
    # _closes_cycle on the path (a, b) finds a cycle of 2r vertices iff the
    # plain DFS lists one through edge ab
    checked = 0
    for g in atlas_graphs():
        if not is_connected(g):
            continue
        adj = list(g.adj)
        for a in range(g.n):
            for b in bit_indices(adj[a] & ~((1 << (a + 1)) - 1)):
                for length in (4, 6, 8):
                    got = _closes_cycle(adj, adj[a], b, (1 << a) | (1 << b), length - 4)
                    want = bool(reference_cycles_through_edge(g, a, b, length, limit=1)[0])
                    assert got == want, (g.adj, a, b, length)
                    checked += got
    assert checked > 0


def test_c4_mask_rule_matches_the_closure_test():
    # joining w to one or two non-neighbours that share no neighbour closes a
    # C4 iff the union of their reach masks meets adj[w]
    checked = 0
    for g in atlas_graphs():
        if not is_connected(g):
            continue
        for w in range(g.n):
            outside = [v for v in range(g.n) if v != w and not g.adj[w] >> v & 1]
            targets = [(v,) for v in outside] + [
                (a, b) for a in outside for b in outside
                if a < b and not g.adj[a] >> b & 1 and not g.adj[a] & g.adj[b]
            ]
            for vs in targets:
                adj = list(g.adj)
                mask = 0
                for v in vs:
                    mask |= _reach(adj, v)
                got = bool(mask & adj[w])
                for v in vs:
                    adj[w] |= 1 << v
                    adj[v] |= 1 << w
                want = any(_closes_cycle(adj, adj[w], v, (1 << w) | (1 << v), 0) for v in vs)
                assert got == want, (g.adj, w, vs)
                checked += got
    assert checked > 0


def test_c4_flags_of_choices_match_the_closure_test():
    # every template of a search node, skipped or kept, against _closes_cycle
    # with its edges written: _choices skips only templates that close a C4
    # and flags False only ones that do not.  The full list comes from
    # _choices with the C4 mask off.
    flagged = []

    class Checked(_Search):
        def _choices(self, i, j):
            total, out = super()._choices(i, j)
            self.levels = 2
            every = super()._choices(i, j)[1]
            self.levels = 0
            assert [ci for ci, *_ in every] == list(range(total)), (i, j)
            kept = {ci: (edges, fresh, closes) for ci, edges, fresh, closes in out}
            adj = self.adj
            for ci, edges, fresh, _ in every:
                for u, v in edges:
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                want = any(_closes_cycle(adj, adj[u], v, (1 << u) | (1 << v), 0)
                           for u, v in edges)
                for u, v in edges:
                    adj[u] ^= 1 << v
                    adj[v] ^= 1 << u
                if ci not in kept:
                    assert want, (i, j, edges)
                    flagged.append(True)
                    continue
                assert kept[ci][:2] == (edges, fresh), (i, j, ci)
                if kept[ci][2] is not None:
                    assert not want, (i, j, edges)
                    flagged.append(False)
            return total, out

    for d, L in ((2, 12), (2, 16), (3, 20)):
        Checked(2, d, L, Budget(10_000), (3 * L) // d).run([])
    assert True in flagged and False in flagged


def test_deeper_searches_are_pinned(tmp_path):
    # values before the closure test became one module-level helper; the
    # solvers sweep and PINNED reach only r <= 3
    out = refute_path(4, 3, 40, 100_000)
    assert (out.status, out.nodes, out.vocabulary) == ("Refuted", 16_059, 40)
    cuts = {
        (5, 3, 40): [0, -1, 1, 0, -1, 8, -1, 27, 15, -1, -1, -1, 10, 10, -1],
        (6, 3, 30): [0, -1, 0, -1, -1, 0, -1, -1, -1, 3, 6, -1, -1, 5, -1, 10],
    }
    for (r, d, L), decisions in cuts.items():
        state = str(tmp_path / f"state-{r}.json")
        out = refute_path(r, d, L, 20_000, state_path=state)
        assert (out.status, out.nodes) == ("BudgetExhausted", 20_001)
        with open(state, encoding="utf-8") as fh:
            saved = json.load(fh)
        assert (saved["nodes"], saved["decisions"]) == (20_001, decisions), (r, d, L)


# refute_path(2, 2, L, 60_000) before each choice was charged inline on the
# budget: (L, nodes) -> the decisions of each state it saved.  Both dump at
# 50,000 nodes on a choice that closes a C4, and are cut at 60,001.
R2_DUMPS = {
    (20, 50_000): [
        0, 0, 1, 2, 1, 3, 2, 4, 4, 5, 0, 4, -1, -1, -1, 0, 6, 3, -1, -1, -1, 2, 6, 7,
        7, 8, -1, -1, 2, 9, 10, 11, 12, -1, -1, 13, 0, 9, 14, -1, -1, 15, 16, -1, -1,
        0, 17, 18, -1, -1, 19, 20, -1, -1, 21, 2, 17, 22, 23, 24, -1, -1, 25, 26, -1,
        -1, 27, 4, -1, 11, 8, 15, -1, -1, 26, -1, -1, -1, 27, 1, 14, 5, -1, -1, -1,
        13, 28, 21, -1, -1, -1, 29, 9, 18, 5, 24
    ],
    (20, 60_001): [
        0, 0, 1, 2, 1, 3, 2, 4, 4, 5, 0, 4, -1, -1, -1, 0, 6, 3, -1, -1, -1, 2, 6, 7,
        7, 8, -1, -1, 2, 9, 10, 11, 12, -1, -1, 13, 0, 9, 14, -1, -1, 15, 16, -1, -1,
        0, 17, 18, -1, -1, 19, 20, -1, -1, 21, 2, 17, 22, 23, 24, -1, -1, 25, 26, -1,
        -1, 27, 4, -1, 11, 8, 15, -1, -1, 26, -1, -1, -1, 27, 6, 14, 5, 28, 19, -1,
        13, -1, -1, -1, -1, -1, 29, 29, 18, 23, 12
    ],
    (23, 50_000): [
        0, 0, 1, 2, 1, 3, 2, 4, 4, 5, 0, 4, -1, -1, -1, 0, 6, 3, -1, -1, -1, 2, 6, 7,
        7, 8, -1, -1, 2, 9, 10, 11, 12, -1, -1, 13, 0, 9, 14, -1, -1, 15, 16, -1, -1,
        0, 17, 18, -1, -1, 19, 20, -1, -1, 21, 2, 17, 22, 23, 24, -1, -1, 25, 26, -1,
        -1, 2, 27, 14, 28, 29, -1, -1, 30, 31, -1, -1, -1, 32, 6, 18, 5, 29, 15, -1,
        13, -1, -1, -1, -1, -1, 32, 1, 10, 33, -1, -1, 16
    ],
    (23, 60_001): [
        0, 0, 1, 2, 1, 3, 2, 4, 4, 5, 0, 4, -1, -1, -1, 0, 6, 3, -1, -1, -1, 2, 6, 7,
        7, 8, -1, -1, 2, 9, 10, 11, 12, -1, -1, 13, 0, 9, 14, -1, -1, 15, 16, -1, -1,
        0, 17, 18, -1, -1, 19, 20, -1, -1, 21, 2, 17, 22, 23, 24, -1, -1, 25, 26, -1,
        -1, 2, 27, 14, 28, 29, -1, -1, 30, 31, -1, -1, -1, 32, 6, 18, 5, 29, 15, -1,
        13, -1, -1, -1, -1, -1, 33, 33, 7, -1, 24
    ],
}


def test_r2_cuts_are_pinned(tmp_path):
    # at d = 3, r = 2 searches end Consistent within 200 nodes, and the
    # 10,000-node PINNED cuts come before any dump
    dumps = []

    class Recorded(_Search):
        def _dump_state(self):
            dumps.append((self.L, self.budget.spent, list(self.decisions)))

    for L in (20, 23):
        state = str(tmp_path / f"state-{L}.json")
        out = refute_path(2, 2, L, 60_000, state_path=state)
        assert (out.status, out.nodes) == ("BudgetExhausted", 60_001)
        with open(state, encoding="utf-8") as fh:
            saved = json.load(fh)
        assert (saved["nodes"], saved["decisions"]) == (60_001, R2_DUMPS[L, 60_001]), L
        out = Recorded(2, 2, L, Budget(60_000), (3 * L) // 2).run([])
        assert (out.status, out.nodes) == ("BudgetExhausted", 60_001)
    assert {(L, nodes): decisions for L, nodes, decisions in dumps} == R2_DUMPS
    assert len(dumps) == len(R2_DUMPS)


def test_searches_and_their_dumps_are_pinned():
    # SHA-256 of the grid below before _choices skipped the templates that
    # close a C4: outcome, nodes, witnesses, dead obligation, model and every
    # saved state.  Many cuts come inside a run of closing templates, and
    # the 50,000 and 60,000-node runs dump inside one.  Each 1,000-node cut
    # is resumed with a budget past and one under its saved nodes.
    entries = []

    class Recorded(_Search):
        def _dump_state(self):
            self.dumps.append((self.budget.spent, list(self.decisions)))

    def run(r, d, L, budget, spent=0, replay=()):
        search = Recorded(r, d, L, Budget(budget, spent), max(1, (3 * L) // d))
        search.dumps = []
        out = search.run(list(replay))
        model = to_graph6(out.model) if out.model is not None else None
        entries.append([r, d, L, budget, spent, list(replay), out.status, out.nodes,
                        out.witnesses_used, out.dead_obligation, model, search.dumps])
        return search.dumps

    for r in (2, 3):
        for d in (2, 3):
            for L in range(3, 24):
                for budget in (137, 1_000, 10_000):
                    dumps = run(r, d, L, budget)
                    if budget == 1_000 and dumps:
                        nodes, decisions = dumps[-1]
                        run(r, d, L, 10_000, nodes, decisions)
                        run(r, d, L, 137, nodes, decisions)
    for L in (20, 23):  # a dump on the limit; a resume from the 50,000 dump
        run(2, 2, L, 50_000)
        nodes, decisions = run(2, 2, L, 60_000)[0]
        run(2, 2, L, 60_000, nodes, decisions)
    assert len(entries) == 306
    digest = hashlib.sha256(json.dumps(entries).encode()).hexdigest()
    assert digest == "34fed5ed05b4ee4b0d6abdcbd7f054d9b6e0c1284da1acf82dbb4194e594f067"


def test_dead_obligations_are_pinned():
    # the 290 values of the grid below before connector edges were built
    # in one place: at d = 2 every common neighbour of p_0 and p_{2r-2}
    # closes a C_{2r}; nothing else is dead
    for r in range(2, 7):
        for d in (2, 3):
            for L in range(2, 31):
                dead = _Search(r, d, L, None, max(1, (3 * L) // d)).dead_obligation()
                expect = (0, 2 * r - 2) if d == 2 and r >= 3 and L >= 2 * r - 2 else None
                assert dead == expect, (r, d, L)


def test_vocabulary_is_reported():
    out = refute_path(2, 2, 6)
    assert out.vocabulary == 9


# (r, d, L), status, nodes, witnesses_used, dead_obligation, model graph6:
# refute_path(r, d, L, 10_000) as it answered before the C_{2r} test ended
# in a mask level; no change to that test since has moved these values.
PINNED = [
    ((2, 2, 3), 'Consistent', 1, 1, None, 'Dhc'),
    ((2, 2, 4), 'Consistent', 4, 2, None, 'FhEYO'),
    ((2, 2, 5), 'Consistent', 13, 4, None, 'IhCKqYCH?'),
    ((2, 2, 6), 'Consistent', 32, 6, None, 'LhCGKpK``GKOC_'),
    ((2, 2, 7), 'Consistent', 38, 6, None, 'MhCGGEXRCKC_WoC_?'),
    ((2, 2, 8), 'Consistent', 50, 7, None, 'OhCGGC@eYWOoHGWoAOA@?'),
    ((2, 2, 9), 'Consistent', 85, 9, None, 'RhCGGC@?KrH_`cHGKW?c?OK?oO?O_?'),
    ((2, 2, 10), 'Consistent', 148, 14, None, 'XhCGGC@?G?rKR?`eCcBE?C_@?o@__?O_@?G?GA??_O?@@???Q??'),
    ((2, 2, 11), 'Consistent', 679, 16, None, '[hCGGC@?G?_@eWR?Or@HGWo?QCA@_@__?GO?OA?@?O?A@??AB???Q??W?_??AG??'),
    ((2, 2, 12), 'Consistent', 7424, 18, None, '^hCGGC@?G?_@?@eXH`CK_HG@bA?c?A@_?oW?AC_C?O??P_??Q??O@??C?_??GK??_?_??OA???@C???'),
    ((2, 2, 13), 'BudgetExhausted', 10001, 0, None, None),
    ((2, 2, 14), 'BudgetExhausted', 10001, 0, None, None),
    ((2, 2, 15), 'BudgetExhausted', 10001, 0, None, None),
    ((2, 2, 16), 'BudgetExhausted', 10001, 0, None, None),
    ((2, 2, 17), 'BudgetExhausted', 10001, 0, None, None),
    ((2, 2, 18), 'BudgetExhausted', 10001, 0, None, None),
    ((2, 2, 19), 'BudgetExhausted', 10001, 0, None, None),
    ((2, 2, 20), 'BudgetExhausted', 10001, 0, None, None),
    ((2, 2, 21), 'BudgetExhausted', 10001, 0, None, None),
    ((2, 2, 22), 'BudgetExhausted', 10001, 0, None, None),
    ((2, 2, 23), 'BudgetExhausted', 10001, 0, None, None),
    ((3, 3, 3), 'Consistent', 0, 0, None, 'Ch'),
    ((3, 3, 4), 'Consistent', 2, 1, None, 'EhDG'),
    ((3, 3, 5), 'Consistent', 11, 3, None, 'HhCIS?D'),
    ((3, 3, 6), 'Consistent', 14, 2, None, 'HhCGIuA'),
    ((3, 3, 7), 'Consistent', 33, 4, None, 'KhCGGDY_`??H'),
    ((3, 3, 8), 'Consistent', 91, 6, None, 'NhCGGC@UcCCC?IA??CG'),
    ((3, 3, 9), 'Consistent', 212, 8, None, 'QhCGGC@?IsOQGGA??CG_??CC?P?'),
    ((3, 3, 10), 'Consistent', 278, 9, None, 'ShCGGC@?G?jO_cGI@??@@CA??O_G???OC'),
    ((2, 3, 3), 'Consistent', 0, 0, None, 'Ch'),
    ((2, 3, 4), 'Consistent', 1, 1, None, 'EhEG'),
    ((2, 3, 5), 'Consistent', 2, 1, None, 'FhCMW'),
    ((2, 3, 6), 'Consistent', 4, 2, None, 'HhCGMWa'),
    ((2, 3, 7), 'Consistent', 9, 3, None, 'JhCGGFKKsA?'),
    ((2, 3, 8), 'Consistent', 10, 3, None, 'KhCGGC@rHeOG'),
    ((2, 3, 9), 'Consistent', 14, 4, None, 'MhCGGC@?MXEW_OGC?'),
    ((2, 3, 10), 'Consistent', 26, 5, None, 'OhCGGC@?G?xcKo_QCb?_O'),
]


def test_refuter_outcomes_are_pinned():
    for (r, d, L), status, nodes, used, dead, model in PINNED:
        out = refute_path(r, d, L, 10_000)
        got = (out.status, out.nodes, out.witnesses_used, out.dead_obligation,
               to_graph6(out.model) if out.model is not None else None)
        assert got == (status, nodes, used, dead, model), (r, d, L)
        if out.model is not None:
            assert verify_model(out.model, r, d, L)[0], (r, d, L)
