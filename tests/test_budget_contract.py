"""The budget contract of every budgeted decision search: its witness,
ABSENT only after an exhaustive search, or BUDGET; a run-out budget never
becomes a verdict.  A search given a caller's Budget spends from it and
raises BudgetExhausted; one given a limit returns BUDGET."""

import importlib
import inspect
import pkgutil
import random

import pytest

import diamwidth
from diamwidth.containment import (
    has_induced_subgraph,
    has_minor,
    has_subgraph,
)
from diamwidth.cycles import (
    cycle_packing,
    cycles_through_edge,
    cycles_through_vertex,
    find_cycle_subgraph,
    vtype_or_etype_free,
)
from diamwidth.families import (
    complete_graph,
    cycle_bouquet,
    cycle_graph,
    path_graph,
    wall,
)
from diamwidth.graphs import BUDGET, Budget, BudgetExhausted, graph_from_edges
from diamwidth.paths import find_induced_path
from diamwidth.refuter import refute_path


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return graph_from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


# Every public budgeted decision search, as budget -> result, on an instance
# that needs more than one search node (has_minor twice: its cycle rule
# and its branch-set search).  The cycle_packing instance runs
# out inside the combination search below 74 nodes (its anchored
# enumerations fit), so the sweep below reaches that search's cut too.
SEARCHES = {
    "has_subgraph": lambda b: has_subgraph(random_graph(12, 0.5, 1), complete_graph(4), b),
    "has_induced_subgraph": lambda b: has_induced_subgraph(wall(2), path_graph(5), b),
    "has_minor": lambda b: has_minor(wall(2), cycle_graph(6), b),
    # K4 is neither a cycle nor a linear forest: the branch-set search,
    # whose model here grows every branch set by a connector
    "has_minor (branch sets)": lambda b: has_minor(random_graph(8, 0.4, 1), complete_graph(4), b),
    "find_induced_path": lambda b: find_induced_path(path_graph(6), 6, b),
    "find_cycle_subgraph": lambda b: find_cycle_subgraph(cycle_graph(8), 8, b),
    "cycles_through_vertex": lambda b: cycles_through_vertex(complete_graph(5), 0, 4, 0, None, b),
    "cycles_through_edge": lambda b: cycles_through_edge(wall(2), 0, 1, 6, 0, None, b),
    "cycle_packing": lambda b: cycle_packing(
        random_graph(11, 0.6, 3), ("edge", 0, 2), {4: 4}, b
    ),
    "vtype_or_etype_free": lambda b: vtype_or_etype_free(
        cycle_bouquet([5, 5], "vertex"), [5, 5], "vertex", b
    ),
}

# Budgeted functions that are not decision searches: classify answers Open,
# refute_path BudgetExhausted, run_experiment a "budget" cell.
EXEMPT = {"classify", "refute_path", "run_experiment"}


def test_every_budgeted_search_is_swept():
    missing = []
    for info in pkgutil.iter_modules(diamwidth.__path__):
        module = importlib.import_module(f"diamwidth.{info.name}")
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and "budget" in inspect.signature(fn).parameters
                and name not in SEARCHES
                and name not in EXEMPT
            ):
                missing.append(f"{module.__name__}.{name}")
    assert not missing


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_budget_one_is_budget_and_any_budget_is_budget_or_the_answer(name):
    search = SEARCHES[name]
    assert search(1) is BUDGET
    full = search(None)
    assert full is not BUDGET
    decided = False
    for budget in range(80):
        res = search(budget)
        assert res is BUDGET or res == full, (budget, res)
        decided = decided or res is not BUDGET
    assert decided


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_the_nodes_spent_are_the_exact_threshold(name):
    # N = the nodes an unbudgeted run spends: N - 1 runs out, N decides
    search = SEARCHES[name]
    spent = Budget(None)
    full = search(spent)
    n = spent.spent
    assert n > 1 and full == search(None)
    assert search(n - 1) is BUDGET
    with pytest.raises(BudgetExhausted):
        search(Budget(n - 1))
    assert search(n) == full
    assert search(Budget(n)) == full


def test_refuter_nodes_are_the_exact_threshold():
    full = refute_path(2, 2, 8, budget=None)
    n = full.nodes
    assert (full.status, n) == ("Consistent", 50)
    short = refute_path(2, 2, 8, budget=n - 1)
    assert (short.status, short.nodes) == ("BudgetExhausted", n)
    assert refute_path(2, 2, 8, budget=n) == full


def test_refuter_budget_one_is_budget_exhausted():
    out = refute_path(2, 2, 8, budget=1)
    assert (out.status, out.nodes, out.witnesses_used) == ("BudgetExhausted", 2, 0)
