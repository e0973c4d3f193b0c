"""Registry audit: classify every graph on at most 7 vertices.

    PYTHONPATH=src python3 tests/classify_audit.py

Runs ``classify`` over every graph of ``networkx.graph_atlas_g()`` (1,252
graphs on 0..7 vertices; the empty graph is skipped) x 3 relations x 4
parameters x d in {1..6, inf}, in atlas order, and prints one line: the
query count, the ``Open`` count and the sha256 of every verdict's
``repr``, one per line.  A change that alters any verdict changes the
hash.  Not collected by pytest (no ``test_`` prefix).
"""

from __future__ import annotations

import hashlib
import math

import networkx as nx

from diamwidth.atlas import PARAMETERS, RELATIONS, classify
from diamwidth.graphs import graph_from_edges


def main() -> None:
    digest = hashlib.sha256()
    queries = opens = 0
    for h in nx.graph_atlas_g()[1:]:
        idx = {v: i for i, v in enumerate(h.nodes())}
        g = graph_from_edges(len(idx), [(idx[u], idx[v]) for u, v in h.edges()])
        for relation in RELATIONS:
            forbidden = [g] if relation == "minor" else g
            for parameter in PARAMETERS:
                for d in (1, 2, 3, 4, 5, 6, math.inf):
                    verdict = classify(forbidden, relation, parameter, d)
                    digest.update(repr(verdict).encode() + b"\n")
                    queries += 1
                    opens += verdict.answer == "Open"
    print(queries, opens, digest.hexdigest())


if __name__ == "__main__":
    main()
