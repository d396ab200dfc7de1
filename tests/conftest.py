"""Shared helpers for randomized cross-validation tests and for the golden
move texts, and the one `hypothesis` profile of the suite."""

import random

from hypothesis import settings

from pebcert import Move, build_dag

# Every property test draws the same examples on every run, keeps no example
# database on disk and has no per-example deadline; a test sets only its
# `max_examples`.
settings.register_profile("pebcert", derandomize=True, database=None, deadline=None)
settings.load_profile("pebcert")


def random_single_sink_dag(rng: random.Random, max_n: int = 6):
    """Small random DAG with a unique sink (last vertex reachable from all)."""
    n = rng.randint(2, max_n)
    names = [f"n{i}" for i in range(n)]
    edges = set()
    for j in range(1, n):
        for i in range(j):
            if rng.random() < 0.45:
                edges.add((names[i], names[j]))
    # funnel everything into the last vertex so the sink is unique
    for j in range(n - 1):
        if not any(a == names[j] for a, _ in edges):
            edges.add((names[j], names[rng.randint(j + 1, n - 1)]))
    dag = build_dag(names, sorted(edges), None)
    if len(dag.sinks) != 1:
        sink = dag.names[-1]
        for s in dag.sink_names:
            if s != sink:
                edges.add((s, sink))
        dag = build_dag(names, sorted(edges), sink)
    else:
        dag = build_dag(names, sorted(edges), dag.sink_names[0])
    return dag


def golden_moves(text):
    """The moves of a golden move text such as "+v1 +v2 -v1"."""
    return tuple(Move("place" if word[0] == "+" else "remove", word[1:]) for word in text.split())
