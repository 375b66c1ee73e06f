import random
from collections import Counter, deque

import pytest

from banded.errors import PreconditionError
from banded.twosat import Literal, _tarjan_scc, evaluate_clauses, solve_2sat


def lit(v, neg=False):
    """The node of x_v, or of ~x_v: 2 v + negated."""
    return 2 * v + neg


def enumeration_verdict(n_vars, clauses):
    """Exhaustive oracle over all assignments, packed into one big integer:
    bit m of a literal's mask says whether assignment m satisfies it."""
    full = (1 << (1 << n_vars)) - 1
    var_mask = []
    for v in range(n_vars):
        block = (1 << (1 << v)) - 1
        m = block << (1 << v)
        width = 1 << (v + 1)
        while width < (1 << n_vars):
            m |= m << width
            width *= 2
        var_mask.append(m)
    sat = full
    for cl in clauses:
        cm = 0
        for node in cl:
            v, negated = divmod(node, 2)
            cm |= (full ^ var_mask[v]) if negated else var_mask[v]
        sat &= cm
    return sat != 0


def test_forced_contradiction_unsat():
    res = solve_2sat(1, [(lit(0), lit(0)), (lit(0, True), lit(0, True))])
    assert not res.satisfiable
    assert res.witness_var == 0
    # witness chains start and end at the variable's two literals
    assert res.chain_pos_to_neg[0] == Literal(0) and res.chain_pos_to_neg[-1] == Literal(0, True)
    assert res.chain_neg_to_pos[0] == Literal(0, True) and res.chain_neg_to_pos[-1] == Literal(0)


def test_single_clause_satisfied():
    clauses = [(lit(0), lit(1))]
    res = solve_2sat(2, clauses)
    assert res.satisfiable
    assert evaluate_clauses(res.assignment, clauses)


def test_implication_chain_forces_all_true():
    # x0, x0 -> x1, x1 -> x2; the only model is (1, 1, 1)
    clauses = [
        (lit(0), lit(0)),
        (lit(0, True), lit(1)),
        (lit(1, True), lit(2)),
    ]
    res = solve_2sat(3, clauses)
    assert res.satisfiable
    assert res.assignment == (True, True, True)
    # derived independently: enumerate all 8 assignments
    models = [
        m
        for m in range(8)
        if evaluate_clauses(tuple(bool(m >> k & 1) for k in range(3)), clauses)
    ]
    assert models == [0b111]


def test_out_of_range_literal():
    # a node outside [0, 2 n_vars) is the caller's error, negative ones
    # included, which a list would otherwise read from its end
    for clause in ((lit(0), lit(1)), (lit(1, True), lit(0)), (-1, lit(0)), (lit(0), -2)):
        with pytest.raises(PreconditionError):
            solve_2sat(1, [clause])


def test_deterministic():
    rng = random.Random(3)
    clauses = [
        (lit(rng.randrange(6), rng.random() < 0.5), lit(rng.randrange(6), rng.random() < 0.5))
        for _ in range(15)
    ]
    first = solve_2sat(6, clauses)
    second = solve_2sat(6, clauses)
    assert first == second


def test_matches_enumeration_on_random_instances():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(1, 10)
        clauses = [
            (
                lit(rng.randrange(n), rng.random() < 0.5),
                lit(rng.randrange(n), rng.random() < 0.5),
            )
            for _ in range(rng.randint(0, 30))
        ]
        res = solve_2sat(n, clauses)
        assert res.satisfiable == enumeration_verdict(n, clauses)
        if res.satisfiable:
            assert evaluate_clauses(res.assignment, clauses)
        else:
            v = res.witness_var
            assert res.chain_pos_to_neg[0] == Literal(v)
            assert res.chain_pos_to_neg[-1] == Literal(v, True)
            # every step of both chains must be a real implication edge:
            # "a or b" gives ~a -> b and ~b -> a
            edges = set()
            for cl in clauses:
                a, b = (Literal(node // 2, bool(node % 2)) for node in cl)
                edges |= {(Literal(a.var, not a.negated), b), (Literal(b.var, not b.negated), a)}
            for chain in (res.chain_pos_to_neg, res.chain_neg_to_pos):
                for u, w in zip(chain, chain[1:]):
                    assert (u, w) in edges


def test_scc_ids_are_reachability_classes_in_reverse_topological_order():
    # the assignment rule comp[2v] < comp[2v + 1] rests on three facts:
    # components are the mutual-reachability classes, every edge between
    # two of them goes to a smaller id (id 0 is a sink), and the ids are
    # 0..k-1
    rng = random.Random(1972)
    seen = Counter()
    for _ in range(300):
        n = rng.randint(1, 40)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        edges += rng.sample(edges, len(edges) // 4)  # parallel edges
        rng.shuffle(edges)
        adj = [[] for _ in range(n)]
        for u, w in edges:
            adj[u].append(w)
        comp = _tarjan_scc(n, adj)

        reach = []
        for start in range(n):
            found, queue = {start}, deque([start])
            while queue:
                for w in adj[queue.popleft()]:
                    if w not in found:
                        found.add(w)
                        queue.append(w)
            reach.append(found)
        for u in range(n):
            assert {w for w in range(n) if comp[w] == comp[u]} == {w for w in reach[u] if u in reach[w]}
        assert all(comp[u] > comp[w] for u, w in edges if comp[u] != comp[w])
        assert sorted(set(comp)) == list(range(len(set(comp))))

        seen["self-loop"] += any(u == w for u, w in edges)
        seen["parallel"] += len(set(edges)) < len(edges)
        seen["cycle"] += len(set(comp)) < n
        seen["acyclic"] += len(set(comp)) == n and n > 1
    assert min(seen.values()) > 20, seen
