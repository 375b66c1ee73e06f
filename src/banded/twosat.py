"""Self-contained 2-SAT solver (implication graph + strongly connected components).

A literal is a node of the implication graph: variable v is node 2v and its
negation node 2v + 1, so node ^ 1 is a node's negation.  A clause is a pair of
nodes (u, w) meaning "u or w", which gives the two edges ~u -> w and ~w -> u.
The solver is linear in the number of clauses, deterministic, and on
unsatisfiable input reports a witness variable together with the two
implication chains x => ~x and ~x => x, as `Literal`s.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import InternalConsistencyError, PreconditionError


@dataclass(frozen=True, slots=True)
class Literal:
    var: int
    negated: bool = False

    def __str__(self):
        return f"~x{self.var}" if self.negated else f"x{self.var}"


@dataclass(frozen=True)
class TwoSatResult:
    satisfiable: bool
    assignment: tuple[bool, ...] | None = None
    witness_var: int | None = None
    chain_pos_to_neg: tuple[Literal, ...] | None = None
    chain_neg_to_pos: tuple[Literal, ...] | None = None


def evaluate_clauses(assignment, clauses) -> bool:
    """Independent clause evaluator; used to double-check solver output."""
    return all(assignment[u >> 1] ^ (u & 1) or assignment[w >> 1] ^ (w & 1) for u, w in clauses)


def _tarjan_scc(n_nodes: int, adj) -> list[int]:
    """Component ids in completion order: id 0 is a sink of the condensation,
    so smaller id means later in its topological order.

    `work` is the depth-first path, each node with an iterator over its
    edges not yet walked.  A node is on `stack` from its discovery until
    its component is assigned, so it is on the stack iff it has an index
    and no component yet."""
    index = [-1] * n_nodes
    low = [0] * n_nodes
    comp = [-1] * n_nodes
    stack: list[int] = []
    counter = itertools.count()
    n_comps = 0
    for root in range(n_nodes):
        if index[root] != -1:
            continue
        index[root] = low[root] = next(counter)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] == -1:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                if comp[w] == -1 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return comp


def _node_literal(node: int) -> Literal:
    return Literal(node // 2, bool(node % 2))


def _implication_path(adj, start: int, goal: int) -> tuple[Literal, ...]:
    prev = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        if v == goal:
            path = []
            while v is not None:
                path.append(_node_literal(v))
                v = prev[v]
            return tuple(reversed(path))
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    raise InternalConsistencyError("implication path must exist inside one SCC")


def solve_2sat(n_vars: int, clauses) -> TwoSatResult:
    """Solve the conjunction of clauses over n_vars variables.

    Each clause is a pair of nodes (u, w), meaning "u or w", where the node
    of variable v is 2v and that of its negation 2v + 1 (so node ^ 1 negates);
    it adds the implication edges ~u -> w and ~w -> u.  A node outside
    [0, 2 n_vars) raises `PreconditionError`.

    Returns a satisfying assignment (deterministic: a variable is set true iff
    its positive literal's component sits later in the condensation's
    topological order than its negation's) or an UNSAT witness.
    """
    n_nodes = 2 * n_vars
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for u, w in clauses:
        if not (0 <= u < n_nodes and 0 <= w < n_nodes):
            raise PreconditionError(f"clause ({u}, {w}) names a node outside [0, {n_nodes})")
        adj[u ^ 1].append(w)
        adj[w ^ 1].append(u)

    comp = _tarjan_scc(n_nodes, adj)
    for v in range(n_vars):
        if comp[2 * v] == comp[2 * v + 1]:
            return TwoSatResult(
                satisfiable=False,
                witness_var=v,
                chain_pos_to_neg=_implication_path(adj, 2 * v, 2 * v + 1),
                chain_neg_to_pos=_implication_path(adj, 2 * v + 1, 2 * v),
            )
    assignment = tuple(comp[2 * v] < comp[2 * v + 1] for v in range(n_vars))
    if not evaluate_clauses(assignment, clauses):  # pragma: no cover - safety net
        raise InternalConsistencyError("2-SAT produced a non-satisfying assignment")
    return TwoSatResult(satisfiable=True, assignment=assignment)
