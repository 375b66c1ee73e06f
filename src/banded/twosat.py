"""Self-contained 2-SAT solver (implication graph + strongly connected components).

Clauses are disjunctions of exactly two literals.  The solver is linear in the
number of clauses, deterministic, and on unsatisfiable input reports a witness
variable together with the two implication chains x => ~x and ~x => x.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Literal:
    var: int
    negated: bool = False

    def __invert__(self) -> "Literal":
        return Literal(self.var, not self.negated)

    def __str__(self):
        return f"~x{self.var}" if self.negated else f"x{self.var}"


@dataclass(frozen=True, slots=True)
class Clause2:
    first: Literal
    second: Literal

    def __str__(self):
        return f"({self.first} | {self.second})"


@dataclass(frozen=True)
class TwoSatResult:
    satisfiable: bool
    assignment: tuple[bool, ...] | None = None
    witness_var: int | None = None
    chain_pos_to_neg: tuple[Literal, ...] | None = None
    chain_neg_to_pos: tuple[Literal, ...] | None = None


def evaluate_clauses(assignment, clauses) -> bool:
    """Independent clause evaluator; used to double-check solver output."""
    for cl in clauses:
        v1 = assignment[cl.first.var] ^ cl.first.negated
        v2 = assignment[cl.second.var] ^ cl.second.negated
        if not (v1 or v2):
            return False
    return True


def _tarjan_scc(n_nodes: int, adj) -> list[int]:
    """Component ids in completion order: id 0 is a sink of the condensation,
    so smaller id means later in its topological order."""
    index = [-1] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    comp = [-1] * n_nodes
    stack: list[int] = []
    counter = 0
    n_comps = 0
    for root in range(n_nodes):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            edges = adj[v]
            while ei < len(edges):
                w = edges[ei]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
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
    raise AssertionError("implication path must exist inside one SCC")


def solve_2sat(n_vars: int, clauses) -> TwoSatResult:
    """Solve the conjunction of two-literal clauses over n_vars variables.

    Returns a satisfying assignment (deterministic: a variable is set true iff
    its positive literal's component sits later in the condensation's
    topological order than its negation's) or an UNSAT witness.
    """
    for cl in clauses:
        for lit in (cl.first, cl.second):
            if not 0 <= lit.var < n_vars:
                raise IndexError(f"literal variable {lit.var} out of range [0, {n_vars})")
    n_nodes = 2 * n_vars
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    # a literal's node is 2 var + negated, so its negation's is node ^ 1
    for cl in clauses:
        a, b = cl.first, cl.second
        na, nb = 2 * a.var + a.negated, 2 * b.var + b.negated
        adj[na ^ 1].append(nb)
        adj[nb ^ 1].append(na)

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
        raise AssertionError("2-SAT produced a non-satisfying assignment")
    return TwoSatResult(satisfiable=True, assignment=assignment)
