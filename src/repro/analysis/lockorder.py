"""Static lock-order deadlock detection across the concurrency layers.

Builds the repo-wide *lock acquisition graph*: a node per static lock
identity, an edge ``A -> B`` whenever some function acquires ``B``
while (on the static over-approximation) still holding ``A`` — either
directly or through a resolved callee.  Two findings come out of it:

========  =============================================================
code      hazard
========  =============================================================
RPR301    cycle in the lock acquisition graph (ABBA deadlock shape),
          including re-acquiring the *same* named lock while held
RPR302    remote invocation (``invoke`` / ``migrate`` / ``whereis``)
          issued while holding a lock — the RPC can block on a peer
          that needs the lock, stretching the hold across the network
========  =============================================================

A **lock identity** is ``<table>[<key>]``: the attribute chain the
``.acquire(...)`` is called on (with ``self.``/``cls.`` stripped) plus
the literal key argument when there is one, or ``*`` for a dynamic key.
Edges between two *dynamic* acquisitions of the same table
(``locks[*] -> locks[*]``, the transaction-manager shape) are ignored:
key order is unknowable statically, and the runtime wait-for-graph
deadlock detector owns that case.  Releases (``grant.release()``,
``table.release(grant)``, leaving a ``with`` block) end the hold;
otherwise a hold conservatively spans the rest of the function.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, call_name
from repro.analysis.ir import FunctionInfo, RepoIndex
from repro.analysis.lint import Finding, node_span

#: Attribute names treated as remote (RPC-shaped) operations.
RPC_OPS = {"invoke", "migrate", "whereis", "call_remote", "rpc"}

RULE_META: Dict[str, Tuple[str, str, str]] = {
    "RPR301": ("lock-order cycle across the repo",
               "impose one global acquisition order (sort the keys, or "
               "acquire coarser locks first)", "error"),
    "RPR302": ("remote invocation while holding a lock",
               "release the lock before invoking, or move the remote "
               "call outside the critical section", "warning"),
}


class Acquire:
    """One static lock acquisition site."""

    __slots__ = ("lock", "node", "function", "names")

    def __init__(self, lock: str, node: ast.Call,
                 function: FunctionInfo, names: Set[str]) -> None:
        self.lock = lock
        self.node = node
        self.function = function
        #: Names the resulting grant/event is bound to (for release).
        self.names = names


class Edge:
    """``held -> acquired`` with the witness acquisition site."""

    __slots__ = ("held", "acquired", "held_site", "site")

    def __init__(self, held: str, acquired: str, held_site: Acquire,
                 site: Acquire) -> None:
        self.held = held
        self.acquired = acquired
        self.held_site = held_site
        self.site = site


def _lock_identity(node: ast.Call) -> Optional[str]:
    """``table[key]`` identity for an ``.acquire(...)`` call, if any."""
    if not (isinstance(node.func, ast.Attribute)
            and node.func.attr == "acquire"):
        return None
    dotted = call_name(node)
    if not dotted:
        return None  # computed receiver (e.g. tables()[key].acquire)
    base_parts = dotted.split(".")[:-1]
    while base_parts and base_parts[0] in ("self", "cls"):
        base_parts = base_parts[1:]
    if not base_parts:
        return None  # bare acquire() — not a table
    base = ".".join(base_parts)
    key = "*"
    if node.args:
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value,
                                                          str):
            key = first.value
    return "{}[{}]".format(base, key)


class LockOrderAnalysis:
    """Per-function scans folded into one repo-wide acquisition graph."""

    def __init__(self, index: RepoIndex, graph: CallGraph) -> None:
        self.index = index
        self.graph = graph
        self.edges: List[Edge] = []
        self.rpc_findings: List[Finding] = []
        self._acquires: Dict[str, List[Acquire]] = {}
        self._closure_memo: Dict[str, Set[str]] = {}
        for module in index.modules.values():
            for info in module.functions:
                self._acquires[info.qualname] = self._local_acquires(info)
        for module in index.modules.values():
            for info in module.functions:
                self._scan(info)

    # -- local collection --------------------------------------------------

    def _local_acquires(self, info: FunctionInfo) -> List[Acquire]:
        found: List[Acquire] = []
        for stmt, _depth in _walk_ordered(info.node):
            for node in _shallow_calls(stmt):
                lock = _lock_identity(node)
                if lock is not None:
                    found.append(Acquire(lock, node, info,
                                         _bound_names(stmt)))
        return found

    def closure(self, qualname: str) -> Set[str]:
        """Locks acquired by ``qualname`` or any transitive callee."""
        memo = self._closure_memo.get(qualname)
        if memo is not None:
            return memo
        self._closure_memo[qualname] = set()  # cycle guard
        locks = {acquire.lock
                 for acquire in self._acquires.get(qualname, ())}
        for callee in self.graph.callees(qualname):
            locks |= self.closure(callee.qualname)
        self._closure_memo[qualname] = locks
        return locks

    # -- the per-function hold scan ----------------------------------------

    def _scan(self, info: FunctionInfo) -> None:
        held: List[Acquire] = []

        def release_names(stmt: ast.stmt) -> None:
            for node in _shallow_calls(stmt):
                if not (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "release"):
                    continue
                base = call_name(node).rsplit(".", 1)[0]
                arg = node.args[0].id if node.args \
                    and isinstance(node.args[0], ast.Name) else None
                held[:] = [acquire for acquire in held
                           if base not in acquire.names
                           and arg not in acquire.names]

        def on_acquire(acquire: Acquire) -> None:
            for holding in held:
                self._edge(holding, acquire)
            held.append(acquire)

        def handle_calls(stmt: ast.stmt) -> List[Acquire]:
            scoped: List[Acquire] = []
            for node in _shallow_calls(stmt):
                lock = _lock_identity(node)
                if lock is not None:
                    acquire = Acquire(lock, node, info,
                                      _bound_names(stmt))
                    on_acquire(acquire)
                    if isinstance(stmt, ast.With):
                        scoped.append(acquire)
                    continue
                if not held:
                    continue
                dotted = call_name(node)
                attr = dotted.rsplit(".", 1)[-1] if dotted else ""
                if attr in RPC_OPS:
                    self._rpc(held[-1], info, node, dotted)
                site = self._site_for(info, node)
                if site is not None and site.callee is not None:
                    for lock_id in sorted(
                            self.closure(site.callee.qualname)):
                        for holding in list(held):
                            self._edge(holding, Acquire(
                                lock_id, node, info, set()))
            return scoped

        def scan_block(body: List[ast.stmt]) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                release_names(stmt)
                scoped = handle_calls(stmt)
                for field in ("body", "orelse", "finalbody"):
                    nested = getattr(stmt, field, None)
                    if nested:
                        scan_block(nested)
                for handler in getattr(stmt, "handlers", ()):
                    scan_block(handler.body)
                for acquire in scoped:
                    # A with-scoped claim releases at block exit.
                    if acquire in held:
                        held.remove(acquire)

        scan_block(list(info.node.body))

    def _site_for(self, info: FunctionInfo, node: ast.Call):
        for site in self.graph.calls_from.get(info.qualname, ()):
            if site.node is node:
                return site
        return None

    def _edge(self, holding: Acquire, acquired: Acquire) -> None:
        if holding.lock == acquired.lock and holding.lock.endswith("[*]"):
            return  # dynamic keys: the runtime wait-for graph owns this
        self.edges.append(Edge(holding.lock, acquired.lock, holding,
                               acquired))

    def _rpc(self, holding: Acquire, info: FunctionInfo, node: ast.Call,
             dotted: str) -> None:
        summary, hint, severity = RULE_META["RPR302"]
        start, end = node_span(node)
        self.rpc_findings.append(Finding(
            info.path, node.lineno, node.col_offset + 1, "RPR302",
            "{}() issued while holding {} (acquired at line {})".format(
                dotted, holding.lock, holding.node.lineno),
            hint, severity=severity, end_line=end, suppress_from=start,
            chain=[
                {"path": info.path, "line": node.lineno,
                 "note": "remote call " + dotted + "()"},
                {"path": holding.function.path,
                 "line": holding.node.lineno,
                 "note": "holding " + holding.lock},
            ], function=info.qualname))

    # -- cycle reporting ---------------------------------------------------

    def findings(self) -> List[Finding]:
        results = list(self.rpc_findings)
        adjacency: Dict[str, Dict[str, Edge]] = {}
        for edge in self.edges:
            adjacency.setdefault(edge.held, {}).setdefault(
                edge.acquired, edge)
        for cycle in _cycles(adjacency):
            witness = adjacency[cycle[0]][cycle[1]]
            info = witness.site.function
            summary, hint, severity = RULE_META["RPR301"]
            start, end = node_span(witness.site.node)
            chain = []
            for held, acquired in zip(cycle, cycle[1:]):
                edge = adjacency[held][acquired]
                chain.append({
                    "path": edge.site.function.path,
                    "line": edge.site.node.lineno,
                    "note": "{} acquired while holding {} (in {}())".format(
                        edge.acquired, edge.held,
                        edge.site.function.name),
                })
            results.append(Finding(
                info.path, witness.site.node.lineno,
                witness.site.node.col_offset + 1, "RPR301",
                "lock-order cycle: " + " -> ".join(cycle),
                hint, severity=severity, end_line=end,
                suppress_from=start, chain=chain,
                function=info.qualname))
        return results


def _cycles(adjacency: Dict[str, Dict[str, Edge]]) -> List[List[str]]:
    """One representative cycle per distinct cyclic structure.

    Self-edges report as ``[A, A]``; longer cycles are found by BFS
    from each node back to itself and deduplicated by their canonical
    rotation (so ``A->B->A`` and ``B->A->B`` report once).
    """
    seen: Set[Tuple[str, ...]] = set()
    cycles: List[List[str]] = []
    for start in sorted(adjacency):
        if start in adjacency.get(start, {}):
            key = (start,)
            if key not in seen:
                seen.add(key)
                cycles.append([start, start])
            continue
        path = _shortest_cycle(adjacency, start)
        if path is None:
            continue
        nodes = path[:-1]
        pivot = nodes.index(min(nodes))
        key = tuple(nodes[pivot:] + nodes[:pivot])
        if key not in seen:
            seen.add(key)
            cycles.append(path)
    return cycles


def _shortest_cycle(adjacency: Dict[str, Dict[str, Edge]],
                    start: str) -> Optional[List[str]]:
    frontier: List[List[str]] = [[start]]
    visited: Set[str] = {start}
    while frontier:
        next_frontier: List[List[str]] = []
        for path in frontier:
            for target in sorted(adjacency.get(path[-1], {})):
                if target == start and len(path) > 1:
                    return path + [target]
                if target not in visited:
                    visited.add(target)
                    next_frontier.append(path + [target])
        frontier = next_frontier
    return None


# -- ordered statement walking ---------------------------------------------

def _walk_ordered(func_node: ast.AST) -> Iterator[Tuple[ast.stmt, int]]:
    """Own-body statements in source order, with nesting depth."""
    def walk(body: List[ast.stmt], depth: int):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield stmt, depth
            for field in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field, None)
                if nested:
                    yield from walk(nested, depth + 1)
            for handler in getattr(stmt, "handlers", ()):
                yield from walk(handler.body, depth + 1)
    yield from walk(list(func_node.body), 0)


def _shallow_calls(stmt: ast.stmt) -> Iterator[ast.Call]:
    """Call nodes in a statement's own expressions (not nested blocks)."""
    skip: Set[int] = set()
    subtrees: List[ast.AST] = []
    for field in ("body", "orelse", "finalbody", "handlers"):
        value = getattr(stmt, field, None)
        if value:
            subtrees.extend(value)
    for node in ast.walk(stmt):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)) and node is not stmt:
            subtrees.append(node)
    for subtree in subtrees:
        for node in ast.walk(subtree):
            skip.add(id(node))
    for node in ast.walk(stmt):
        # repro: allow-RPR004 (identity membership, not ordering)
        if id(node) not in skip and isinstance(node, ast.Call):
            yield node


def _bound_names(stmt: ast.stmt) -> Set[str]:
    """Simple names the statement binds (assignment / with-as)."""
    names: Set[str] = set()
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    elif isinstance(stmt, ast.With):
        for item in stmt.items:
            if isinstance(item.optional_vars, ast.Name):
                names.add(item.optional_vars.id)
    return names


def analyse(index: RepoIndex, graph: CallGraph) -> List[Finding]:
    """Run the lock-order pass and return its findings."""
    return LockOrderAnalysis(index, graph).findings()
