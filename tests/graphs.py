"""Walks over a recorded graph, for the tests that check what it holds.

A graph is its ``tensor.Node``s: each holds its op, backward closure and
parents (nodes, leaf tensors that take gradients, or None), and no values.
What a graph keeps alive is what its closures capture.
"""

from __future__ import annotations

import weakref

import numpy as np

from emoconv import tensor as T


def nodes(*roots) -> list[T.Node]:
    """Every node reachable from ``roots`` (tensors or nodes) through parent
    edges, each once."""
    stack = [r.node if isinstance(r, T.Tensor) else r for r in roots]
    seen, out = set(), []
    while stack:
        node = stack.pop()
        if isinstance(node, T.Node) and id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(node.parents)
    return out


def captured(fn, seen: set | None = None) -> list:
    """What a function holds in its closure cells and default arguments:
    each object there, each item of a list or tuple there, and what a
    function held there holds in turn."""
    seen = set() if seen is None else seen
    if id(fn) in seen:
        return []
    seen.add(id(fn))
    out = []
    held = [c.cell_contents for c in fn.__closure__ or ()] + list(fn.__defaults__ or ())
    for value in held:
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if hasattr(item, "__code__"):
                out += captured(item, seen)
            else:
                out.append(item)
    return out


def _base(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def held_arrays(*roots) -> list[np.ndarray]:
    """The buffers the graph under ``roots`` keeps alive: the underlying
    array of every ndarray its backward closures reach (``captured``), each
    once.  Parameters (the leaves a node lists) belong to the model."""
    graph = nodes(*roots)
    params = {id(_base(p.values)) for n in graph for p in n.parents if isinstance(p, T.Tensor)}
    held, seen = {}, set()
    for node in graph:
        for item in captured(node.backward_fn, seen):
            if isinstance(item, np.ndarray) and id(_base(item)) not in params:
                held[id(_base(item))] = _base(item)
    return list(held.values())


def held_bytes(*roots) -> int:
    return sum(a.nbytes for a in held_arrays(*roots))


def held_tensors(*roots) -> list[T.Tensor]:
    """Every Tensor that a backward closure under ``roots`` holds."""
    seen = set()
    return [item for node in nodes(*roots) for item in captured(node.backward_fn, seen)
            if isinstance(item, T.Tensor)]


def watch(*roots) -> list[weakref.ref]:
    """Weak references to the buffers the graph under ``roots`` keeps alive
    (``held_arrays``); only the graph holds those."""
    return [weakref.ref(a) for a in held_arrays(*roots)]
