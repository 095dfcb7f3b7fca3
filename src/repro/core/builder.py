"""Building and rendering edge-labeled graphs from self-describing data.

The paper's motivation for semistructured data is that "the information that
is normally associated with a schema is contained within the data" -- data
like nested dictionaries, the Web, or biological flat files.  This module is
the ingestion/egress layer:

* :func:`from_obj` turns nested Python dicts/lists/scalars (i.e. JSON-shaped
  self-describing data) into the edge-labeled model of section 2.
* :func:`to_obj` is the best-effort inverse for acyclic data.
* :func:`render` pretty-prints a graph the way Figure 1 of the paper draws
  one, with explicit back-references for cycles.

Encoding conventions (these mirror the examples in the paper and in
Buneman–Davidson–Hillebrand–Suciu, SIGMOD '96):

* a dict ``{k: v}`` becomes a node with one *symbol*-labeled edge per key;
* a list ``[v1, v2]`` becomes integer-labeled edges ``1, 2, ...`` ("arrays
  may be represented by labeling internal edges with integers");
* a scalar ``c`` becomes the singleton tree ``{c: {}}`` -- a base-data
  labeled edge to an empty leaf;
* ``None`` becomes the empty tree ``{}``.
"""

from __future__ import annotations

from typing import Any, Iterator

from .graph import Graph
from .labels import Label, label_of, sym

__all__ = ["from_obj", "to_obj", "tree", "render", "BuildError", "DepthLimitError"]


class BuildError(ValueError):
    """Raised when a Python object cannot be (de)constructed as a graph."""


class DepthLimitError(BuildError, RecursionError):
    """A recursive decode exceeded its documented depth limit.

    Raised instead of a bare :class:`RecursionError` by operations that
    must walk nesting levels one Python frame at a time (currently
    :func:`to_obj`, whose output is itself nested to the data's depth).
    Ingestion (:func:`from_obj`) is iterative and has no depth limit.
    """

    def __init__(self, operation: str, limit: int) -> None:
        super().__init__(
            f"{operation}: data nests deeper than the {limit}-level limit"
        )
        self.operation = operation
        self.limit = limit


def from_obj(obj: Any) -> Graph:
    """Encode a JSON-shaped Python object as an edge-labeled graph.

    Iterative over nesting depth: a 50,000-level-deep chain ingests fine
    (the robustness suite checks), because production data does arrive
    that deep and :class:`RecursionError` is not an answer.

    >>> g = from_obj({"Movie": {"Title": "Casablanca"}})
    >>> sorted(str(e.label) for e in g.edges_from(g.root))
    ['`Movie`']
    """
    g = Graph()
    root = g.new_node()
    # explicit stack of (node, pending (label, child) pairs) replacing the
    # natural recursion; edge/node creation order matches the recursive
    # formulation, so output graphs are identical
    stack: list[tuple[int, Iterator[tuple[Label, Any]]]] = [(root, _children(obj))]
    while stack:
        node, pending = stack[-1]
        for label, child in pending:
            dst = g.new_node()
            g.add_edge(node, label, dst)
            stack.append((dst, _children(child)))
            break
        else:
            stack.pop()
    g.set_root(root)
    return g


def _children(obj: Any) -> Iterator[tuple[Label, Any]]:
    """The (label, child object) pairs one object contributes to its node."""
    if obj is None:
        return
    if isinstance(obj, dict):
        for key, value in obj.items():
            if not isinstance(key, (str, int, float, bool)):
                raise BuildError(f"cannot use {type(key).__name__} as an edge label")
            label = sym(key) if isinstance(key, str) else label_of(key)
            # a Label is a tuple, not a collection: it is refused below
            many = isinstance(value, (list, tuple)) and not isinstance(value, Label)
            if many and isinstance(key, str):
                # {"Cast": ["Bogart", "Bacall"]} means *several* Cast edges:
                # the set semantics of the model, not an array.
                for item in value:
                    yield label, item
            else:
                yield label, value
        return
    if isinstance(obj, (list, tuple)) and not isinstance(obj, Label):
        for i, item in enumerate(obj, start=1):
            yield label_of(i), item
        return
    if isinstance(obj, (str, int, float, bool)):
        yield label_of(obj), None
        return
    raise BuildError(f"cannot encode {type(obj).__name__} value {obj!r}")


#: Readable alias used throughout the examples: ``tree({...})``.
tree = from_obj


def to_obj(graph: Graph, node: int | None = None, max_depth: int = 1000) -> Any:
    """Decode a tree-shaped graph back into nested Python data.

    Inverse of :func:`from_obj` on its image; on other acyclic graphs it
    produces a faithful nested rendering where repeated symbols collapse to
    lists.  Cyclic data cannot be a finite nested object and raises
    :class:`BuildError` (cycles are precisely what section 2 adds over
    nested values).

    The output is nested Python data, so decoding necessarily recurses to
    the data's depth; rather than letting a deep chain die with an
    arbitrary :class:`RecursionError` mid-walk, depths beyond
    ``max_depth`` raise the documented :class:`DepthLimitError` (data
    that deep is better kept in graph form anyway).  The interpreter's
    recursion limit is raised for the duration when ``max_depth`` needs
    the headroom, so every depth up to the documented limit actually
    decodes.
    """
    import sys

    start = graph.root if node is None else node
    frames = 0
    frame = sys._getframe()
    while frame is not None:
        frames += 1
        frame = frame.f_back
    # at most 2 interpreter frames per nesting level (call + comprehension)
    needed = frames + 2 * max_depth + 100
    previous = sys.getrecursionlimit()
    if needed > previous:
        sys.setrecursionlimit(needed)
    try:
        return _decode(graph, start, on_path=set(), depth=max_depth)
    finally:
        if needed > previous:
            sys.setrecursionlimit(previous)


def _decode(graph: Graph, node: int, on_path: set[int], depth: int) -> Any:
    if depth <= 0:
        # len(on_path) is exactly how many levels were walked: the limit
        raise DepthLimitError("to_obj", len(on_path))
    if node in on_path:
        raise BuildError("graph is cyclic: no finite nested representation")
    edges = graph.edges_from(node)
    if not edges:
        return None
    on_path = on_path | {node}
    # A single base-labeled edge to an empty leaf is a scalar.
    if (
        len(edges) == 1
        and edges[0].label.is_base
        and graph.out_degree(edges[0].dst) == 0
    ):
        return edges[0].label.value
    # Integer labels 1..n with no symbols: a list.
    labels = [e.label for e in edges]
    if all(lab.is_int for lab in labels):
        indexed = sorted(edges, key=lambda e: e.label.value)
        return [_decode(graph, e.dst, on_path, depth - 1) for e in indexed]
    # Otherwise: a dict keyed by label value; repeated keys collapse to lists.
    out: dict[Any, Any] = {}
    seen_multi: set[Any] = set()
    for edge in edges:
        key = edge.label.value
        value = _decode(graph, edge.dst, on_path, depth - 1)
        if key in out:
            if key not in seen_multi:
                out[key] = [out[key]]
                seen_multi.add(key)
            out[key].append(value)
        else:
            out[key] = value
    return out


def render(graph: Graph, max_depth: int = 12) -> str:
    """Pretty-print a graph as an indented tree, Figure-1 style.

    Shared nodes and cycles are shown once and referenced afterwards as
    ``*see (n)``; this is how the tutorial's slides draw the `References` /
    `Is referenced in` cycle of the movie database.
    """
    lines: list[str] = []
    visited: dict[int, int] = {}

    def walk(node: int, prefix: str, depth: int) -> None:
        if depth > max_depth:
            lines.append(prefix + "...")
            return
        for edge in graph.edges_from(node):
            text = str(edge.label.value) if edge.label.is_symbol else repr(edge.label.value)
            if edge.dst in visited:
                lines.append(f"{prefix}{text} -> *see ({visited[edge.dst]})")
                continue
            if graph.out_degree(edge.dst) == 0:
                lines.append(f"{prefix}{text}")
                continue
            visited[edge.dst] = len(lines)
            lines.append(f"{prefix}{text}  ({len(lines)})")
            walk(edge.dst, prefix + "  ", depth + 1)

    visited[graph.root] = 0
    lines.append("(root)  (0)")
    walk(graph.root, "  ", 1)
    return "\n".join(lines)
