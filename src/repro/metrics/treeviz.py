"""Overlay-tree rendering and export.

The paper presents its PlanetLab results partly as tree drawings
(Figs 5.5/5.6); this module provides the equivalents: an indented text
rendering for terminals, Graphviz DOT export for real drawings, and an
edge-list export for post-processing.
"""

from __future__ import annotations

from typing import Callable

from repro.protocols.tree import TreeRegistry

__all__ = ["render_tree_text", "tree_to_dot", "tree_edge_list"]

LabelFn = Callable[[int], str]


def _default_label(node: int) -> str:
    return str(node)


def render_tree_text(
    tree: TreeRegistry,
    *,
    label: LabelFn | None = None,
    annotate: Callable[[int, int], str] | None = None,
) -> str:
    """Indented text rendering rooted at the source.

    ``annotate(parent, child)`` may return extra per-edge text (e.g. the
    edge RTT).  Orphaned subtrees are listed separately so nothing is
    silently dropped.
    """
    label = label or _default_label
    lines: list[str] = []

    def walk(node: int, depth: int) -> None:
        prefix = "  " * depth
        text = prefix + label(node)
        parent = tree.parent.get(node)
        if parent is not None and annotate is not None:
            text += f"  {annotate(parent, node)}"
        lines.append(text)
        for child in sorted(tree.children.get(node, ())):
            walk(child, depth + 1)

    walk(tree.source, 0)
    orphan_roots = sorted(
        n for n in tree.members() if tree.is_orphan(n)
    )
    for root in orphan_roots:
        lines.append(f"(orphaned subtree at {label(root)}):")
        walk(root, 1)
    return "\n".join(lines)


def tree_to_dot(
    tree: TreeRegistry,
    *,
    label: LabelFn | None = None,
    graph_name: str = "overlay",
) -> str:
    """Graphviz DOT export of the current tree.

    The source is drawn as a doubled circle; orphaned subtrees keep
    their internal edges but have no inbound edge, which makes breakage
    visually obvious.
    """
    label = label or _default_label
    lines = [f"digraph {graph_name} {{", "  rankdir=TB;"]
    for node in sorted(tree.members()):
        shape = "doublecircle" if node == tree.source else "ellipse"
        lines.append(f'  n{node} [label="{label(node)}", shape={shape}];')
    for parent, child in sorted(tree.edges()):
        lines.append(f"  n{parent} -> n{child};")
    lines.append("}")
    return "\n".join(lines)


def tree_edge_list(tree: TreeRegistry) -> list[tuple[int, int]]:
    """Sorted (parent, child) pairs of all committed edges."""
    return sorted(tree.edges())
