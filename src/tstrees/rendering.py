"""Plain-text tree rendering and per-class theory extraction.

The layout is the indented two-branch style: the satisfying branch prints the
modality in angle brackets (``<L>``, ``<InvA>``, ``<=>`` for eq), the
non-satisfying branch prints it in square brackets with the comparator
flipped (``[L]``, ``[InvA]``, ``[=]``).  Leaves append the class name and the
instance count, with the error count after a slash when non-zero.  The alpha
annotation appears only when it differs from the run's default alpha, and the
derivative-degree annotation only when the degree is not 0, which keeps
fixed-alpha, degree-0 runs free of clutter.
"""

from __future__ import annotations

from typing import Sequence

from .core import (
    Comparator,
    DecisionTree,
    IntervalRelation,
    Leaf,
    Node,
    TemporalDecision,
)

_FLIPPED = {Comparator.LE: ">", Comparator.GT: "<=", Comparator.EQ: "!="}


def relation_token(relation: IntervalRelation, satisfied: bool) -> str:
    if satisfied:
        return f"<{relation.value}>"
    return f"[{relation.value}]"


def format_value(value: float) -> str:
    """Shortest representation that parses back to the same float."""
    return repr(float(value))


def _annotations(decision: TemporalDecision, default_alpha: float) -> str:
    parts = []
    if decision.alpha != default_alpha:
        parts.append(f"@alpha={format_value(decision.alpha)}")
    if decision.derivative_degree != 0:
        parts.append(f"@z={decision.derivative_degree}")
    if decision.eq_tolerance != 0.0:
        parts.append(f"@tol={format_value(decision.eq_tolerance)}")
    return (" " + " ".join(parts)) if parts else ""


def decision_condition(
    decision: TemporalDecision,
    attribute_names: Sequence[str],
    satisfied: bool,
    default_alpha: float = 1.0,
) -> str:
    """The ``attr cmp value`` part of a branch label, comparator flipped on
    the non-satisfying side."""
    attr = attribute_names[decision.attribute_index]
    cmp_text = decision.comparator.value if satisfied else _FLIPPED[decision.comparator]
    return (
        f"{attr} {cmp_text} {format_value(decision.threshold)}"
        f"{_annotations(decision, default_alpha)}"
    )


def _leaf_suffix(leaf: Leaf, class_names: Sequence[str]) -> str:
    count = f"{float(leaf.total):.1f}"
    if leaf.errors > 0:
        count = f"{count}/{float(leaf.errors):.1f}"
    return f": {class_names[leaf.class_index]} ({count})"


def render_tree(
    tree: DecisionTree,
    attribute_names: Sequence[str],
    class_names: Sequence[str],
    default_alpha: float = 1.0,
) -> str:
    """Render a tree in the indented two-branch text layout."""
    lines: list[str] = []

    def branch_line(node: Node, depth: int, satisfied: bool, child: DecisionTree) -> None:
        prefix = "|   " * depth
        label = relation_token(node.decision.relation, satisfied) + " " + decision_condition(
            node.decision, attribute_names, satisfied, default_alpha
        )
        if isinstance(child, Leaf):
            lines.append(prefix + label + _leaf_suffix(child, class_names))
        else:
            lines.append(prefix + label)
            walk(child, depth + 1)

    def walk(node: DecisionTree, depth: int) -> None:
        assert isinstance(node, Node)
        branch_line(node, depth, True, node.left)
        branch_line(node, depth, False, node.right)

    if isinstance(tree, Leaf):
        return _leaf_suffix(tree, class_names) + "\n"
    walk(tree, 0)
    return "\n".join(lines) + "\n"


def _theory_term(
    decision: TemporalDecision,
    attribute_names: Sequence[str],
    satisfied: bool,
    default_alpha: float,
) -> str:
    body = "(" + decision_condition(decision, attribute_names, satisfied, default_alpha) + ")"
    if decision.relation is IntervalRelation.EQ:
        return body
    return relation_token(decision.relation, satisfied) + body


def extract_class_theory(
    tree: DecisionTree,
    class_index: int,
    attribute_names: Sequence[str],
    default_alpha: float = 1.0,
) -> list[str]:
    """One conjunctive formula per root-to-leaf path ending in the class.

    Satisfying edges contribute the existential modality, non-satisfying ones
    the universal modality over the negated condition (printed with the
    flipped comparator); eq edges print without a modality.  A bare leaf of
    the class yields the constant ``true``.  Classes absent from every leaf
    yield an empty list.  Each path prints as a flat conjunction, but a term
    below a satisfied modal edge holds at that edge's witness, not at [0, 1],
    so a formula read from [0, 1] is not the classifier (the planted Rise
    formula of ``tests/test_golden_outputs.py`` holds on all 12 Rise and all
    12 Fall series).  A ``[X]`` term's flipped comparator at the same alpha
    is a convention: at alpha 1, "not every point <= t" is "some point > t".
    """
    formulas: list[str] = []

    def walk(node: DecisionTree, terms: list[str]) -> None:
        if isinstance(node, Leaf):
            if node.class_index == class_index:
                formulas.append(" & ".join(terms) if terms else "true")
            return
        for child, satisfied in ((node.left, True), (node.right, False)):
            term = _theory_term(node.decision, attribute_names, satisfied, default_alpha)
            walk(child, terms + [term])

    walk(tree, [])
    return formulas
