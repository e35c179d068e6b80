import re

from tstrees.core import (
    Comparator,
    IntervalRelation,
    Leaf,
    Node,
    TemporalDecision,
    iter_nodes,
)
from tstrees.rendering import extract_class_theory, render_tree

import fixture_tree

Rel = IntervalRelation


def _node(rel, attr, cmp_, thr, left, right, alpha=1.0, z=0):
    return Node(
        TemporalDecision(rel, attr, z, cmp_, thr, alpha),
        left,
        right,
    )


def test_render_single_leaf():
    text = render_tree(Leaf(0, (7,)), ["a0"], ["Yes"])
    assert text == ": Yes (7.0)\n"


def test_render_depth_one():
    tree = _node(
        Rel.L, 5, Comparator.LE, -2.756591, Leaf(0, (3, 0)), Leaf(1, (0, 2))
    )
    text = render_tree(tree, ["var0", "var1", "var2", "var3", "var4", "var5"], ["P", "Q"])
    lines = text.splitlines()
    assert lines[0] == "<L> var5 <= -2.756591: P (3.0)"
    assert lines[1] == "[L] var5 > -2.756591: Q (2.0)"


def test_render_inverse_and_eq_tokens():
    tree = _node(
        Rel.AI,
        0,
        Comparator.LE,
        0.5,
        _node(Rel.EQ, 0, Comparator.GT, -1.0, Leaf(0, (2, 0)), Leaf(1, (0, 2))),
        Leaf(1, (0, 3)),
    )
    text = render_tree(tree, ["v"], ["A", "B"])
    assert "<InvA> v <= 0.5" in text
    assert "[InvA] v > 0.5: B (3.0)" in text
    assert "|   <=> v > -1.0: A (2.0)" in text
    assert "|   [=] v <= -1.0: B (2.0)" in text


def test_render_error_counts():
    tree = _node(Rel.B, 0, Comparator.LE, 1.0, Leaf(0, (5, 2)), Leaf(1, (0, 4)))
    text = render_tree(tree, ["v"], ["X", "Y"])
    assert ": X (7.0/2.0)" in text
    assert ": Y (4.0)" in text


def test_render_annotations_only_when_non_default():
    tree = _node(Rel.O, 0, Comparator.LE, 1.5, Leaf(0, (2, 0)), Leaf(1, (0, 2)), alpha=0.6, z=1)
    plain = render_tree(tree, ["v"], ["X", "Y"], default_alpha=0.6)
    assert "@alpha" not in plain and "@z=1" in plain
    annotated = render_tree(tree, ["v"], ["X", "Y"])
    assert "@alpha=0.6" in annotated and "@z=1" in annotated


def test_golden_tree_rendering():
    tree = fixture_tree.golden_tree()
    text = render_tree(tree, fixture_tree.ATTRS, fixture_tree.CLASSES)
    assert text == fixture_tree.GOLDEN_TEXT


def test_theory_single_leaf_is_true():
    assert extract_class_theory(Leaf(0, (4,)), 0, ["v"]) == ["true"]
    assert extract_class_theory(Leaf(0, (4, 1)), 1, ["v"]) == []


def test_theory_depth_one():
    tree = _node(Rel.L, 0, Comparator.LE, 2.0, Leaf(0, (3, 0)), Leaf(1, (0, 3)))
    assert extract_class_theory(tree, 0, ["v"]) == ["<L>(v <= 2.0)"]
    assert extract_class_theory(tree, 1, ["v"]) == ["[L](v > 2.0)"]


def test_theory_golden_paths():
    tree = fixture_tree.golden_tree()
    got = extract_class_theory(tree, fixture_tree.BH, fixture_tree.ATTRS)
    assert got == fixture_tree.BACKHAND_FORMULAS


# ---------------------------------------------------------------------------
# test-only reader: reconstruct the decisions of a rendered tree

_LINE = re.compile(
    r"^((?:\|   )*)(?:<(=|[A-Za-z]+)>|\[(=|[A-Za-z]+)\]) "
    r"(\S+) (<=|>=|!=|<|>|=) (-?[0-9.eE+]+)((?: @\S+)*)"
    r"(?:: (\S+) \(([0-9.]+)(?:/([0-9.]+))?\))?$"
)

_TOKEN_TO_REL = {r.value: r for r in IntervalRelation}
_CMP = {"<=": Comparator.LE, ">": Comparator.GT, "=": Comparator.EQ}
_UNFLIP = {">": Comparator.LE, "<=": Comparator.GT, "!=": Comparator.EQ}


def parse_rendered_tree(text: str, class_names, default_alpha=1.0):
    lines = text.splitlines()

    def parse_line(idx):
        m = _LINE.match(lines[idx])
        assert m, f"unparseable line: {lines[idx]!r}"
        depth = len(m.group(1)) // 4
        sat_token, unsat_token = m.group(2), m.group(3)
        satisfied = sat_token is not None
        rel = _TOKEN_TO_REL[sat_token if satisfied else unsat_token]
        attr_name, cmp_text, value = m.group(4), m.group(5), m.group(6)
        alpha, z, tol = default_alpha, 0, 0.0
        for ann in (m.group(7) or "").split():
            key, _, val = ann.lstrip("@").partition("=")
            if key == "alpha":
                alpha = float(val)
            elif key == "z":
                z = int(val)
            elif key == "tol":
                tol = float(val)
        comparator = _CMP[cmp_text] if satisfied else _UNFLIP[cmp_text]
        leaf = None
        if m.group(8) is not None:
            counts = [0] * len(class_names)
            cls = class_names.index(m.group(8))
            total = int(float(m.group(9)))
            errors = int(float(m.group(10))) if m.group(10) else 0
            counts[cls] = total - errors
            if errors:
                counts[(cls + 1) % len(class_names)] = errors
            leaf = Leaf(cls, tuple(counts))
        return depth, satisfied, rel, attr_name, comparator, float(value), alpha, z, tol, leaf

    def build(idx, depth):
        d1, sat, rel, attr, comparator, thr, alpha, z, tol, leaf = parse_line(idx)
        assert d1 == depth and sat
        decision = TemporalDecision(rel, int(attr.removeprefix("var")), z, comparator, thr, alpha, tol)
        if leaf is not None:
            left = leaf
            nxt = idx + 1
        else:
            left, nxt = build(idx + 1, depth + 1)
        d2, sat2, rel2, attr2, _, thr2, _, _, _, leaf2 = parse_line(nxt)
        assert d2 == depth and not sat2 and rel2 is rel and attr2 == attr and thr2 == thr
        if leaf2 is not None:
            right = leaf2
            nxt2 = nxt + 1
        else:
            right, nxt2 = build(nxt + 1, depth + 1)
        return Node(decision, left, right), nxt2

    tree, consumed = build(0, 0)
    assert consumed == len(lines)
    return tree


def test_rendered_text_round_trips_decisions():
    tree = fixture_tree.golden_tree()
    text = render_tree(tree, fixture_tree.ATTRS, fixture_tree.CLASSES)
    back = parse_rendered_tree(text, fixture_tree.CLASSES)
    want = [n.decision for n in iter_nodes(tree)]
    got = [n.decision for n in iter_nodes(back)]
    assert got == want


def test_round_trip_with_annotations():
    tree = _node(
        Rel.OI,
        2,
        Comparator.GT,
        -0.125,
        Leaf(0, (2, 0)),
        _node(Rel.EQ, 1, Comparator.LE, 3.5, Leaf(0, (2, 1)), Leaf(1, (0, 5)), alpha=0.75),
        alpha=0.5,
        z=1,
    )
    attrs = ["var0", "var1", "var2"]
    text = render_tree(tree, attrs, ["M", "N"])
    back = parse_rendered_tree(text, ["M", "N"])
    assert [n.decision for n in iter_nodes(back)] == [n.decision for n in iter_nodes(tree)]


def test_round_trip_modal_equality_comparator():
    inner = Node(
        TemporalDecision(Rel.L, 0, 0, Comparator.EQ, 2.25, 1.0, eq_tolerance=0.125),
        Leaf(0, (3, 0)),
        Leaf(1, (0, 2)),
    )
    tree = _node(Rel.E, 1, Comparator.EQ, -4.0, inner, Leaf(1, (0, 6)))
    attrs = ["var0", "var1"]
    text = render_tree(tree, attrs, ["M", "N"])
    assert "<E> var1 = -4.0" in text
    assert "[E] var1 != -4.0" in text
    assert "@tol=0.125" in text
    back = parse_rendered_tree(text, ["M", "N"])
    assert [n.decision for n in iter_nodes(back)] == [n.decision for n in iter_nodes(tree)]
