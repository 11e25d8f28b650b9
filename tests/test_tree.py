import hashlib
import random

import pytest

from padicharm import tree as tree_module
from padicharm.core import EngineDisagreement, _spell, ilog, to_digits
from padicharm.report import CheckReport
from padicharm.tree import (
    PTree,
    build_tree,
    f_sequence,
)
from padicharm.valuation import vp_H


def validate_ptree(tree: PTree) -> CheckReport:
    """Structural axioms: root present, prefix agreement, parent closure,
    leaf consistency, and the order PTree documents.  Reports the first
    violation, naming an offending node or leaf by its digits.  A node of
    u digits past the root is an int whose first len(root) digits, n //
    p^u, spell the root, and whose parent is n // p."""
    sc = tree.constants
    p = tree.p
    root = tree.k - 1
    width = len(sc.root_digits)
    params = {"p": p, "k": tree.k, "levels": len(tree.levels)}

    def fail(axiom: str, detail: str, item=None) -> CheckReport:
        witness = {"axiom": axiom, "detail": detail}
        if item is not None:
            witness["item"] = _spell(item, p)
        return CheckReport(
            claim_id="ptree-axioms",
            parameters=params,
            observed={"checked": tree.node_count + len(tree.leaves)},
            bound=None,
            passed=False,
            witness=witness,
        )

    if not tree.levels or tree.levels[0] != [root]:
        return fail("root", "level 0 must hold exactly the root digits")
    node_set = {n for level in tree.levels for n in level}
    for u, level in enumerate(tree.levels):
        for n in level:
            if ilog(n, p) + 1 != width + u:
                return fail("levels", f"length mismatch at level {u}", n)
            if n // p ** u != root:
                return fail("prefix-agreement", "node does not extend the root", n)
            if u > 0 and n // p not in node_set:
                return fail("parent-closure", "parent of node is not a node", n)
    if tree.status == "complete" and tree.levels[-1]:
        return fail("completeness", "complete status requires an empty last level")
    for leaf in tree.leaves:
        past_root = ilog(leaf, p) + 1 - width
        if leaf in node_set:
            return fail("leaves", "leaf is also a node", leaf)
        if past_root < 1 or leaf // p not in node_set:
            return fail("leaves", "leaf parent is not a node", leaf)
        if leaf // p ** past_root != root:
            return fail("leaves", "leaf does not extend the root", leaf)
    for items in (*tree.levels, tree.leaves):
        for a, b in zip(items, items[1:]):
            if (ilog(a, p), a) >= (ilog(b, p), b):
                return fail("order", "levels must rise in value, leaves in (length, value)", b)
    return CheckReport(
        claim_id="ptree-axioms",
        parameters=params,
        observed={"nodes": tree.node_count, "leaves": len(tree.leaves)},
        bound=None,
        passed=True,
    )


@pytest.fixture(scope="module")
def t32():
    return build_tree(3, 2, 32)


@pytest.fixture(scope="module")
def t22():
    return build_tree(2, 2, 12)


def test_t22_is_a_single_chain(t22):
    assert t22.status == "truncated"
    assert [len(level) for level in t22.levels] == [1] * 13
    stats = t22.stats
    assert stats.min_children == stats.max_children == 1
    assert stats.determined == 12


@pytest.mark.parametrize("k", range(2, 16))
def test_t2k_is_a_chain(k):
    # H_0 = 0 and H_1 = 1 mod 2, so each node has exactly one member child
    tree = build_tree(2, k, 100, engine="expansion")
    assert tree.status == "truncated"
    assert [len(level) for level in tree.levels] == [1] * 101
    assert (tree.stats.min_children, tree.stats.max_children, tree.stats.determined) == (1, 1, 100)


def test_t32_complete_with_8_nodes(t32):
    assert t32.status == "complete"
    assert t32.node_count == 8
    assert t32.levels[-1] == []
    assert t32.stats.max_children <= 2
    assert t32.stats.min_children == 0  # complete finite tree: some node has no child


def test_levels_are_sorted_and_prefix_closed(t32):
    for level in t32.levels:
        assert level == sorted(level)
    report = validate_ptree(t32)
    assert report.passed, report.witness


def test_leaves_partition(t32):
    nodes = t32.node_values()
    for leaf in t32.leaves:
        assert leaf not in nodes
        assert leaf // 3 in nodes


def test_engine_modes_agree():
    a = build_tree(3, 4, 8, engine="expansion")
    b = build_tree(3, 4, 8, engine="stirling")
    c = build_tree(3, 4, 8, engine="both")
    assert a.levels == b.levels == c.levels
    assert a.leaves == b.leaves == c.leaves
    assert a.status == b.status == c.status == "complete"


@pytest.mark.parametrize("p, k, depth", [(2, 2, 8), (2, 5, 8), (3, 3, 5), (3, 5, 5), (3, 7, 5)])
def test_membership_equivalence_exhaustive(p, k, depth):
    # every child of these trees lies below DUAL_VALUE_CAP, so dual mode
    # checks every membership both ways
    tree = build_tree(p, k, depth, engine="both")
    expanded = sum(len(level) for level in tree.levels[:-1])
    assert tree.dual_checks == p * expanded


def _recording_rows(monkeypatch, flip=()):
    """Patch tree's _ScaledHRow to record its arguments and to flip its
    verdict at the child values in flip."""
    rows = []

    class Row(tree_module._ScaledHRow):
        def __init__(self, k, p, n_max, v_max):
            super().__init__(k, p, n_max, v_max)
            rows.append((n_max, v_max))

        def vp_at_least(self, n, t):
            return super().vp_at_least(n, t) != (n in flip)

    monkeypatch.setattr(tree_module, "_ScaledHRow", Row)
    return rows


@pytest.mark.parametrize("k, largest", [(2, 410), (3, 53_312), (4, 6_575), (5, 1_202)])
def test_dual_row_is_sized_for_the_children_it_checks(monkeypatch, k, largest):
    # one row per dual build, reaching exactly the largest checked child,
    # with the level-one threshold as v_max
    rows = _recording_rows(monkeypatch)
    tree = build_tree(3, k)
    sc = tree.constants
    top = tree_module._membership_threshold(sc, k, len(sc.root_digits) + 1)
    assert rows == [(largest, top)]
    checked = [n for level in tree.levels[1:] for n in level]
    checked += tree.leaves
    assert max(checked) == largest and tree.dual_checks == len(checked)
    # the stirling engine sizes its row for any child of the walk's reach;
    # these trees close inside the first one
    rows.clear()
    build_tree(3, k, engine="stirling")
    assert rows == [(3 ** (len(sc.root_digits) + 16) - 1, top)]


def test_stirling_row_is_replaced_when_the_walk_lifts(monkeypatch):
    # T_5(2) outlives level 16, so its walk lifts to the cap: a new row
    # reaches the children of the new reach, and no walk node computes sigma
    rows = _recording_rows(monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(tree_module._WalkNode, "expansion",
                      lambda node: pytest.fail("sigma computed"))
        tree = build_tree(5, 2, engine="stirling")
    sc = tree.constants
    top = tree_module._membership_threshold(sc, 2, len(sc.root_digits) + 1)
    assert rows == [(5 ** (len(sc.root_digits) + reach) - 1, top) for reach in (16, 32)]
    ref = build_tree(5, 2, engine="expansion")
    assert len(tree.levels) > 17 and (tree.levels, tree.leaves) == (ref.levels, ref.leaves)


@pytest.mark.parametrize("p, k, engine", [
    (5, 5, "expansion"), (5, 5, "both"), (3, 12, "expansion"), (3, 12, "both"),
    (13, 8, "expansion"), (13, 8, "both"), (3, 7, "stirling"),
])
def test_a_deep_cap_builds_the_tree_a_shallow_one_closes(p, k, engine):
    # each tree closes within 40 levels, so a cap of 1000 builds the same
    # tree; its walk lifts only as deep as the tree lives
    def shape(tree):
        return tree.levels, tree.leaves, tree.status, tree.stats, tree.dual_checks

    deep = build_tree(p, k, 1000, engine=engine)
    assert deep.status == "complete"
    assert shape(deep) == shape(build_tree(p, k, 40, engine=engine))
    if engine == "stirling":
        both = build_tree(p, k, 1000, engine="both")
        assert shape(deep)[:4] == shape(both)[:4]


def test_dual_pass_names_the_first_disagreeing_child(monkeypatch):
    ref = build_tree(3, 3, engine="expansion")
    leaf = ref.leaves[len(ref.leaves) // 2]
    node = ref.levels[-2][-1]
    assert leaf < node
    _recording_rows(monkeypatch, flip={leaf, node})
    with pytest.raises(EngineDisagreement) as exc:
        build_tree(3, 3)
    assert str(exc.value) == (
        "engines disagree on <2,2,2,0,2,1>_3: expansion=False, stirling=True")


def test_dual_pass_builds_no_row_when_no_child_is_under_the_cap(monkeypatch):
    rows = _recording_rows(monkeypatch)
    monkeypatch.setattr(tree_module, "DUAL_VALUE_CAP", 0)
    tree = build_tree(3, 3)
    ref = build_tree(3, 3, engine="expansion")
    assert rows == [] and tree.dual_checks == 0
    assert tree.levels == ref.levels and tree.leaves == ref.leaves


def test_validate_rejects_missing_parent(t32):
    broken = build_tree(3, 2, 32)
    broken.levels[2] = broken.levels[2][1:]
    report = validate_ptree(broken)
    assert not report.passed
    assert report.witness["axiom"] == "parent-closure"


def test_validate_rejects_wrong_root():
    tree = build_tree(2, 2, 4)
    tree.levels[0] = [0b10]
    report = validate_ptree(tree)
    assert not report.passed


def test_validate_rejects_leaf_that_is_a_node(t32):
    broken = build_tree(3, 2, 32)
    broken.leaves.append(broken.levels[1][0])
    report = validate_ptree(broken)
    assert not report.passed
    assert report.witness["axiom"] == "leaves"


def test_child_stats_empty_for_unexpanded_tree():
    tree = build_tree(3, 2, 0)
    stats = tree.stats
    assert stats.determined == 0
    assert stats.min_children is None and stats.max_children is None


@pytest.mark.parametrize("p, k, depth", [(3, 3, 32), (3, 7, 32), (5, 2, 6), (2, 2, 10)])
def test_walk_child_counts_match_the_levels(p, k, depth):
    # the counts build_tree keeps while walking equal those read back from
    # the finished levels, one per expanded node
    tree = build_tree(p, k, depth)
    counts = []
    for u in range(len(tree.levels) - 1):
        parents = [n // p for n in tree.levels[u + 1]]
        counts += [parents.count(node) for node in tree.levels[u]]
    assert (tree.stats.min_children, tree.stats.max_children) == (min(counts), max(counts))
    assert tree.stats.determined == len(counts)


def test_validate_rejects_a_shuffled_level():
    broken = build_tree(3, 2, 32)
    level = next(level for level in broken.levels if len(level) > 1)
    level.reverse()
    report = validate_ptree(broken)
    assert not report.passed
    assert report.witness["axiom"] == "order"


def test_validate_rejects_an_out_of_order_leaf():
    broken = build_tree(3, 2, 32)
    broken.leaves[0], broken.leaves[-1] = broken.leaves[-1], broken.leaves[0]
    report = validate_ptree(broken)
    assert not report.passed
    # the deepest leaf now comes first, so its successor is the first misplaced
    assert report.witness["axiom"] == "order"
    assert report.witness["item"] == _spell(broken.leaves[1], 3)


def test_f_sequence_examples():
    assert f_sequence(0) == (1,)
    assert f_sequence(2) == (1, 1, 0)
    assert "".join(map(str, f_sequence(2))) == "110"


def test_f_sequence_matches_tree_levels():
    f = f_sequence(10)
    tree = build_tree(2, 2, 10)
    assert [len(level) for level in tree.levels] == [1] * 11
    for u, level in enumerate(tree.levels):
        assert to_digits(level[0], 2) == f[: u + 1]


def test_f_sequence_deep_bits_are_pinned():
    # f_0..f_300 as the exact-product falling factorials gave them: the
    # block-sum stores and the reduced products must not move a bit
    bits = "".join(map(str, f_sequence(300)))
    assert hashlib.sha256(bits.encode()).hexdigest() == (
        "43e1ee9d4c18517f662c6a0308433539b7d95d6eb143c8c4720c07020762da01")


@pytest.mark.parametrize("broken", ["two nodes", "no node"])
def test_f_sequence_refuses_a_level_without_exactly_one_node(monkeypatch, broken):
    real_build = tree_module.build_tree

    def build(*args, **kwargs):
        tree = real_build(*args, **kwargs)
        node = tree.levels[2][0]
        if broken == "two nodes":
            tree.levels[2].append(node ^ 1)  # its sibling
        else:
            del tree.levels[2:]
            tree.levels.append([])
        return tree

    monkeypatch.setattr(tree_module, "build_tree", build)
    with pytest.raises(EngineDisagreement, match="branching invariant"):
        f_sequence(4)


def test_f_sequence_validation():
    with pytest.raises(ValueError):
        f_sequence(-1)


def _extend_randomly(rng, n, p, extra):
    for _ in range(extra):
        n = n * p + rng.randrange(p)
    return n


@pytest.mark.parametrize("p, k, depth", [(2, 2, 12), (3, 2, 32)])
def test_interior_prefixes_bound_the_valuation(p, k, depth):
    # digit strings passing through a node at position r keep
    # vp(H(n, k)) >= W + r - k*s + 1
    rng = random.Random(2024)
    tree = build_tree(p, k, depth)
    sc = tree.constants
    nodes = [n for level in tree.levels[1:] for n in level]
    checked = 0
    while checked < 60:
        node = rng.choice(nodes)
        n = _extend_randomly(rng, node, p, rng.randint(0, 3))
        if n > 50_000:
            continue
        r = ilog(node, p)
        s = ilog(n, p)
        assert vp_H(n, k, p) >= sc.W + r - k * s + 1
        checked += 1


@pytest.mark.parametrize("p, k, depth", [(2, 2, 12), (3, 2, 32)])
def test_leaf_prefixes_pin_the_valuation(p, k, depth):
    # first exit at a leaf at position r forces vp(H(n, k)) = W + r - k*s
    rng = random.Random(2025)
    tree = build_tree(p, k, depth)
    sc = tree.constants
    checked = 0
    while checked < 60:
        leaf = rng.choice(tree.leaves)
        n = _extend_randomly(rng, leaf, p, rng.randint(0, 3))
        if n > 50_000:
            continue
        r = ilog(leaf, p)
        s = ilog(n, p)
        assert vp_H(n, k, p) == sc.W + r - k * s
        checked += 1


def test_build_rejects_bad_engine():
    with pytest.raises(ValueError):
        build_tree(3, 2, 4, engine="psychic")
