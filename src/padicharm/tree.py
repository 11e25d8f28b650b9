"""Level-by-level construction of the digit tree attached to (p, k).

Level u holds the digit prefixes of length t + 1 + u extending the digits
of k - 1, each as its integer; level 0 is the root k - 1 alone.  A tree
holds no digits: a node's parent is value // p and its last digit
value % p, and digits are made only where they are printed
(cli.tree_document and cli.tree_dot spell them as text, each level's
from the one above's, and write them level by level) or named (a
disagreement, f_sequence's bits).
A child joins level u + 1 when the weighted sum of its h_p terms
gains one more power of p, equivalently when vp(H(child_value, k))
clears W - (k-1)s + 1 for its digit length.
Both tests are implemented; in dual mode they arbitrate each other and
any mismatch aborts the build with the offending prefix.  The
expansion test keeps one expansion._WalkNode per frontier entry and
decides all p children of a node from one residue by the harmonic rule,
this repository's lemma (expansion module docstring): child b of a
member V at depth u is a member iff c_V + pi*H_b = 0 (mod p), since the
block units child b adds are value(V)*p + i = i (mod p), i <= b.  Only
member children get a walk node, which folds one digit group into its
parent's h' table.  The walk starts at expansion._FIRST_PASS digits, and
a frontier that outlives its reach is lifted (expansion._lift) by the
one reach schedule every digit walk keeps (expansion._next_reach); a
p = 2 tree is a chain by the same rule and starts at its span.  The
valuation test runs on a forward-only scaled Stirling row
(valuation._ScaledHRow), which children reach in increasing value order.
In "stirling" mode that row decides membership during the walk, sized
for the children of the walk's reach and replaced when the walk lifts;
in dual mode the walk records each checked child's value, threshold and
expansion verdict, and one row, sized for the largest recorded value,
re-decides them after the walk.
The branch bits f_sequence are the levels of the (2, 2) tree, which has
exactly one node per level, as every T_2(k) does.

Rejected children whose parent is a node are kept as leaves: they pin
exact valuations for every integer whose digits run through them, and
every build that walks records them in vp_H_expansion's decided-prefix
store, which later calls through them read instead of walking.  The
store holds the leaves alone: a leaf under a depth-u node has t + 2 + u
digits, and u is the valuation of its sigma by the harmonic rule, so the
store reads u off the length; no leaf computes its sigma.
verify corollary-2adic reads its samples through the leaves f_sequence
records, so it still tests the harmonic rule's leaf decisions against
the paper's corollary, and its exact cross up to DEFAULT_EXACT_CAP is
unchanged.  The walk meets children in the order PTree documents and
counts each node's member children as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ArgumentError, EngineDisagreement, StructureConstants, _spell, to_digits
from .expansion import _DECIDED, _WalkNode, _lift, _membership_threshold, _next_reach
from .valuation import _ScaledHRow

__all__ = [
    "ChildStats",
    "PTree",
    "build_tree",
    "f_sequence",
]

# Dual mode re-decides every child value up to this cap on the Stirling
# row.  The row is sized for the largest child actually recorded, not for
# the cap, and reaches each child from the one before by aligned block
# products and short runs of steps (valuation._ScaledHRow): O(p * log_p n)
# products and O(p^2) small-modulus steps per child, not one step per
# integer below it.
DUAL_VALUE_CAP = 1_000_000


@dataclass
class ChildStats:
    """Smallest and largest member-child count over the expanded nodes
    (None when none was expanded), and how many nodes were expanded."""

    min_children: int | None
    max_children: int | None
    determined: int


@dataclass
class PTree:
    """Built digit tree: leveled node lists plus rejected children.

    Every node and leaf is its digit prefix as an int; its digits
    are to_digits(value, p), made only where they are printed.  status is
    "complete" when an empty level was observed (the final empty level is
    kept in levels), else "truncated" at max_depth.  Each level is in
    increasing value order, and leaves are in (length, value) order, one
    flat list; the tests check this with the tree's other structural
    axioms.
    """

    p: int
    k: int
    constants: StructureConstants
    levels: list[list[int]]
    leaves: list[int]
    status: str
    max_depth: int
    engine: str
    dual_checks: int
    stats: ChildStats

    @property
    def node_count(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def truncated_at(self) -> int | None:
        return None if self.status == "complete" else len(self.levels) - 1

    def node_values(self) -> set[int]:
        return set().union(*self.levels)


def build_tree(p: int, k: int, max_depth: int = 32, engine: str = "both") -> PTree:
    """Build the digit tree of (p, k) down to max_depth levels.

    engine "expansion" tests membership through the weighted h_p sums,
    "stirling" through the running Stirling row, "both" runs the two and
    aborts on mismatch.  Children are evaluated in increasing value order,
    so a forward-only row serves them.  In "stirling" mode the row decides
    each child as the walk reaches it.  In dual mode the expansion verdict
    drives the walk, which records (value, threshold, verdict) for every
    child up to DUAL_VALUE_CAP; afterwards one row sized for the last
    recorded value re-decides them in order, and the first mismatch raises
    EngineDisagreement.

    A child at level u + 1 is a member when its sigma vanishes mod p^(u+1),
    which _WalkNode.expansion decides from digit u of its parent's sigma
    by the harmonic rule, and u < max_depth, so no test reads past p^span,
    span = max(max_depth, 1).  The walk starts at the reach _next_reach(0,
    span, p), which decides every level up to it, and each time its
    frontier is still nonempty at the level of its reach it lifts the
    frontier to _next_reach(reach, span, p) (expansion._lift) and goes on:
    a tree carries at most twice the digits of the level it closes at,
    whatever max_depth is, and a p = 2 chain carries span digits from the
    start.  A "stirling" build lifts its row instead of its walk nodes, whose
    sigma it never reads: each row reaches every child of the current
    reach, and a lift replaces it with one sized for the next.

    The tree keeps each node and leaf as its int value, never its digits.
    Once the walk (and, in dual mode, the check) is done, an "expansion"
    or "both" build records each leaf's value in vp_H_expansion's
    decided-prefix store, which reads its parent's depth off its length; a
    "stirling" build computes no sigma and records nothing.
    """
    if engine not in ("stirling", "expansion", "both"):
        raise ArgumentError(f"unknown engine {engine!r}")
    if max_depth < 0:
        raise ArgumentError(f"max_depth must be nonnegative, got {max_depth}")
    span = max(max_depth, 1)
    reach = _next_reach(0, span, p)
    root = _WalkNode.root(k, p, reach)
    sc = root.sc
    levels = [[root.value]]
    frontier = [root]
    leaves: list[int] = []
    status = "truncated"
    # (value, threshold, expansion verdict) of each dual-checked child
    checked: list[tuple[int, int, bool]] = []
    child_counts: list[int] = []  # member children of each expanded node

    # Child values rise across a level and from level to level, and the
    # threshold falls with depth, so a row with the first level's threshold
    # as v_max decides every Stirling test.  A "stirling" row must reach any
    # child of the current reach: digit length len(root) + reach at most.
    top_threshold = _membership_threshold(sc, k, sc.t + 2)
    if engine == "stirling":
        row = _ScaledHRow(k, p, p ** (sc.t + 1 + reach) - 1, top_threshold)

    for u in range(max_depth):
        if u == reach:
            reach = _next_reach(reach, span, p)
            if engine == "stirling":
                row = _ScaledHRow(k, p, p ** (sc.t + 1 + reach) - 1, top_threshold)
            else:
                frontier = _lift(frontier, reach)
        threshold = _membership_threshold(sc, k, sc.t + 2 + u)
        next_frontier = []
        for node in frontier:
            before = len(next_frontier)
            children = map(node.child, range(p)) if engine == "stirling" else node.expansion()
            for b, child in enumerate(children):
                value = node.value * p + b
                if engine == "stirling":
                    member = row.vp_at_least(value, threshold)
                else:
                    member = child is not None
                    if engine == "both" and value <= DUAL_VALUE_CAP:
                        checked.append((value, threshold, member))
                if member:
                    next_frontier.append(child)
                else:
                    leaves.append(value)
            child_counts.append(len(next_frontier) - before)
        levels.append([node.value for node in next_frontier])
        frontier = next_frontier
        if not frontier:
            status = "complete"
            break

    if checked:
        row = _ScaledHRow(k, p, checked[-1][0], top_threshold)
        for value, threshold, member_exp in checked:
            member_st = row.vp_at_least(value, threshold)
            if member_exp != member_st:
                raise EngineDisagreement(
                    f"engines disagree on {_spell(value, p)}: "
                    f"expansion={member_exp}, stirling={member_st}"
                )
    if engine != "stirling":
        _DECIDED.record((k, p, value) for value in leaves)

    return PTree(
        p=p,
        k=k,
        constants=sc,
        levels=levels,
        leaves=leaves,
        status=status,
        max_depth=max_depth,
        engine=engine,
        dual_checks=len(checked),
        stats=ChildStats(
            min(child_counts, default=None),
            max(child_counts, default=None),
            len(child_counts),
        ),
    )


def f_sequence(S: int) -> tuple[int, ...]:
    """Bits f_0..f_S for p = 2, k = 2.

    f_s is the digit b that keeps the membership inequality
    vp(H(<f_0..f_{s-1},b>, 2)) >= 1 - s, i.e. the last digit of the single
    node at level s of the (2, 2) tree, built here by the expansion engine.
    That tree branches exactly once per level; a level of any other size
    raises EngineDisagreement.  The walk is build_tree's, lifted along the
    reach schedule, at most to p^max(S, 1).
    """
    if S < 0:
        raise ArgumentError(f"S must be nonnegative, got {S}")
    tree = build_tree(2, 2, S, engine="expansion")
    sizes = [len(level) for level in tree.levels]
    if sizes != [1] * (S + 1):
        raise EngineDisagreement(
            f"T_2(2) level sizes {sizes} are not one node per level down to "
            f"depth {S}; branching invariant broken"
        )
    return to_digits(tree.levels[-1][0], 2)
