"""Bounded search-tree exploration with a global leaf-count abort.

The tree fixes variables in blocks: whole subformula groups first (one
branch per model of the group), then clause-guided or single-variable
branching.  A node is a bit-sliced residual over the formula's clauses
(``exact.ClauseIndex``) plus the bitmask of variables still free; a child
fixes its model in the parent's residual.  A model is one compact int
over its block, bit b the value of ``block[b]``: 0 and 1 over a single
variable, the satisfying patterns of a residual clause, or a group's
scan indices (``Struct.model_indices``), listed once per cut as
``(sat, word, bits)``: the clauses it satisfies, its values as a word
(bit v for x_v) and its index.

One step, ``children``, takes a node and yields its vetted children in
model order.  The walk drives it depth first from a stack of these
generators, one per open node, so path depth meets no recursion limit.
Every node is vetted, so falsified branches never expand.  A child that
empties a clause (one of the alive clauses whose unfixed literals all lie
on the block, which the node marks once) is pruned by one mask test, and
a child with no alive clause is a leaf; neither is built.  Every other node
carries a witness ``(mask, bits)``: a partial model under which every
alive clause holds, bit v of ``mask`` marking x_v as set and bit v of
``bits`` its value.  A child keeps it, with its model's values
substituted, when the witness's literals off the block and the model
still satisfy every alive clause; only the rest run the exact DPLL
search.  A global counter accumulates, at each clause-free node, the
models below it; the run either finishes (the count is then exact) or
aborts once it reaches the threshold, certifying "at least that many".

After an aborted cut, ``frontier`` walks the same tree again breadth
first from the root and vets each child by unit propagation
(``ClauseIndex.fix``) instead of a search.  Inside the groups it splits a
group's models one varying bit at a time, from the top, so a node holds a
contiguous range of the group product's rows; past them it takes the
cut's block rule and model records.  Pruned children hold no model, and
every model below a kept child sets the values it fixed and the units
they leave on the variables outside the groups, so the open nodes and
the leaves it meets are disjoint ranges times cubes that hold every
model: the sampler's universe in place of the whole product.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

from .cnf import CnfFormula
from .exact import ClauseIndex
from .structs import StructSet


class CutKind(enum.Enum):
    EXACT = "exact"
    AT_LEAST_ELL = "at-least-ell"


@dataclass(frozen=True)
class CutResult:
    kind: CutKind
    count: int
    branch_nodes: int
    decider_calls: int
    leaves: int
    pruned: int
    # the walk's shared state, ``(index, root free mask, block rule,
    # groups)``
    tree: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def completed(self) -> bool:
        return self.kind is CutKind.EXACT


class BranchKind(enum.Enum):
    """How to pick the next block of variables to fix.

    ``BINARY`` walks a fixed variable order, most frequent first;
    ``PRUNED_CLAUSE`` branches over the models of a shortest residual
    clause; ``STRUCT_GUIDED`` consumes the provided groups first and then
    falls back to clause branching.
    """

    BINARY = "binary"
    PRUNED_CLAUSE = "pruned-clause"
    STRUCT_GUIDED = "struct-guided"


def _block_rule(phi: CnfFormula, structs: tuple, branching: BranchKind,
                index: ClauseIndex):
    """The block rule of a tree: a function from a node with an alive
    clause, ``(alive, planes, free, depth, next_struct)``, to its block's
    trace label, variables, their mask, model records ``(sat, word,
    bits)`` and the node's closed clauses.  Records are listed once per
    block and kept for every later node and walk."""
    pos, neg, occurs, spans = index.pos, index.neg, index.occurs, index.spans
    # BINARY's order: most frequent variable first, ties by index (a clause
    # holds each variable once, so its clause count is its occurrence count)
    order = sorted(phi.variables, key=lambda v: (-occurs[v].bit_count(), v))

    # Each branch node marks ``closed``: the alive clauses whose unfixed
    # literals all lie on its block, the variables that every one of its
    # models fixes.  A model empties a clause exactly when it leaves a
    # closed clause unsatisfied, so no child is built only to be pruned.
    # At group i's depth the fixed variables are those of the groups
    # before it, so the closed clauses are the alive ones with every
    # variable in groups 0..i (an alive clause inside groups 0..i-1 would
    # be empty, and no explored node has one).
    group_closed = []
    seen = 0
    for sigma in structs:
        for v in sigma.vars:
            seen |= 1 << v
        group_closed.append(sum(1 << j for j, span in enumerate(spans)
                                if not span & ~seen))

    def entry(label: str, block: tuple[int, ...], indices) -> tuple:
        """A block's trace label, variables, their mask and the records
        ``(sat, word, bits)`` of its models ``indices``; ``sat`` and
        ``word`` are ORs of 16-row table entries, one table for each 4
        variables of the block."""
        tables = []
        for s in range(0, len(block), 4):
            table = [(0, 0)]
            for v in block[s:s + 4]:
                table = ([(sat | neg[v], word) for sat, word in table]
                         + [(sat | pos[v], word | 1 << v) for sat, word in table])
            tables.append(table)
        records = []
        for bits in indices:
            sat = word = 0
            for s, table in enumerate(tables):
                part_sat, part_word = table[bits >> 4 * s & 15]
                sat |= part_sat
                word |= part_word
            records.append((sat, word, bits))
        return label, block, sum(1 << v for v in block), records

    # each block's entry, under its variable, its group's place or
    # (clause index, free mask)
    blocks: dict = {}

    def block_of(alive: int, planes: tuple[int, ...], free: int, depth: int,
                 next_struct: int) -> tuple:
        if next_struct < len(structs):
            key = next_struct
            if key not in blocks:
                # read through a memoryview, an index is a plain int
                sigma = structs[key]
                blocks[key] = entry(f"group{key}", sigma.vars,
                                    memoryview(sigma.model_indices()))
            return *blocks[key], alive & group_closed[key]
        if branching is BranchKind.BINARY:
            # the first free variable in order: order[:depth] are fixed,
            # and in the cut, which sets no units, order[depth] is free
            key = order[depth]
            while not free >> key & 1:
                depth += 1
                key = order[depth]
            if key not in blocks:
                blocks[key] = entry(f"x{key}", (key,), (0, 1))
        else:
            j = index.shortest(alive, planes)
            key = j, spans[j] & free
            if key not in blocks:
                literals = [code for code in phi.clauses[j] if free >> abs(code) & 1]
                # literal b is true in model p (p = 1 .. 2^len - 1), so
                # the flip of the negative literals gives its index
                flip = sum(1 << b for b, code in enumerate(literals) if code < 0)
                blocks[key] = entry(" ".join(map(str, literals)),
                                    tuple([abs(code) for code in literals]),
                                    [p ^ flip for p in range(1, 1 << len(literals))])
        label, block, bmask, records = blocks[key]
        assert not structs or len(block) < phi.k, \
            "residual clause wider than expected after the groups"
        # the alive clauses whose unfixed variables are exactly the
        # block: the closed ones, as no alive clause is narrower than
        # a single variable or a shortest clause
        closed = alive
        for v in block:
            closed &= occurs[v]
        for p, plane in enumerate(planes):
            closed &= plane if len(block) >> p & 1 else ~plane
        return label, block, bmask, records, closed

    return block_of


def cut(phi: CnfFormula, psi: StructSet, ell: int,
        branching: BranchKind, *,
        trace: list[str] | None = None) -> CutResult:
    """Explore until done or until ``ell`` models have been accounted for.

    The decider is exact, so a completed run's count is the exact model
    count and an aborted run's count is a true lower bound.  A clause-free
    node contributes 2^(free variables) models.  Every vetted node is a
    branch node, a leaf or pruned, so ``decider_calls`` is their sum, not
    a count of searches: a node pruned for an empty clause, a leaf or a
    node that keeps its parent's witness is vetted without one.
    ``trace``, if given, receives one line per branch node.  The result
    keeps the tree's block rule and records for ``frontier``.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if branching is BranchKind.STRUCT_GUIDED:
        own = set(phi.clauses)
        for sigma in psi:
            for c in sigma.clauses:
                if c not in own:
                    raise ValueError("group clause missing from the formula")
    structs = tuple(psi.structs) if branching is BranchKind.STRUCT_GUIDED else ()
    index = ClauseIndex(phi.clauses, phi.variables[-1] if phi.variables else 0)
    pos, neg = index.pos, index.neg
    lower, search = index.lower, index.search
    block_of = _block_rule(phi, structs, branching, index)

    def children(alive: int, planes: tuple[int, ...], free: int, wmask: int,
                 wbits: int, depth: int, next_struct: int):
        """The vetted children of a node with an alive clause, in model
        order, each as the tuple this step takes; a leaf is a child with
        no alive clause.  Every model of the node's block fixes all of
        ``block`` and nothing else; a pruned child is counted, not yielded."""
        nonlocal pruned
        label, block, bmask, records, closed = block_of(alive, planes, free,
                                                        depth, next_struct)
        if next_struct < len(structs):
            next_struct += 1
        if trace is not None:
            trace.append(f"{depth}\t{label}\t{len(records)}")
        rest = free & ~bmask
        depth += 1
        # the witness's variables on the block, and (once a child needs
        # it) the clauses its literals off the block satisfy
        wblock, cover = wmask & bmask, None
        for sat, word, bits in records:
            if closed & ~sat:
                # a clause emptied: vetted and pruned without building it
                pruned += 1
                continue
            child = alive & ~sat
            if not child:
                yield 0, planes, rest, wmask, wbits, depth, next_struct
                continue
            low = lower(child, planes, block, bits)
            if not (wbits ^ word) & wblock:
                # the model agrees with the witness, which still holds
                yield child, low, rest, wmask, wbits, depth, next_struct
                continue
            if cover is None:
                cover, left = 0, wmask & rest
                while left:
                    v = (left & -left).bit_length() - 1
                    cover |= pos[v] if wbits >> v & 1 else neg[v]
                    left &= left - 1
            if not child & ~cover:
                # the witness with the model's values substituted holds
                yield child, low, rest, wmask & rest, wbits, depth, next_struct
                continue
            found = search(child, low, rest)
            if found is None:
                pruned += 1
            else:
                yield child, low, rest, *found, depth, next_struct

    # the root is vetted too; the search must not be given an empty clause
    alive, planes = index.root
    free = sum(1 << v for v in phi.variables)
    found = search(alive, planes, free) if all(phi.clauses) else None
    count = branch_nodes = leaves = 0
    pruned = int(found is None)
    # the open nodes, each a generator of its vetted children; the root is
    # the one child of the first
    stack = [] if found is None else [iter([(alive, planes, free, *found, 0, 0)])]
    kind = CutKind.EXACT
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif node[0]:
            branch_nodes += 1
            stack.append(children(*node))
        else:
            leaves += 1
            count += 1 << node[2].bit_count()
            if count >= ell:
                kind = CutKind.AT_LEAST_ELL
                break
    return CutResult(kind, count, branch_nodes, branch_nodes + leaves + pruned,
                     leaves, pruned, (index, free, block_of, structs))


# One vetted node of the walk costs about as much as this many checked
# draws from a frontier (6-9 µs against 30-45 ns), and a walk must be
# expected to repay at least this many nodes before it starts
_DRAWS_PER_NODE = 200
_FIRST_NODES = 600


@dataclass(frozen=True)
class Frontier:
    """Disjoint nodes that hold every model of a cut's formula.

    A node is ``(lo, hi, word, mask)`` in the sampler's form (see
    ``mc.Universe``): the group product's rows [lo, hi) times a cube over
    the variables outside the groups, bit v-1 for x_v, ``mask`` marking
    its free variables and ``word`` the values of the rest.  Every
    assignment in a leaf is a model; an inner node holds its models among
    others.  ``vetted`` counts the children the walk vetted.
    """

    leaves: tuple[tuple[int, int, int, int], ...]
    inner: tuple[tuple[int, int, int, int], ...]
    vetted: int

    @property
    def all_nodes(self) -> tuple[tuple[int, int, int, int], ...]:
        """The leaves and the open nodes: the sampler's universe."""
        return self.leaves + self.inner


def frontier(result: CutResult, hits: int, budget: int | None = None, *,
             models: int = 0) -> Frontier:
    """The cut's tree walked again breadth first from the root, as nodes.

    The open nodes wait in one queue, so the walk expands them level by
    level.  While groups are left, a node holds one row of each group
    before group g, a slice of group g's models and every model of the
    later groups: contiguous product rows, as group 0 is the most
    significant digit.  ``Struct.model_indices()`` is ascending, so
    fixing group g's variables from the top down splits a slice in two at
    its highest bit that varies; each side fixes the bits its rows share,
    a side of one row fixes the whole group and moves on to group g + 1.
    A node without groups left expands by the cut's block rule and
    records.  A child is pruned when its values, or the units they leave
    (``ClauseIndex.fix``), empty a clause.  Units on the variables outside
    the groups shrink the child's cube; units on group variables are kept
    in its residual only, so its rows still hold every model, and a child
    with no alive clause is a leaf only once its rows fix every such
    variable.
    Before each node it expands, the walk stops once ``hits`` U' / N^,
    N^ the larger of ``result.count`` and ``models``, is at most
    ``_DRAWS_PER_NODE`` per node vetted so far (U' / N^ draws per hit),
    or once it has vetted ``budget`` nodes (the cut's own
    ``decider_calls`` by default).  Before the first node it counts
    ``_FIRST_NODES`` as vetted: the first levels split groups and set
    variables but seldom prune, so a root that few draws would cover is
    sampled as it is.  The queue's nodes stay open, so a level cut short
    keeps its unexpanded parents.
    """
    if not result.count:
        # the cut is exact: no model at all
        return Frontier((), (), 0)
    if budget is None:
        budget = result.decider_calls
    models = max(result.count, models)
    index, free, block_of, structs = result.tree
    lower, fix, pos, neg = index.lower, index.fix, index.pos, index.neg
    groups = len(structs)
    rows = [sigma.model_indices().tolist() for sigma in structs]
    # span[g]: product rows per row of group g-1, the models of groups
    # g and after; later[g]: the variables of those groups; below[g][i]:
    # group g's variables under bit i of its indices
    span, later = [1] * (groups + 1), [0] * (groups + 1)
    for g in reversed(range(groups)):
        span[g] = span[g + 1] * len(rows[g])
        later[g] = later[g + 1] | sum(1 << v for v in structs[g].vars)
    below = [[sum(1 << v for v in sigma.vars[:i])
              for i in range(len(sigma.vars) + 1)] for sigma in structs]
    coins = free & ~later[0]
    trail: list[int] = []

    # a cut with a model has no empty clause, and its root units hold
    alive, planes, free = fix(*index.root, free, 0, trail)
    vals = sum(1 << code for code in trail if code > 0)
    root = alive, planes, free, vals, 0, 0, 0, span[0]
    size, vetted = span[0] << (free & coins).bit_count(), 0
    leaves: list = []
    queue = deque()
    (queue if alive or later[0] & ~free else leaves).append(root)
    while (queue and vetted < budget
           and hits * size > _DRAWS_PER_NODE * (vetted or _FIRST_NODES) * models):
        alive, planes, free, vals, depth, g, lo, hi = queue.popleft()
        size -= (hi - lo) << (free & coins).bit_count()
        kept = []
        if g < groups:
            block, models_g, unit = structs[g].vars, rows[g], span[g + 1]
            a = lo // unit % len(models_g)
            b = a + (hi - lo) // unit
            if b - a == 1:
                parts = ((a, b),)
            else:
                top = models_g[b - 1]
                h = (models_g[a] ^ top).bit_length() - 1
                mid = bisect_left(models_g, top >> h << h, a, b)
                parts = ((a, mid), (mid, b))
            for a2, b2 in parts:
                vetted += 1
                bits = models_g[a2]
                # the bits its rows share: all of them for one row
                low = ((bits ^ models_g[b2 - 1]).bit_length()
                       if b2 - a2 > 1 else 0)
                # set the shared bits still free at once; a bit a unit
                # set already must agree with the rows
                fixing, values, word, fmask, clash = [], 0, 0, 0, False
                for i in range(low, len(block)):
                    v, bit = block[i], bits >> i & 1
                    if free >> v & 1:
                        values |= bit << len(fixing)
                        word |= bit << v
                        fmask |= 1 << v
                        fixing.append(v)
                    else:
                        clash |= (vals >> v & 1) != bit
                if clash:
                    continue
                sat = 0
                for v in fixing:
                    sat |= pos[v] if word >> v & 1 else neg[v]
                child = alive & ~sat
                # every literal set lies on a free variable, so a clause's
                # count can reach 0 but not wrap: test for it before ``fix``
                low_planes = lower(child, planes, fixing, values)
                empty = child
                for plane in low_planes:
                    empty &= ~plane
                del trail[:]
                found = None if empty else fix(child, low_planes,
                                               free & ~fmask, 0, trail)
                if found is None:
                    continue
                for code in trail:
                    if code > 0:
                        word |= 1 << code
                # a child of one row has fixed the whole group: on to the next
                kept.append(((*found, vals | word, depth + 1,
                              g + (b2 - a2 == 1), lo + (a2 - a) * unit,
                              lo + (b2 - a) * unit),
                             later[g + 1] | below[g][low]))
        else:
            _, block, bmask, records, closed = block_of(alive, planes, free,
                                                        depth, groups)
            rest = free & ~bmask
            for sat, bword, bits in records:
                vetted += 1
                if closed & ~sat:
                    continue
                child = alive & ~sat
                del trail[:]
                found = fix(child, lower(child, planes, block, bits), rest, 0,
                            trail)
                if found is None:
                    continue
                for code in trail:
                    if code > 0:
                        bword |= 1 << code
                kept.append(((*found, vals | bword, depth + 1, g, lo, hi), 0))
        for node, loose in kept:
            size += (node[7] - node[6]) << (node[2] & coins).bit_count()
            # a child with no clause left is a leaf once its rows fix every
            # group variable a unit fixed
            (queue if node[0] or loose & ~node[2] else leaves).append(node)
    return Frontier(*(tuple((lo, hi, (vals & coins) >> 1, (free & coins) >> 1)
                            for _, _, free, vals, _, _, lo, hi in part)
                      for part in (leaves, queue)), vetted)
