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

After an aborted cut without groups, ``frontier`` walks the same tree
again breadth first from the root, with the same block rule and the
cut's model records, but vets each child by the mask test and unit
propagation (``ClauseIndex.fix``) instead of a search.  Pruned children
hold no model, and every model below a kept child sets the literals its
units set, so the open nodes and the leaves it meets are disjoint cubes
that hold every model: the sampler's universe in place of the full cube.
"""

from __future__ import annotations

import enum
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
    # the walk's shared state, ``(index, root free mask, block rule)``;
    # None when the cut branched on groups
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
    ``trace``, if given, receives one line per branch node.  Without
    groups the result keeps the tree's block rule and records for
    ``frontier``.
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
                     leaves, pruned, None if structs else (index, free, block_of))


# One vetted node of the walk costs about as much as this many draws
_DRAWS_PER_NODE = 1_000


@dataclass(frozen=True)
class Frontier:
    """Disjoint cubes that hold every model of a cut's formula.

    A cube is ``(word, mask)`` in the sampler's packing, bit v-1 for x_v:
    ``mask`` marks its free variables and ``word`` the values of the
    rest.  Every assignment in a leaf cube is a model; an open node's cube
    holds its models among others.  ``vetted`` counts the children the
    walk vetted.
    """

    leaves: tuple[tuple[int, int], ...]
    nodes: tuple[tuple[int, int], ...]
    vetted: int

    @property
    def cubes(self) -> tuple[tuple[int, int], ...]:
        return self.leaves + self.nodes


def frontier(result: CutResult, hits: int,
             budget: int | None = None) -> Frontier:
    """The cut's tree walked again breadth first from the root, as cubes.

    The open nodes wait in one queue, so the walk expands them level by
    level.  Each takes its block from the cut's rule and records; a
    child is pruned when its model empties a closed clause or its units
    (``ClauseIndex.fix``) empty one, and otherwise fixes its model and
    the literals its units set.  A child with no alive clause is a leaf.
    Before each node it expands, the walk stops once ``hits`` U' /
    ``result.count``, an upper bound on the draws of a sampling run that
    ends by its ``hits``-th hit, is at most ``_DRAWS_PER_NODE`` per node
    vetted so far, or once it has vetted ``budget`` nodes (the cut's own
    ``decider_calls`` by default).  The queue's nodes stay open, so a
    level cut short keeps its unexpanded parents.
    """
    if result.tree is None:
        raise ValueError("a cut over groups has no frontier of cubes")
    if not result.count:
        # the cut is exact: no model at all
        return Frontier((), (), 0)
    if budget is None:
        budget = result.decider_calls
    index, free, block_of = result.tree
    lower, fix = index.lower, index.fix
    trail: list[int] = []
    # a cut with a model has no empty clause, and its root units hold
    alive, planes, free = fix(*index.root, free, 0, trail)
    root = alive, planes, free, sum(1 << code for code in trail if code > 0), 0
    size, vetted = 1 << free.bit_count(), 0
    leaves, queue = ([], deque([root])) if alive else ([root], deque())
    while (queue and vetted < budget
           and hits * size > _DRAWS_PER_NODE * vetted * result.count):
        alive, planes, free, word, depth = queue.popleft()
        _, block, bmask, records, closed = block_of(alive, planes, free,
                                                    depth, 0)
        size -= 1 << free.bit_count()
        rest = free & ~bmask
        for sat, bword, bits in records:
            vetted += 1
            if closed & ~sat:
                continue
            child = alive & ~sat
            del trail[:]
            found = fix(child, lower(child, planes, block, bits), rest, 0, trail)
            if found is None:
                continue
            size += 1 << found[2].bit_count()
            fixed = word | bword | sum(1 << code for code in trail if code > 0)
            (queue if found[0] else leaves).append((*found, fixed, depth + 1))

    def cubes(nodes) -> tuple[tuple[int, int], ...]:
        # bit v of a node's word and free mask is bit v-1 of the cube's
        return tuple((node[3] >> 1, node[2] >> 1) for node in nodes)
    return Frontier(cubes(leaves), cubes(queue), vetted)
