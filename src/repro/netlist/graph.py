"""Graph analysis over netlists.

Two views of the same netlist matter to the paper's algorithms:

* the **combinational view**, in which DFFs are cut (Q pins become timing
  startpoints, D pins endpoints) — used by STA and levelized simulation;
* the **sequential view**, in which DFFs are pass-through nodes — used to
  find primary-input→primary-output *I/O paths* and to count the flip-flops
  a path crosses (the paper's circuit depth ``D``).

Every traversal here runs over the int-indexed flat-array snapshot from
:mod:`repro.netlist.csr` (one shared :class:`~repro.netlist.csr.CsrView`
per structure revision); this module keeps the historical name-based API
on top.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs import add_counter
from .cache import memoized
from .csr import (
    MAX_TRACKED_FF_DEPTH,
    ORDER,
    RUN_BOUNDARY,
    RUN_EXPAND,
    SHUFFLE_PLANS,
    UNREACHABLE_KEY,
    CombinationalLoopError,
    csr_view,
    shuffle_plan,
)
from .netlist import Netlist, NetlistError

__all__ = [
    "CombinationalLoopError",
    "MAX_TRACKED_FF_DEPTH",
    "combinational_cone",
    "combinational_gates_on",
    "combinational_order",
    "d_pins",
    "find_io_path",
    "flip_flop_depths",
    "levelize",
    "logic_depth",
    "sequential_depth",
    "split_into_timing_paths",
    "startpoints",
    "topological_order",
    "transitive_fanin",
    "transitive_fanout",
]


def topological_order(netlist: Netlist) -> List[str]:
    """Topological order of the combinational view (Kahn's algorithm),
    memoized per structure revision.

    INPUT and DFF nodes (the startpoints) come first.  Raises
    :class:`CombinationalLoopError` if combinational logic forms a cycle.
    The returned list is a shared cached snapshot — do not mutate it.
    """
    return memoized(netlist, "topo_order", _compute_topological_order)


def combinational_order(netlist: Netlist) -> List[str]:
    """Combinational gate/LUT names in topological order (startpoints
    filtered out) — the evaluation schedule of the simulators, memoized
    per structure revision.  Shared cached snapshot; do not mutate."""
    return memoized(netlist, "comb_order", _compute_combinational_order)


def startpoints(netlist: Netlist) -> Tuple[List[str], List[str]]:
    """``(inputs, flip_flops)`` of *netlist*, memoized per structure
    revision (the :class:`Netlist` properties rebuild both lists on every
    read).  Shared cached snapshot; do not mutate."""
    return memoized(
        netlist, "startpoints", lambda nl: (nl.inputs, nl.flip_flops)
    )


def d_pins(netlist: Netlist) -> List[str]:
    """The D-pin net of every flip-flop, in ``flip_flops`` order: the
    next-state nets a scan chain observes.  Memoized per structure
    revision; shared cached snapshot, do not mutate."""
    return memoized(
        netlist,
        "d_pins",
        lambda nl: [nl.node(ff).fanin[0] for ff in startpoints(nl)[1]],
    )


def _compute_topological_order(netlist: Netlist) -> List[str]:
    view = csr_view(netlist)
    return view.names_of(view.topo_order())


def _compute_combinational_order(netlist: Netlist) -> List[str]:
    view = csr_view(netlist)
    return view.names_of(view.comb_order())


def levelize(netlist: Netlist) -> Dict[str, int]:
    """Logic level of every net: startpoints are level 0, gates are
    ``1 + max(level of fan-in)``.  Memoized per structure revision; the
    returned dict is a shared cached snapshot — do not mutate."""
    return memoized(netlist, "levels", _compute_levels)


def _compute_levels(netlist: Netlist) -> Dict[str, int]:
    view = csr_view(netlist)
    lv = view.levels()
    names = view.names
    return {names[i]: lv[i] for i in view.topo_order()}


def logic_depth(netlist: Netlist) -> int:
    """Maximum combinational logic level in the design."""
    levels = csr_view(netlist).levels()
    return max(levels, default=0)


def sequential_depth(netlist: Netlist) -> int:
    """The paper's circuit depth ``D``: the maximum number of flip-flops on
    any simple path from a primary input to a primary output.

    Computed as a longest-path problem over the *stage DAG*: contract each
    maximal combinational region between sequential elements and count DFF
    crossings.  Cyclic FF-to-FF feedback (common in controllers) is handled
    by bounding the count at the number of flip-flops.
    """
    view = csr_view(netlist)
    depth = view.ff_depths()
    best = 0
    for i in view.output_ids:
        if depth[i] > best:
            best = depth[i]
    return best


def flip_flop_depths(netlist: Netlist) -> Dict[str, int]:
    """For every net, the maximum number of DFFs on an acyclic path from a
    primary input to that net (DFF output counts the DFF itself).

    Uses iterative relaxation over the sequential view; values (and hence
    iteration count) saturate at :data:`MAX_TRACKED_FF_DEPTH`.
    """
    view = csr_view(netlist)
    depth = view.ff_depths()
    names = view.names
    return {names[i]: depth[i] for i in range(view.n)}


def transitive_fanin(netlist: Netlist, roots: Iterable[str]) -> Set[str]:
    """All nets reachable backwards from *roots* (crossing flip-flops),
    including the roots.  A dangling pin of a reached node raises
    :class:`NetlistError`."""
    return _backward_cone(netlist, roots, expand_startpoints=True)


def transitive_fanout(netlist: Netlist, roots: Iterable[str]) -> Set[str]:
    """All nets reachable forwards from *roots* (crossing flip-flops),
    including the roots.  An unknown (possibly dangling) root name still
    contributes itself and the cone of any node that reads it."""
    view = csr_view(netlist)
    ids: List[int] = []
    extra: Set[str] = set()
    for name in roots:
        i = view.index.get(name)
        if i is None:
            extra.add(name)
        else:
            ids.append(i)
    if extra:
        ids += [r for (r, _pin), src in view.dangling.items() if src in extra]
    return set(map(view.names.__getitem__, view.forward_ids(ids))) | extra


def combinational_cone(netlist: Netlist, sinks: Iterable[str]) -> Set[str]:
    """Backwards cone of *sinks* stopping at (and including) startpoints.
    A dangling pin of a reached gate raises :class:`NetlistError`; the
    walk never expands a startpoint, so a DFF's dangling D pin does not."""
    return _backward_cone(netlist, sinks, expand_startpoints=False)


def _backward_cone(
    netlist: Netlist, roots: Iterable[str], expand_startpoints: bool
) -> Set[str]:
    """The names :meth:`CsrView.backward_ids` reaches from *roots*.  The
    kernel skips dangling pins; here one on a node the walk expanded
    raises."""
    view = csr_view(netlist)
    reached = view.backward_ids(
        [view.id_of(name) for name in roots], expand_startpoints
    )
    if view.dangling:
        hit = set(reached)
        for (i, _pin), name in view.dangling.items():
            if i in hit and (expand_startpoints or view.is_comb[i]):
                raise NetlistError(f"no net named {name!r}")
    return set(map(view.names.__getitem__, reached))


def find_io_path(
    netlist: Netlist,
    through: str,
    rng: random.Random,
    min_flip_flops: int = 2,
    max_steps: int = 50_000,
    max_flip_flops: int = 10,
) -> Optional[List[str]]:
    """Find one simple PI→PO path through net *through* crossing at least
    *min_flip_flops* DFFs (Section IV-A: "perform a depth-first search in the
    graph to find the path to a primary input and a primary output of the
    circuit containing at least two flip-flops").

    Returns the path as a list of net names (PI first, PO last) or ``None``.
    A backwards DFS finds a PI→through prefix and a forwards DFS a
    through→PO suffix; flip-flops crossed on either side count towards the
    requirement and saturate at *max_flip_flops* (register feedback would
    otherwise let paths wind through arbitrarily many registers).  *rng*
    shuffles neighbour order so repeated calls sample different paths.

    Among the shuffled neighbours the walk prefers a flip-flop (while the
    budget lasts), then the one closest to a boundary: the guide keys
    (:meth:`CsrView.guide_keys`) rank by the BFS distance to an endpoint
    (forwards) or from a startpoint (backwards).  That keeps the timing
    segments of the discovered paths near-shortest — which is what makes
    the deep register paths of the paper *non-critical*.
    """
    # Hunt for *deep* paths (the paper sorts by depth and its algorithms
    # consume the deepest): aim for the cap, settle for what the structure
    # offers, and reject only below the minimum.
    reachable_ffs = min(max_flip_flops, csr_view(netlist).n_flip_flops)
    backward = _dfs_to_boundary(
        netlist,
        through,
        forwards=False,
        rng=rng,
        max_steps=max_steps,
        want_ffs=max(reachable_ffs // 2, min_flip_flops),
        max_ffs=max_flip_flops,
    )
    if backward is None:
        return None
    prefix, prefix_ffs = backward
    forward = _dfs_to_boundary(
        netlist,
        through,
        forwards=True,
        rng=rng,
        max_steps=max_steps,
        avoid=set(prefix[:-1]),
        want_ffs=max(reachable_ffs - prefix_ffs, min_flip_flops - prefix_ffs),
        max_ffs=max(max_flip_flops - prefix_ffs, 0),
    )
    if forward is None:
        return None
    suffix, suffix_ffs = forward
    if prefix_ffs + suffix_ffs < min_flip_flops:
        return None
    return prefix[:-1] + suffix


def _shuffle_ids(ids: List[int], getrandbits) -> None:
    """Shuffle *ids* in place, drawing exactly what ``random.Random.shuffle``
    draws from the generator whose ``getrandbits`` is given.

    This is CPython's Fisher–Yates pass with its
    ``_randbelow_with_getrandbits``: the index for slot *i* is
    ``getrandbits(k)`` with ``k = (i + 1).bit_length()``, redrawn while
    it is out of range.  Lists of 0 or 1 entries draw nothing.
    """
    length = len(ids)
    if length < len(SHUFFLE_PLANS):
        plan = SHUFFLE_PLANS[length]
    else:
        plan = shuffle_plan(length)
    for i, n, k in plan:
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        ids[i], ids[j] = ids[j], ids[i]


#: The children of a node the walk backtracks from at once.
_NO_KIDS: Tuple[int, ...] = ()


def _dfs_to_boundary(
    netlist: Netlist,
    start: str,
    forwards: bool,
    rng: random.Random,
    max_steps: int = 50_000,
    avoid: Optional[Set[str]] = None,
    want_ffs: int = 0,
    max_ffs: int = 10,
) -> Optional[Tuple[List[str], int]]:
    """DFS from *start* to a primary output (forwards) or primary input
    (backwards), preferring flip-flop crossings and short segments.

    Returns ``(path, n_ffs)``; the path is ordered PI→…→PO direction in both
    modes (i.e. reversed for the backwards search), and includes *start*.

    Runs entirely over int node ids.  Neighbour candidate order (name-sorted
    fan-out / pin-order fan-in), rng draws, and the stable preference sort
    are identical to the historical name-based walk, so the same ``rng``
    selects the same paths.  The walk must never prune: one skipped
    expansion skips its shuffle and shifts every later draw of the shared
    ``rng``.  Each expansion reads the node's entry in the wiring's
    expansion table (:class:`~repro.netlist.csr.DfsExpansions`): a chain
    of single-neighbour nodes is entered as one run, and a node of 2–4
    neighbours looks its sorted order up from its draws.
    """
    view = csr_view(netlist)
    start_id = view.id_of(start)
    # On-path and avoided nodes alike are never entered.
    blocked = bytearray(view.n)
    if avoid:
        for name in avoid:
            j = view.index.get(name)
            if j is not None:
                blocked[j] = 1
    is_seq = view.is_seq
    boundary = view.is_po if forwards else view.is_input
    if forwards:
        adj_ptr, adj_idx = view.fanout_ptr, view.fanout_idx
    else:
        adj_ptr, adj_idx = view.fanin_ptr, view.fanin_idx
    # Neighbour preference is a stable ascending sort by the packed
    # (ff_rank, closeness) key after the rng shuffle — the walk pops from
    # the end, so the best candidate sorts last.  ``key_on`` ranks with
    # the flip-flop bump (FF budget left), ``key_off`` without.  Nodes up
    # to MAX_ORDER_WIDTH neighbours look the sorted order up in the
    # expansion table; only wider ones sort here.
    keys_on, keys_off = view.guide_keys(forwards)
    if view.dangling:
        # A dangling fan-in id is -1, so index -1 must hold the rank the
        # name-based walk gives a missing net.
        keys_on = keys_on + [UNREACHABLE_KEY]
        keys_off = keys_off + [UNREACHABLE_KEY]
    key_on = keys_on.__getitem__
    key_off = keys_off.__getitem__
    getrandbits = rng.getrandbits
    shuffle = _shuffle_ids
    table = view.dfs_expansions(forwards)
    entries = table.entries
    build = table.build
    # ffs never drops below 0, so a negative cap reads as 0.
    max_ffs = max(max_ffs, 0)

    # Backtracking DFS.  States are visited in exactly the order the
    # historical snapshot-copying stack popped them (children expand
    # best-last, so the traversal walks each node's most preferred
    # subtree to exhaustion before its next sibling), but the current
    # path and FF count are maintained incrementally.  ``suspended``
    # holds each ancestor's (children, next index from the end); a run's
    # interior, entered whole, is one ``(nodes, -2 - flip-flops)`` entry.
    best: Optional[List[int]] = None
    best_ffs = -1
    steps = 1
    exhausted = False
    if boundary[start_id]:
        best, best_ffs = [start_id], 0
    else:
        path: List[int] = []
        ffs = 0
        suspended: List[Tuple[Sequence[int], int]] = []
        kids: Sequence[int] = _NO_KIDS
        ptr = -1
        # The start's flip-flop is not counted.
        j, bump = start_id, 0
        while True:
            # Expand j, entered (counted) but not on the path yet.
            entry = entries[j] or build(j)
            kind = entry[0]
            if kind <= RUN_EXPAND:
                # A run: node by node the walk would enter it without a
                # draw, so it is entered whole, up to the first node on
                # the path or avoided, or the flip-flop past the cap.
                # Unless it leads on to a wider node, j and the run are
                # left again at once, so neither is pushed.
                run, ff_at = entry[1], entry[2]
                n_ff = len(ff_at)
                cut = len(run)
                room = max_ffs - ffs - bump
                if room < n_ff:
                    cut = ff_at[room]
                for k in range(cut):
                    if blocked[run[k]]:
                        cut = k
                        break
                steps += cut
                if steps > max_steps:
                    exhausted = True
                    break
                if cut == len(run):
                    if kind == RUN_EXPAND:
                        suspended.append((kids, ptr))
                        path.append(j)
                        blocked[j] = 1
                        ffs += bump
                        interior = entry[3]
                        if interior is not None:
                            suspended.append(interior)
                            for k in interior[0]:
                                blocked[k] = 1
                            path += interior[0]
                            ffs -= interior[1] + 2
                        # The run's last node expands next, as entered
                        # from a single-entry list.
                        kids, ptr = _NO_KIDS, -1
                        j = run[-1]
                        bump = is_seq[j]
                        entry = entries[j] or build(j)
                        kind = entry[0]
                    elif kind == RUN_BOUNDARY:
                        nf = ffs + bump + n_ff
                        if nf > best_ffs:
                            best = path + [j] + run
                            best_ffs = nf
                        if nf >= want_ffs:
                            break
            if kind > RUN_EXPAND:
                suspended.append((kids, ptr))
                path.append(j)
                blocked[j] = 1
                ffs += bump
                if kind == ORDER:
                    # The draws _shuffle_ids makes, folded into the index
                    # of the order they produce.  Two neighbours (most
                    # nodes) draw once, from plan ((1, 2, 2),).
                    plan = entry[3]
                    if len(plan) == 1:
                        index = getrandbits(2)
                        while index > 1:
                            index = getrandbits(2)
                    else:
                        index = 0
                        for _, n, k in plan:
                            r = getrandbits(k)
                            while r >= n:
                                r = getrandbits(k)
                            index = index * n + r
                    kids = entry[1 if ffs < max_ffs else 2][index]
                else:
                    kids = adj_idx[adj_ptr[j] : adj_ptr[j + 1]]
                    shuffle(kids, getrandbits)
                    kids.sort(key=key_on if ffs < max_ffs else key_off)
                ptr = len(kids) - 1
            # Find the next node to enter, backtracking as needed; the
            # walk ends with j = -1.
            while True:
                if ptr < 0:
                    if not suspended:
                        j = -1
                        break
                    kids, ptr = suspended.pop()
                    if ptr < -1:
                        # Leave a run's interior whole.
                        del path[-len(kids) :]
                        for left in kids:
                            blocked[left] = 0
                        ffs += ptr + 2
                        continue
                    left = path.pop()
                    blocked[left] = 0
                    ffs -= is_seq[left]
                    continue
                j = kids[ptr]
                ptr -= 1
                if j < 0 or blocked[j]:
                    continue
                bump = is_seq[j]
                if bump and ffs >= max_ffs:
                    continue
                steps += 1
                if steps > max_steps:
                    exhausted = True
                    j = -1
                    break
                if boundary[j]:
                    nf = ffs + bump
                    if nf > best_ffs:
                        best = path + [j]
                        best_ffs = nf
                    if nf >= want_ffs:
                        j = -1
                        break
                    continue
                break
            if j < 0:
                break
    if exhausted:
        add_counter("paths.budget_exhausted")
        steps = max_steps
    add_counter("paths.dfs_steps", steps)
    if best is None:
        return None
    ids, n_ffs = best, best_ffs
    if not forwards:
        ids = list(reversed(ids))
    return view.names_of(ids), n_ffs


def split_into_timing_paths(netlist: Netlist, io_path: Sequence[str]) -> List[List[str]]:
    """Split an I/O path into its composing *timing paths* — the maximal
    segments between timing startpoints/endpoints (PIs, DFFs, POs).

    Each returned segment is a list of net names whose interior members are
    combinational gates; segment boundaries (PI/DFF endpoints) are included
    so callers can identify launch/capture points.
    """
    view = csr_view(netlist)
    is_seq = view.is_seq
    segments: List[List[str]] = []
    current: List[str] = []
    for name in io_path:
        current.append(name)
        if is_seq[view.id_of(name)] and len(current) > 1:
            segments.append(current)
            current = [name]
    if len(current) > 1:
        segments.append(current)
    return segments


def combinational_gates_on(netlist: Netlist, path: Sequence[str]) -> List[str]:
    """The combinational gate/LUT nets on a path (endpoints filtered out)."""
    view = csr_view(netlist)
    is_comb = view.is_comb
    return [name for name in path if is_comb[view.id_of(name)]]
