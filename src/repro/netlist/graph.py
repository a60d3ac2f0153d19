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
on top.  The networkx ``DiGraph`` remains available via
:func:`to_networkx` as a *compatibility/debug view* — it is built from
the CSR arrays, frozen, and is the only sanctioned place to hand a
netlist to networkx (ruff TID251 bans the import elsewhere).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..obs import add_counter
from .cache import memoized
from .csr import MAX_TRACKED_FF_DEPTH, CombinationalLoopError, CsrView, csr_view
from .netlist import Netlist, NetlistError

__all__ = [
    "CombinationalLoopError",
    "MAX_TRACKED_FF_DEPTH",
    "PathGuide",
    "combinational_cone",
    "combinational_gates_on",
    "combinational_order",
    "find_io_path",
    "flip_flop_depths",
    "levelize",
    "logic_depth",
    "reachable_between",
    "sequential_depth",
    "split_into_timing_paths",
    "to_networkx",
    "topological_order",
    "transitive_fanin",
    "transitive_fanout",
]


def to_networkx(
    netlist: Netlist, cut_flip_flops: bool = False, copy: bool = False
) -> nx.DiGraph:
    """A :class:`networkx.DiGraph` view of the netlist, memoized per
    structure revision.

    Edges run driver → reader.  With ``cut_flip_flops=True`` the edges into
    DFF D-pins are dropped, yielding the acyclic combinational view.  The
    returned graph is a shared cached view and is **frozen**
    (:func:`networkx.freeze`) — mutating it would silently poison the memo
    for every later reader, so mutation raises; pass ``copy=True`` for a
    private mutable copy.
    """
    key = "nx_cut" if cut_flip_flops else "nx_full"
    compute = _build_networkx_cut if cut_flip_flops else _build_networkx_full
    graph = memoized(netlist, key, compute)
    return graph.copy() if copy else graph


def _build_networkx_full(netlist: Netlist) -> nx.DiGraph:
    return _build_networkx(netlist, cut_flip_flops=False)


def _build_networkx_cut(netlist: Netlist) -> nx.DiGraph:
    return _build_networkx(netlist, cut_flip_flops=True)


def _build_networkx(netlist: Netlist, cut_flip_flops: bool) -> nx.DiGraph:
    view = csr_view(netlist)
    names = view.names
    graph = nx.DiGraph(name=netlist.name)
    for i in range(view.n):
        graph.add_node(names[i], gate_type=view.gate_types[i])
    fi_ptr, fi_idx = view.fanin_ptr, view.fanin_idx
    for i in range(view.n):
        if cut_flip_flops and view.is_seq[i]:
            continue
        base = fi_ptr[i]
        for k in range(base, fi_ptr[i + 1]):
            j = fi_idx[k]
            # Dangling references become attribute-less nodes, exactly as
            # ``add_edge`` used to create them from the name-based walk.
            src = names[j] if j >= 0 else view.dangling[(i, k - base)]
            graph.add_edge(src, names[i])
    return nx.freeze(graph)


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
    including the roots."""
    view = csr_view(netlist)
    visited = bytearray(view.n)
    reached: List[int] = []
    for name in roots:
        i = view.id_of(name)
        if not visited[i]:
            visited[i] = 1
            reached.append(i)
    fi_ptr, fi_idx = view.fanin_ptr, view.fanin_idx
    stack = reached[:]
    pop = stack.pop
    push = stack.append
    collect = reached.append
    while stack:
        i = pop()
        pins = fi_idx[fi_ptr[i] : fi_ptr[i + 1]]
        for j in pins:
            if j < 0:
                raise NetlistError(
                    f"no net named {view.dangling[(i, pins.index(-1))]!r}"
                )
            if not visited[j]:
                visited[j] = 1
                collect(j)
                push(j)
    return set(map(view.names.__getitem__, reached))


def transitive_fanout(netlist: Netlist, roots: Iterable[str]) -> Set[str]:
    """All nets reachable forwards from *roots* (crossing flip-flops),
    including the roots."""
    view = csr_view(netlist)
    visited = bytearray(view.n)
    reached: List[int] = []
    extra: Set[str] = set()
    for name in roots:
        i = view.index.get(name)
        if i is None:
            # Unknown (possibly dangling) root names still contribute
            # themselves and — if anything reads them — their readers.
            extra.add(name)
        elif not visited[i]:
            visited[i] = 1
            reached.append(i)
    if extra:
        for (reader, _pin), src in view.dangling.items():
            if src in extra and not visited[reader]:
                visited[reader] = 1
                reached.append(reader)
    fo_ptr, fo_idx = view.fanout_ptr, view.fanout_idx
    stack = reached[:]
    pop = stack.pop
    push = stack.append
    collect = reached.append
    while stack:
        i = pop()
        for r in fo_idx[fo_ptr[i] : fo_ptr[i + 1]]:
            if not visited[r]:
                visited[r] = 1
                collect(r)
                push(r)
    names = set(map(view.names.__getitem__, reached))
    return names | extra if extra else names


def combinational_cone(netlist: Netlist, sinks: Iterable[str]) -> Set[str]:
    """Backwards cone of *sinks* stopping at (and including) startpoints."""
    view = csr_view(netlist)
    visited = bytearray(view.n)
    reached: List[int] = []
    for name in sinks:
        i = view.id_of(name)
        if not visited[i]:
            visited[i] = 1
            reached.append(i)
    is_input, is_seq = view.is_input, view.is_seq
    fi_ptr, fi_idx = view.fanin_ptr, view.fanin_idx
    stack = reached[:]
    pop = stack.pop
    push = stack.append
    collect = reached.append
    while stack:
        i = pop()
        if is_input[i] or is_seq[i]:
            continue
        pins = fi_idx[fi_ptr[i] : fi_ptr[i + 1]]
        for j in pins:
            if j < 0:
                raise NetlistError(
                    f"no net named {view.dangling[(i, pins.index(-1))]!r}"
                )
            if not visited[j]:
                visited[j] = 1
                collect(j)
                push(j)
    return set(map(view.names.__getitem__, reached))


def reachable_between(netlist: Netlist, source: str, sink: str) -> bool:
    """True if *sink* is in the transitive fan-out of *source*."""
    view = csr_view(netlist)
    src = view.index.get(source)
    dst = view.index.get(sink)
    if src is None or dst is None:
        return sink in transitive_fanout(netlist, [source])
    return view.reachable(src, dst)


class PathGuide:
    """Precomputed BFS distances that steer the path DFS.

    ``to_startpoint[n]`` is the minimum number of combinational hops from a
    startpoint (PI or DFF output) to net *n* going forwards;
    ``to_endpoint[n]`` the minimum hops from *n* to an endpoint (PO or DFF
    D-pin).  The DFS prefers small distances, so the timing segments of the
    discovered I/O paths stay near-shortest — which is what makes the deep
    register paths of the paper *non-critical*.

    Distances and the DFS sort keys (:meth:`CsrView.guide_keys`) are int
    arrays on the CSR view's shared wiring holder; the name-keyed dict
    properties are built lazily for callers that still index by net name.
    """

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.view: CsrView = csr_view(netlist)
        self._start = self.view.startpoint_dist()
        self._end = self.view.endpoint_dist()
        self._to_startpoint: Optional[Dict[str, int]] = None
        self._to_endpoint: Optional[Dict[str, int]] = None

    @property
    def to_startpoint(self) -> Dict[str, int]:
        if self._to_startpoint is None:
            names = self.view.names
            self._to_startpoint = {
                names[i]: d for i, d in enumerate(self._start) if d >= 0
            }
        return self._to_startpoint

    @property
    def to_endpoint(self) -> Dict[str, int]:
        if self._to_endpoint is None:
            names = self.view.names
            self._to_endpoint = {
                names[i]: d for i, d in enumerate(self._end) if d >= 0
            }
        return self._to_endpoint


def find_io_path(
    netlist: Netlist,
    through: str,
    min_flip_flops: int = 2,
    rng=None,
    max_steps: int = 50_000,
    max_flip_flops: int = 10,
    guide: Optional[PathGuide] = None,
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
    shuffles neighbour order so repeated calls sample different paths; a
    :class:`PathGuide` keeps segments short (see its docstring).
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
        guide=guide,
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
        guide=guide,
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
    for i in range(len(ids) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        ids[i], ids[j] = ids[j], ids[i]


def _dfs_to_boundary(
    netlist: Netlist,
    start: str,
    forwards: bool,
    rng=None,
    max_steps: int = 50_000,
    avoid: Optional[Set[str]] = None,
    want_ffs: int = 0,
    max_ffs: int = 10,
    guide: Optional[PathGuide] = None,
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
    ``rng``.
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
    # the flip-flop bump (FF budget left), ``key_off`` without; with no
    # guide every rank without the bump is equal and the sort is skipped.
    if guide is not None:
        keys_on, keys_off = guide.view.guide_keys(forwards)
        missing = -(1 << 20)
    else:
        keys_on, keys_off = view.seq_rank(), None
        missing = 0
    if view.dangling:
        # A dangling fan-in id is -1, so index -1 must hold the rank the
        # historical name-based walk gave a missing net.
        keys_on = keys_on + [missing]
        keys_off = keys_off + [missing] if keys_off is not None else None
    key_on = keys_on.__getitem__
    key_off = keys_off.__getitem__ if keys_off is not None else None
    getrandbits = rng.getrandbits if rng is not None else None

    def expand(i: int, budget_left: bool) -> List[int]:
        nxt = adj_idx[adj_ptr[i] : adj_ptr[i + 1]]
        if len(nxt) > 1:
            if getrandbits is not None:
                _shuffle_ids(nxt, getrandbits)
            key = key_on if budget_left else key_off
            if key is not None:
                nxt.sort(key=key)
        return nxt

    # Backtracking DFS.  States are visited in exactly the order the
    # historical snapshot-copying stack popped them (children expand
    # best-last, so the traversal walks each node's most preferred
    # subtree to exhaustion before its next sibling), but the current
    # path and FF count are maintained incrementally.  ``suspended``
    # holds each ancestor's (children, next index from the end).
    best: Optional[List[int]] = None
    best_ffs = -1
    steps = 1
    exhausted = False
    if boundary[start_id]:
        best, best_ffs = [start_id], 0
    else:
        path: List[int] = [start_id]
        blocked[start_id] = 1
        ffs = 0
        kids = expand(start_id, 0 < max_ffs)
        ptr = len(kids) - 1
        suspended: List[Tuple[List[int], int]] = []
        while True:
            if ptr < 0:
                if not suspended:
                    break
                kids, ptr = suspended.pop()
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
                break
            if boundary[j]:
                nf = ffs + bump
                if nf > best_ffs:
                    best = path + [j]
                    best_ffs = nf
                if nf >= want_ffs:
                    break
                continue
            suspended.append((kids, ptr))
            path.append(j)
            blocked[j] = 1
            ffs += bump
            kids = expand(j, ffs < max_ffs)
            ptr = len(kids) - 1
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
