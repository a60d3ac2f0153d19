"""Flat contiguous-array (CSR) netlist views: int-indexed graph kernels.

Every traversal-heavy stage of the pipeline — STA, path selection, lint
structural rules, dataflow cone extraction, codegen ordering — used to
re-walk the ``Netlist``'s name-keyed dict-of-objects graph: each hop paid
a dict lookup, an attribute chase, and (for fan-out) a ``sorted(set)``
allocation.  :class:`CsrView` replaces all of it with one contiguous
snapshot per structure revision:

* **int node ids** — nodes are numbered 0..n-1 in insertion order;
  ``names[i]`` / ``index[name]`` translate both ways.
* **CSR adjacency** — ``fanin_idx[fanin_ptr[i]:fanin_ptr[i+1]]`` is node
  *i*'s ordered fan-in (pin 0 first, duplicates preserved, ``-1`` for a
  dangling reference); ``fanout_idx[fanout_ptr[i]:fanout_ptr[i+1]]`` its
  deduplicated readers sorted by *name* (matching
  :meth:`~repro.netlist.netlist.Netlist.fanout`, which keeps rng-driven
  consumers bit-identical).  The ptr/idx pairs are flat Python int lists:
  the classic contiguous CSR layout, but indexed at list speed — CPython
  boxes every ``array('i')`` access, which costs ~2x in the hot kernels.
* **typed columns** — per-node gate type plus byte-flag arrays for
  INPUT / DFF / combinational / LUT / primary-output membership and
  "feeds a flip-flop" (zero new dependencies).
* **kernels** — Kahn levelization and topological order over the
  *combinational-cut* view, forward/backward cone-of-influence whose
  cost is proportional to the cone (ids are collected during the walk,
  never by re-scanning all nodes) with optional word-packed bitset
  output, startpoint/endpoint BFS distances for path guidance, and
  saturating flip-flop-depth relaxation over the *sequential* view,
  forwards (depth from an input) and backwards (the paper's D_i).

The view is **read-only** and served through the existing
:mod:`repro.netlist.cache` revision-counter memo: ``csr_view(netlist)``
is O(1) until the next structural mutation, at which point the whole
epoch is dropped and the next query rebuilds.  There is deliberately no
second invalidation mechanism.  The rebuilt view does not recompute its
wiring-only kernels, though, when some live view already has the same
wiring (a copy, or the netlist before a gate-type rewrite): both views
hold one :class:`Wiring`, found by content, never by revision.

Construction, the fan-out CSR and the levelization kernel are traced
(``netlist.csr.build`` / ``netlist.csr.fanout`` / ``netlist.csr.levelize``
spans; ``netlist.csr.nodes`` / ``netlist.csr.edges`` /
``netlist.csr.wiring_shared`` counters) so BENCH deltas stay attributable
— see ``docs/OBSERVABILITY.md``.

See ``docs/PERFORMANCE.md`` ("The CSR netlist core") for the id↔name
mapping contract and guidance on when to use which view.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..obs import add_counter, span
from .cache import memoized
from .gates import GateType
from .netlist import Netlist, NetlistError


class CombinationalLoopError(NetlistError):
    """Raised when the combinational view of a netlist contains a cycle."""


#: Saturation point for flip-flop-depth relaxation.  Simple paths can cross
#: at most every register once, but chasing that bound costs O(|FF|·|V|) and
#: depths beyond a few dozen add nothing to the security metrics (they only
#: scale the already-astronomical clock counts linearly), so relaxation
#: saturates here.
MAX_TRACKED_FF_DEPTH = 32

#: Packed-rank stride for the path-DFS neighbour ordering: a sequential
#: node's preference bump must dominate any closeness value, and closeness
#: magnitudes are bounded by the graph diameter (far below 2**20).
SEQ_RANK = 1 << 21


class CsrView:
    """One netlist's flat-array snapshot at one structure revision.

    Treat every attribute as read-only: views are shared between all
    consumers of the same revision.  Derived kernels (topological order,
    levels, BFS distances, flip-flop depths, D_i) are computed lazily and
    cached on the view's :class:`Wiring` holder, which every view of
    equal wiring shares.  Gate types, the LUT column and LUT configs
    stay per view.
    """

    __slots__ = (
        "name",
        "n",
        "n_edges",
        "n_flip_flops",
        "ff_ids",
        "names",
        "index",
        "gate_types",
        "is_input",
        "is_seq",
        "is_comb",
        "is_lut",
        "is_po",
        "output_ids",
        "fanin_ptr",
        "fanin_idx",
        "dangling",
        "wiring",
        "__weakref__",
    )

    def __init__(self, netlist: Netlist):
        nodes = netlist.nodes()
        n = len(nodes)
        self.name = netlist.name
        self.n = n
        names: List[str] = [nd.name for nd in nodes]
        self.names = names
        index: Dict[str, int] = {nm: i for i, nm in enumerate(names)}
        self.index = index
        gate_types: List[GateType] = [nd.gate_type for nd in nodes]
        self.gate_types = gate_types

        is_input = bytearray(n)
        is_seq = bytearray(n)
        is_comb = bytearray(n)
        is_lut = bytearray(n)
        ff_ids: List[int] = []
        gt_input, gt_dff, gt_lut = GateType.INPUT, GateType.DFF, GateType.LUT
        for i, gt in enumerate(gate_types):
            if gt is gt_input:
                is_input[i] = 1
            elif gt is gt_dff:
                is_seq[i] = 1
                ff_ids.append(i)
            else:
                is_comb[i] = 1
                if gt is gt_lut:
                    is_lut[i] = 1
        self.is_input = is_input
        self.is_seq = is_seq
        self.is_comb = is_comb
        self.is_lut = is_lut
        self.ff_ids = ff_ids
        self.n_flip_flops = len(ff_ids)

        # Fan-in CSR: pin order, duplicates preserved, -1 = dangling.
        fanin_ptr = [0] * (n + 1)
        fanin_idx: List[int] = []
        dangling: Dict[Tuple[int, int], str] = {}
        get = index.get
        for i, nd in enumerate(nodes):
            fanin = nd.fanin
            ids = [get(s, -1) for s in fanin]
            fanin_idx += ids
            fanin_ptr[i + 1] = len(fanin_idx)
            if -1 in ids:
                for pin, j in enumerate(ids):
                    if j < 0:
                        dangling[(i, pin)] = fanin[pin]
        self.fanin_ptr = fanin_ptr
        self.fanin_idx = fanin_idx
        self.dangling = dangling
        self.n_edges = len(fanin_idx)

        is_po = bytearray(n)
        output_ids: List[int] = []
        for po in netlist.outputs:
            i = index.get(po)
            if i is not None:
                is_po[i] = 1
                output_ids.append(i)
        self.is_po = is_po
        self.output_ids = output_ids

        # A private holder; csr_view() swaps in the one shared by every
        # view of equal wiring.
        self.wiring = Wiring()

    # ------------------------------------------------------------------
    # fan-out CSR (a wiring kernel, built on first use)
    # ------------------------------------------------------------------
    def _fanout(self) -> Tuple[List[int], List[int], bytearray, List[int]]:
        """``(fanout_ptr, fanout_idx, feeds_ff, indegree0)``.

        Readers are deduplicated and sorted by *name*, so a slice is
        exactly ``Netlist.fanout(name)`` translated to ids.  The Kahn seed
        indegrees count distinct fan-in *names* (dangling included, zero
        for startpoints), matching the dict-walk exactly: a dangling
        reference can never become ready, so Kahn reports the same
        CombinationalLoopError the old implementation did.
        """
        if self.wiring.fanout is None:
            with span("netlist.csr.fanout", nodes=self.n):
                self.wiring.fanout = self._build_fanout()
        return self.wiring.fanout

    def _build_fanout(
        self,
    ) -> Tuple[List[int], List[int], bytearray, List[int]]:
        n = self.n
        is_comb, is_seq = self.is_comb, self.is_seq
        fi_ptr, fi_idx = self.fanin_ptr, self.fanin_idx
        dangling = self.dangling
        indegree0 = [0] * n
        fo_lists: List[List[int]] = [[] for _ in range(n)]
        for i in range(n):
            b, e = fi_ptr[i], fi_ptr[i + 1]
            # Readers arrive in increasing id order, so each fo_list
            # stays id-sorted and duplicate-free without a set probe.
            if e - b == 1:
                j = fi_idx[b]
                if j >= 0:
                    fo_lists[j].append(i)
                if is_comb[i]:
                    indegree0[i] = 1
                continue
            distinct = set(fi_idx[b:e])
            for j in distinct:
                if j >= 0:
                    fo_lists[j].append(i)
            if is_comb[i]:
                if -1 in distinct:
                    missing = {
                        dangling[(i, k - b)]
                        for k in range(b, e)
                        if fi_idx[k] < 0
                    }
                    indegree0[i] = len(distinct) - 1 + len(missing)
                else:
                    indegree0[i] = len(distinct)
        fanout_ptr = [0] * (n + 1)
        fanout_idx: List[int] = []
        feeds_ff = bytearray(n)
        sort_key = self.names.__getitem__
        for j, readers in enumerate(fo_lists):
            if len(readers) > 1:
                readers.sort(key=sort_key)
            fanout_idx += readers
            fanout_ptr[j + 1] = len(fanout_idx)
            for r in readers:
                if is_seq[r]:
                    feeds_ff[j] = 1
                    break
        return fanout_ptr, fanout_idx, feeds_ff, indegree0

    @property
    def fanout_ptr(self) -> List[int]:
        return self._fanout()[0]

    @property
    def fanout_idx(self) -> List[int]:
        return self._fanout()[1]

    @property
    def feeds_ff(self) -> bytearray:
        """Byte flag per node: some DFF reads it (it drives a D pin)."""
        return self._fanout()[2]

    @property
    def indegree0(self) -> List[int]:
        return self._fanout()[3]

    # ------------------------------------------------------------------
    # id <-> name helpers
    # ------------------------------------------------------------------
    def id_of(self, name: str) -> int:
        """The node id of *name*; raises :class:`NetlistError` if unknown."""
        try:
            return self.index[name]
        except KeyError as exc:
            raise NetlistError(f"no net named {name!r}") from exc

    def names_of(self, ids: Iterable[int]) -> List[str]:
        return list(map(self.names.__getitem__, ids))

    def fanin_ids(self, i: int) -> List[int]:
        """Ordered fan-in ids of node *i* (``-1`` entries preserved)."""
        return self.fanin_idx[self.fanin_ptr[i] : self.fanin_ptr[i + 1]]

    def fanout_ids(self, i: int) -> List[int]:
        """Name-sorted reader ids of node *i*."""
        return self.fanout_idx[self.fanout_ptr[i] : self.fanout_ptr[i + 1]]

    def fanout_degree(self, i: int) -> int:
        return self.fanout_ptr[i + 1] - self.fanout_ptr[i]

    def d_pin(self, i: int) -> int:
        """The D-pin driver id of DFF *i* (``-1`` if dangling)."""
        return self.fanin_idx[self.fanin_ptr[i]]

    # ------------------------------------------------------------------
    # levelization kernels (combinational-cut view)
    # ------------------------------------------------------------------
    def topo_order(self) -> List[int]:
        """Node ids in topological order of the combinational-cut view.

        Startpoints (INPUT / DFF) first, in id order; readers become ready
        in name-sorted order — byte-identical to the historical dict-walk
        order.  Raises :class:`CombinationalLoopError` on a cycle (or on a
        dangling reference, whose reader can never become ready — also the
        historical behaviour).
        """
        if self.wiring.topo is None:
            indeg = self.indegree0[:]
            is_seq = self.is_seq
            fo_ptr, fo_idx = self.fanout_ptr, self.fanout_idx
            ready: deque = deque(
                [i for i in range(self.n) if not indeg[i]]
            )
            pop = ready.popleft
            push = ready.append
            order: List[int] = []
            append = order.append
            while ready:
                i = pop()
                append(i)
                for r in fo_idx[fo_ptr[i] : fo_ptr[i + 1]]:
                    if is_seq[r]:
                        continue
                    d = indeg[r] - 1
                    indeg[r] = d
                    if not d:
                        push(r)
            if len(order) != self.n:
                names = self.names
                stuck = sorted(
                    names[i] for i in range(self.n) if indeg[i] > 0
                )
                raise CombinationalLoopError(
                    f"combinational loop involving nets: {stuck[:10]}"
                )
            self.wiring.topo = order
        return self.wiring.topo

    def comb_order(self) -> List[int]:
        """Combinational node ids (gates/LUTs) in topological order."""
        if self.wiring.comb is None:
            is_comb = self.is_comb
            self.wiring.comb = [i for i in self.topo_order() if is_comb[i]]
        return self.wiring.comb

    def levels(self) -> List[int]:
        """Logic level per node id: startpoints 0, gates 1+max(fan-in)."""
        if self.wiring.levels is None:
            with span("netlist.csr.levelize", nodes=self.n):
                order = self.topo_order()
                lv = [0] * self.n
                at = lv.__getitem__
                is_comb = self.is_comb
                fi_ptr, fi_idx = self.fanin_ptr, self.fanin_idx
                # Fast paths for the overwhelmingly common 1- and 2-input
                # gates; the max(map(...)) machinery only pays for wider
                # fan-ins.
                for i in order:
                    if is_comb[i]:
                        b = fi_ptr[i]
                        e = fi_ptr[i + 1]
                        w = e - b
                        if w == 2:
                            a = lv[fi_idx[b]]
                            c = lv[fi_idx[b + 1]]
                            lv[i] = (a if a > c else c) + 1
                        elif w == 1:
                            lv[i] = lv[fi_idx[b]] + 1
                        elif w:
                            lv[i] = 1 + max(map(at, fi_idx[b:e]))
                        else:
                            lv[i] = 1
                self.wiring.levels = lv
        return self.wiring.levels

    def ff_depths(self) -> List[int]:
        """Max flip-flops on an acyclic PI→net path, saturating at
        :data:`MAX_TRACKED_FF_DEPTH` (sequential-view relaxation)."""
        if self.wiring.ff_depths is None:
            cap = max(min(self.n_flip_flops, MAX_TRACKED_FF_DEPTH), 1)
            depth = [0] * self.n
            at = depth.__getitem__
            is_input, is_seq = self.is_input, self.is_seq
            fi_ptr, fi_idx = self.fanin_ptr, self.fanin_idx
            clean = not self.dangling
            changed = True
            iterations = 0
            while changed and iterations <= cap + 1:
                changed = False
                iterations += 1
                for i in range(self.n):
                    if is_input[i]:
                        continue
                    pins = fi_idx[fi_ptr[i] : fi_ptr[i + 1]]
                    if not pins:
                        continue
                    if clean:
                        new = max(map(at, pins))
                    else:
                        new = max(depth[j] if j >= 0 else 0 for j in pins)
                    if is_seq[i]:
                        new += 1
                    if new > cap:
                        new = cap
                    if new > depth[i]:
                        depth[i] = new
                        changed = True
            self.wiring.ff_depths = depth
        return self.wiring.ff_depths

    def depth_to_output(self) -> Dict[str, int]:
        """Per-net maximum number of flip-flops between the net and a
        primary output (the paper's D_i), by reverse relaxation saturating
        at :data:`MAX_TRACKED_FF_DEPTH`.

        Sweeps run in node order and update in place, and the sweep count
        is capped, so the order is part of the result; dangling fan-in nets
        get entries after the nodes, in the order they were first raised.
        Shared snapshot; do not mutate."""
        if self.wiring.depth_to_output is None:
            is_seq, fi_ptr, fi_idx = self.is_seq, self.fanin_ptr, self.fanin_idx
            cap = max(min(self.n_flip_flops, MAX_TRACKED_FF_DEPTH), 1)
            depth = [0] * self.n
            dangling_pins: Dict[int, List[str]] = {}
            for (i, _), name in self.dangling.items():
                dangling_pins.setdefault(i, []).append(name)
            dangling: Dict[str, int] = {}
            changed = True
            iterations = 0
            while changed and iterations <= cap + 1:
                changed = False
                iterations += 1
                for i in range(self.n):
                    through = depth[i] + is_seq[i]
                    for j in fi_idx[fi_ptr[i] : fi_ptr[i + 1]]:
                        if j >= 0 and through > depth[j]:
                            depth[j] = through
                            changed = True
                    for name in dangling_pins.get(i, ()):
                        if through > dangling.get(name, 0):
                            dangling[name] = through
                            changed = True
            result = dict(zip(self.names, depth))
            result.update(dangling)
            self.wiring.depth_to_output = result
        return self.wiring.depth_to_output

    # ------------------------------------------------------------------
    # cone-of-influence kernels
    # ------------------------------------------------------------------
    def forward_ids(
        self, roots: Sequence[int], enter_sequential: bool = True
    ) -> List[int]:
        """Ids in the forward cone of *roots* (roots included), in
        discovery order — work proportional to the cone, never to the
        whole netlist.

        With ``enter_sequential=False`` the walk never enters a DFF node —
        the *combinational* fan-out whose frontier nets are the D pins
        (the dataflow observation-point convention).
        """
        visited = bytearray(self.n)
        reached: List[int] = []
        for r in roots:
            if not visited[r]:
                visited[r] = 1
                reached.append(r)
        is_seq = self.is_seq
        fo_ptr, fo_idx = self.fanout_ptr, self.fanout_idx
        stack = reached[:]
        pop = stack.pop
        push = stack.append
        collect = reached.append
        while stack:
            i = pop()
            for r in fo_idx[fo_ptr[i] : fo_ptr[i + 1]]:
                if not visited[r]:
                    if not enter_sequential and is_seq[r]:
                        continue
                    visited[r] = 1
                    collect(r)
                    push(r)
        return reached

    def backward_ids(
        self, roots: Sequence[int], expand_startpoints: bool = True
    ) -> List[int]:
        """Ids in the backward cone of *roots* (roots included), in
        discovery order.

        With ``expand_startpoints=False`` the walk stops at (but includes)
        INPUT and DFF nodes — the combinational-cone convention.  Dangling
        references are skipped, never an error.
        """
        visited = bytearray(self.n)
        reached: List[int] = []
        for r in roots:
            if not visited[r]:
                visited[r] = 1
                reached.append(r)
        is_input, is_seq = self.is_input, self.is_seq
        fi_ptr, fi_idx = self.fanin_ptr, self.fanin_idx
        stack = reached[:]
        pop = stack.pop
        push = stack.append
        collect = reached.append
        while stack:
            i = pop()
            if not expand_startpoints and (is_input[i] or is_seq[i]):
                continue
            for j in fi_idx[fi_ptr[i] : fi_ptr[i + 1]]:
                if j >= 0 and not visited[j]:
                    visited[j] = 1
                    collect(j)
                    push(j)
        return reached

    def forward_reach(
        self, roots: Sequence[int], enter_sequential: bool = True
    ) -> bytearray:
        """Visited byte-flags for the forward cone of *roots* — for
        callers that index all nodes anyway (bitset packing, full scans)."""
        visited = bytearray(self.n)
        for i in self.forward_ids(roots, enter_sequential):
            visited[i] = 1
        return visited

    def backward_reach(
        self, roots: Sequence[int], expand_startpoints: bool = True
    ) -> bytearray:
        """Visited byte-flags for the backward cone of *roots*."""
        visited = bytearray(self.n)
        for i in self.backward_ids(roots, expand_startpoints):
            visited[i] = 1
        return visited

    def reachable(self, src: int, dst: int) -> bool:
        """True when *dst* is in the forward cone of *src* (early exit)."""
        if src == dst:
            return True
        visited = bytearray(self.n)
        visited[src] = 1
        stack = [src]
        fo_ptr, fo_idx = self.fanout_ptr, self.fanout_idx
        while stack:
            i = stack.pop()
            for r in fo_idx[fo_ptr[i] : fo_ptr[i + 1]]:
                if r == dst:
                    return True
                if not visited[r]:
                    visited[r] = 1
                    stack.append(r)
        return False

    @staticmethod
    def mask_of(visited: bytearray) -> int:
        """Word-pack a visited byte-array into one int bitset (bit *i* =
        node *i*); membership is ``(mask >> i) & 1``."""
        packed = bytearray((len(visited) + 7) >> 3)
        for i, v in enumerate(visited):
            if v:
                packed[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(bytes(packed), "little")

    def ids_where(self, visited: bytearray) -> List[int]:
        return [i for i in range(self.n) if visited[i]]

    def names_where(self, visited: bytearray) -> List[str]:
        names = self.names
        return [names[i] for i in range(self.n) if visited[i]]

    # ------------------------------------------------------------------
    # BFS guide kernels (path discovery)
    # ------------------------------------------------------------------
    def startpoint_dist(self) -> List[int]:
        """Min combinational hops from a startpoint, forwards (-1 =
        unreachable; startpoints are 0; DFF readers are never entered)."""
        if self.wiring.start_dist is None:
            dist = [-1] * self.n
            frontier: deque = deque()
            is_input, is_seq = self.is_input, self.is_seq
            for i in range(self.n):
                if is_input[i] or is_seq[i]:
                    dist[i] = 0
                    frontier.append(i)
            fo_ptr, fo_idx = self.fanout_ptr, self.fanout_idx
            pop = frontier.popleft
            push = frontier.append
            while frontier:
                i = pop()
                d = dist[i] + 1
                for r in fo_idx[fo_ptr[i] : fo_ptr[i + 1]]:
                    if dist[r] < 0 and not is_seq[r]:
                        dist[r] = d
                        push(r)
            self.wiring.start_dist = dist
        return self.wiring.start_dist

    def endpoint_dist(self) -> List[int]:
        """Min combinational hops to an endpoint (PO or a net feeding a
        DFF), backwards (-1 = unreachable; DFF fan-in is never expanded)."""
        if self.wiring.end_dist is None:
            dist = [-1] * self.n
            frontier: deque = deque()
            is_seq = self.is_seq
            is_po, feeds_ff = self.is_po, self.feeds_ff
            for i in range(self.n):
                if is_po[i] or feeds_ff[i]:
                    dist[i] = 0
                    frontier.append(i)
            fi_ptr, fi_idx = self.fanin_ptr, self.fanin_idx
            pop = frontier.popleft
            push = frontier.append
            while frontier:
                i = pop()
                if is_seq[i]:
                    continue
                d = dist[i] + 1
                for j in fi_idx[fi_ptr[i] : fi_ptr[i + 1]]:
                    if j >= 0 and dist[j] < 0:
                        dist[j] = d
                        push(j)
            self.wiring.end_dist = dist
        return self.wiring.end_dist

    def seq_rank(self) -> List[int]:
        """Per-node packed DFS-preference base: :data:`SEQ_RANK` for a DFF,
        0 otherwise.  Adding a closeness term in ``(-diameter, 0]`` keeps
        the packed int ordering identical to the historical
        ``(ff_rank, closeness)`` tuple sort."""
        if self.wiring.seq_rank is None:
            is_seq = self.is_seq
            self.wiring.seq_rank = [
                SEQ_RANK if is_seq[i] else 0 for i in range(self.n)
            ]
        return self.wiring.seq_rank

    def guide_keys(self, forwards: bool) -> Tuple[List[int], List[int]]:
        """Per-node packed sort keys for the guided path DFS, per
        direction: ``(with_ff_preference, without)``.  Packing
        ``ff_rank * SEQ_RANK + closeness`` into one int keeps the ordering
        of the historical ``(ff_rank, closeness)`` tuples while letting
        the DFS sort with a C-speed ``list.__getitem__`` key."""
        wiring = self.wiring
        cached = wiring.keys_fwd if forwards else wiring.keys_bwd
        if cached is None:
            dist = self.endpoint_dist() if forwards else self.startpoint_dist()
            plain = [-d if d >= 0 else -(1 << 20) for d in dist]
            budget = [sr + c for sr, c in zip(self.seq_rank(), plain)]
            cached = (budget, plain)
            if forwards:
                wiring.keys_fwd = cached
            else:
                wiring.keys_bwd = cached
        return cached


class Wiring:
    """The wiring-only kernel results, shared by every view of equal
    wiring.

    The fan-out CSR, topological order, levels, flip-flop depths, D_i,
    the BFS guide distances and the DFS sort keys read nothing but the
    fan-in lists and which nodes are inputs, flip-flops and outputs.  A copy of a
    netlist, or the same netlist after a gate-type rewrite such as LUT
    insertion, has the same wiring, so :func:`csr_view` hands its new
    view the holder an existing view already filled.  Holders live in
    :data:`_WIRINGS`, keyed by the wiring arrays themselves
    (:func:`_wiring_key`); a slot is filled at most once and never
    written again.
    """

    __slots__ = (
        "fanout",
        "topo",
        "comb",
        "levels",
        "ff_depths",
        "depth_to_output",
        "start_dist",
        "end_dist",
        "seq_rank",
        "keys_fwd",
        "keys_bwd",
        "__weakref__",
    )

    def __init__(self) -> None:
        self.fanout: Optional[
            Tuple[List[int], List[int], bytearray, List[int]]
        ] = None
        self.topo: Optional[List[int]] = None
        self.comb: Optional[List[int]] = None
        self.levels: Optional[List[int]] = None
        self.ff_depths: Optional[List[int]] = None
        self.depth_to_output: Optional[Dict[str, int]] = None
        self.start_dist: Optional[List[int]] = None
        self.end_dist: Optional[List[int]] = None
        self.seq_rank: Optional[List[int]] = None
        self.keys_fwd: Optional[Tuple[List[int], List[int]]] = None
        self.keys_bwd: Optional[Tuple[List[int], List[int]]] = None


#: Wiring key -> the holder its views share.  A key compares its arrays
#: element by element, so a holder is only ever found by a view whose
#: kernels would compute exactly its values: there is nothing to go
#: stale.  Entries die with the last view holding them.
_WIRINGS: "weakref.WeakValueDictionary[tuple, Wiring]" = (
    weakref.WeakValueDictionary()
)


def _wiring_key(view: CsrView) -> tuple:
    """Everything a :class:`Wiring` kernel reads: node names, fan-in CSR,
    input and flip-flop flags, output ids and dangling references."""
    return (
        tuple(view.names),
        tuple(view.fanin_ptr),
        tuple(view.fanin_idx),
        bytes(view.is_input),
        bytes(view.is_seq),
        tuple(view.output_ids),
        tuple(view.dangling.items()),
    )


def _build_csr(netlist: Netlist) -> CsrView:
    with span("netlist.csr.build", circuit=netlist.name) as sp:
        view = CsrView(netlist)
        key = _wiring_key(view)
        wiring = _WIRINGS.get(key)
        if wiring is None:
            _WIRINGS[key] = view.wiring
        else:
            view.wiring = wiring
            add_counter("netlist.csr.wiring_shared")
        sp.set(nodes=view.n, edges=view.n_edges)
    add_counter("netlist.csr.builds")
    add_counter("netlist.csr.nodes", view.n)
    add_counter("netlist.csr.edges", view.n_edges)
    return view


def csr_view(netlist: Netlist) -> CsrView:
    """The CSR view of *netlist*, memoized per structure revision.

    Served through :func:`repro.netlist.cache.memoized`: any structural
    mutation (through the mutators or ``touch_structure()``) invalidates
    the whole epoch, and the next call rebuilds.  A rebuilt view takes
    over the :class:`Wiring` of any live view with equal wiring arrays.
    The returned view is shared — never mutate it.
    """
    return memoized(netlist, "csr", _build_csr)
