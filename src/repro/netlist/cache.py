"""Memoized structural views of a netlist.

Topological order, levelization, and networkx views are pure functions of
the netlist *structure*, yet the locking flows re-derive them after every
query: selection algorithms, the simulators, STA, power, CNF translation,
and the attacks all call :func:`~repro.netlist.graph.topological_order` —
an O(V+E) walk — at every call site.  This module gives each
:class:`~repro.netlist.netlist.Netlist` a per-instance memo, keyed on its
:attr:`~repro.netlist.netlist.Netlist.structure_revision` counter, so a
structural query is computed once per mutation epoch and then served in
O(1).

The cache is deliberately generic: :func:`memoized` maps an arbitrary
hashable key (a string, or a tuple for views with parameters) to a
compute function, so any module can hang derived views off
a netlist without this module importing it (which keeps the dependency
graph acyclic — :mod:`repro.netlist.graph` and :mod:`repro.sim.compiled`
both build on it).

Cached values are **shared**: callers must treat them as read-only
snapshots.  Mutating the netlist through its mutators (or calling
``touch_structure()`` after editing ``node.fanin`` or ``node.gate_type``
directly) bumps the revision, and the next query recomputes; lists handed out earlier keep
their pre-mutation snapshot semantics, which is exactly what the in-place
rewrite passes (e.g. :func:`repro.netlist.simplify.propagate_constants`)
rely on.

Entries are held in a :class:`weakref.WeakKeyDictionary`, so caches die
with their netlists and working copies created by the attacks never leak.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Dict, Hashable, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .netlist import Netlist


class _CacheEntry:
    """All memoized views for one netlist at one structure revision."""

    __slots__ = ("revision", "values")

    def __init__(self, revision: int):
        self.revision = revision
        self.values: Dict[Hashable, Any] = {}


_CACHES: "weakref.WeakKeyDictionary[Netlist, _CacheEntry]" = (
    weakref.WeakKeyDictionary()
)


def memoized(
    netlist: "Netlist", key: Hashable, compute: Callable[["Netlist"], Any]
) -> Any:
    """Return ``compute(netlist)``, served from the structure cache.

    The value is recomputed when the netlist's ``structure_revision`` has
    moved since it was stored (every older view is dropped at once — a
    mutation invalidates the whole epoch).  The returned object is shared
    between callers and must not be mutated.
    """
    revision = netlist.structure_revision
    entry = _CACHES.get(netlist)
    if entry is None or entry.revision != revision:
        entry = _CacheEntry(revision)
        _CACHES[netlist] = entry
    try:
        return entry.values[key]
    except KeyError:
        value = compute(netlist)
        entry.values[key] = value
        return value


def cached_keys(netlist: "Netlist") -> List[Hashable]:
    """The view keys currently memoized for *netlist* at its **current**
    revision (empty after any mutation).  Intended for tests."""
    entry = _CACHES.get(netlist)
    if entry is None or entry.revision != netlist.structure_revision:
        return []
    return sorted(entry.values, key=str)
