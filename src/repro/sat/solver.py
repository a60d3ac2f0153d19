"""A CDCL SAT solver.

Conflict-driven clause learning with two-watched-literal propagation over
flat literal-indexed watch lists (with blocker literals), first-UIP conflict
analysis with recursive learned-clause minimization, a VSIDS activity heap
with lazy deletion, phase saving, Luby restarts, and LBD-aware learned-clause
reduction.  Written for clarity first, but fast enough to run oracle-guided
SAT attacks on the circuit sizes the paper evaluates.

The public interface is :class:`Solver` (incremental: clauses can be added
between ``solve`` calls, and assumptions are supported).  Unit clauses
learned during search are persisted as root-level facts, so knowledge
accumulated under one set of assumptions carries over to the next ``solve``
call — the property the incremental SAT attack leans on.

The ``sat`` check family races its verdicts against exhaustive simulation;
see ``docs/CHECKING.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..obs import add_counter
from .cnf import Cnf

_UNASSIGNED = -1

#: ``Solver.stats`` key -> the counter its per-solve delta is added to.
_STAT_COUNTERS = {
    name: f"sat.{name}"
    for name in (
        "decisions",
        "propagations",
        "conflicts",
        "restarts",
        "learned",
        "minimized",
        "reduced",
    )
}


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …"""
    if i < 1:
        raise ValueError("luby is 1-based")
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class _Clause:
    """Internal clause representation (literals + learned bookkeeping)."""

    __slots__ = ("literals", "learned", "activity", "lbd")

    def __init__(self, literals: List[int], learned: bool = False):
        self.literals = literals
        self.learned = learned
        self.activity = 0.0
        self.lbd = 0


class Solver:
    """Incremental CDCL SAT solver over DIMACS-style literals.

    Invariant relied on throughout: ``literals[0]`` of any clause currently
    serving as a propagation reason is the literal it implied.  Propagation
    never reorders position 0 of a reason clause (its first literal is true,
    and only falsified watches are swapped), which is what lets conflict
    analysis and minimization skip ``literals[0]`` when walking antecedents.
    """

    def __init__(self):
        self.num_vars = 0
        self._clauses: List[_Clause] = []
        self._learned: List[_Clause] = []
        # Flat watch lists indexed by literal: positive literal v -> 2v,
        # negative -> 2v+1.  Entry: [clause, blocker_literal].  A clause
        # watching literal w is registered under the index of -w, so the
        # list for a newly-true literal holds exactly the clauses whose
        # watch just became false.
        self._watches: List[List[list]] = [[], []]
        self._assign: List[int] = [_UNASSIGNED]  # 1-indexed by var
        self._level: List[int] = [0]
        self._reason: List[Optional[_Clause]] = [None]
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._queue_head = 0
        self._activity: List[float] = [0.0]
        self._phase: List[int] = [0]
        # Indexed binary max-heap over unassigned-variable activities.
        self._heap: List[int] = []
        self._heap_pos: List[int] = [-1]
        # Persistent conflict-analysis scratch (avoids an O(num_vars)
        # allocation per conflict).
        self._seen = bytearray(1)
        self._to_clear: List[int] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._unsat = False
        self.stats = dict.fromkeys(_STAT_COUNTERS, 0)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        self.num_vars += 1
        var = self.num_vars
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(0)
        self._watches.append([])
        self._watches.append([])
        self._seen.append(0)
        self._heap_pos.append(-1)
        self._heap_insert(var)
        return var

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.new_var()

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a problem clause; returns False if it makes the formula
        trivially unsatisfiable.

        Clauses may be added between ``solve`` calls; any leftover search
        state is unwound to the root level first.
        """
        if self._trail_lim:
            self._backtrack(0)
        seen = set()
        clause: List[int] = []
        for lit in literals:
            self.ensure_vars(abs(lit))
            if -lit in seen:
                return True  # tautology, drop
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not clause:
            self._unsat = True
            return False
        # Root-level assignments may already falsify literals; the two
        # watched literals must be non-false or the clause would never be
        # revisited by propagation.  Sort non-false literals to the front.
        clause.sort(key=lambda lit: 1 if self._value(lit) == 0 else 0)
        if self._value(clause[0]) == 0:
            # Every literal is false at the root: formula is unsatisfiable.
            self._unsat = True
            return False
        unit = len(clause) == 1 or self._value(clause[1]) == 0
        if unit:
            if self._value(clause[0]) == _UNASSIGNED:
                # Unit under the root assignment: assign and propagate now.
                self._enqueue(clause[0], None)
                if self._propagate() is not None:
                    self._unsat = True
                    return False
            if len(clause) == 1:
                return True
        record = _Clause(clause)
        self._clauses.append(record)
        self._watch(record)
        return True

    def add_cnf(self, cnf: Cnf) -> bool:
        self.ensure_vars(cnf.num_vars)
        ok = True
        for clause in cnf.clauses:
            ok = self.add_clause(clause) and ok
        return ok

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Decide satisfiability under *assumptions* (a partial assignment).

        On SAT, :meth:`model` returns a full assignment.  The solver can be
        reused; learned clauses — including unit facts learned while
        assumptions were active — persist across calls.  Each call adds
        its :attr:`stats` deltas to the ``sat.*`` counters.
        """
        before = list(self.stats.values())
        try:
            return self._search(assumptions)
        finally:
            for (name, value), start in zip(self.stats.items(), before):
                add_counter(_STAT_COUNTERS[name], value - start)

    def _search(self, assumptions: Sequence[int]) -> bool:
        if self._unsat:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return False
        for lit in assumptions:
            self.ensure_vars(abs(lit))
        num_assumptions = len(assumptions)
        conflicts_until_restart = luby(1) * 32
        restart_count = 1
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                if not self._trail_lim:
                    self._unsat = True
                    return False
                if len(self._trail_lim) <= num_assumptions:
                    # Conflict forced purely by assumptions.
                    self._backtrack(0)
                    return False
                learned, backtrack_level, lbd = self._analyze(conflict)
                if len(learned) == 1:
                    # A learned unit is a fact about the formula, not the
                    # assumptions: persist it at the root so the next
                    # solve() call starts from it instead of re-deriving
                    # the same conflicts.
                    self._backtrack(0)
                    self.stats["learned"] += 1
                    self._enqueue(learned[0], None)
                else:
                    self._backtrack(max(backtrack_level, num_assumptions))
                    self._record_learned(learned, lbd)
                self._decay_activities()
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    self.stats["restarts"] += 1
                    restart_count += 1
                    conflicts_until_restart = luby(restart_count) * 32
                    self._backtrack(num_assumptions)
                if len(self._learned) > 4000 + 8 * len(self._clauses) ** 0.5:
                    self._reduce_learned()
                continue
            # Assumption decisions first.
            level = len(self._trail_lim)
            if level < num_assumptions:
                lit = assumptions[level]
                value = self._value(lit)
                if value == 0:
                    self._backtrack(0)
                    return False
                self._trail_lim.append(len(self._trail))
                if value == _UNASSIGNED:
                    self._enqueue(lit, None)
                continue
            lit = self._pick_branch()
            if lit is None:
                return True
            self.stats["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment of the last successful solve."""
        return {
            var: self._assign[var] == 1
            for var in range(1, self.num_vars + 1)
            if self._assign[var] != _UNASSIGNED
        }

    def value(self, var: int) -> Optional[bool]:
        v = self._assign[var]
        return None if v == _UNASSIGNED else bool(v)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> int:
        v = self._assign[abs(lit)]
        if v == _UNASSIGNED:
            return _UNASSIGNED
        return v if lit > 0 else 1 - v

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _watch(self, clause: _Clause) -> None:
        l0, l1 = clause.literals[0], clause.literals[1]
        # Register under idx(-l0) / idx(-l1), blocker = the other watch.
        self._watches[(l0 << 1) | 1 if l0 > 0 else (-l0) << 1].append(
            [clause, l1]
        )
        self._watches[(l1 << 1) | 1 if l1 > 0 else (-l1) << 1].append(
            [clause, l0]
        )

    def _enqueue(self, lit: int, reason: Optional[_Clause]) -> None:
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _propagate(self) -> Optional[_Clause]:
        """Unit propagation; returns a conflicting clause or None."""
        watches = self._watches
        assign = self._assign
        levels = self._level
        reasons = self._reason
        trail = self._trail
        propagated = 0
        while self._queue_head < len(trail):
            lit = trail[self._queue_head]
            self._queue_head += 1
            propagated += 1
            # Clauses watching -lit live under idx(lit).
            watchers = watches[lit << 1 if lit > 0 else ((-lit) << 1) | 1]
            false_lit = -lit
            i = j = 0
            n = len(watchers)
            while i < n:
                w = watchers[i]
                # Blocker check: if the cached literal is already true the
                # clause is satisfied and we never touch its literal list.
                b = w[1]
                if b > 0:
                    bval = assign[b]
                else:
                    bval = assign[-b]
                    if bval >= 0:
                        bval ^= 1
                if bval == 1:
                    watchers[j] = w
                    j += 1
                    i += 1
                    continue
                clause = w[0]
                lits = clause.literals
                if lits[0] == false_lit:
                    lits[0] = lits[1]
                    lits[1] = false_lit
                first = lits[0]
                if first > 0:
                    fval = assign[first]
                else:
                    fval = assign[-first]
                    if fval >= 0:
                        fval ^= 1
                if fval == 1:
                    w[1] = first
                    watchers[j] = w
                    j += 1
                    i += 1
                    continue
                # Look for a non-false replacement watch.
                moved = False
                for k in range(2, len(lits)):
                    q = lits[k]
                    if q > 0:
                        qval = assign[q]
                    else:
                        qval = assign[-q]
                        if qval >= 0:
                            qval ^= 1
                    if qval != 0:
                        lits[1] = q
                        lits[k] = false_lit
                        w[1] = first
                        watches[
                            (q << 1) | 1 if q > 0 else (-q) << 1
                        ].append(w)
                        moved = True
                        break
                if moved:
                    i += 1
                    continue
                # Clause is unit or conflicting; keep the watch.
                w[1] = first
                watchers[j] = w
                j += 1
                i += 1
                if fval == 0:
                    while i < n:
                        watchers[j] = watchers[i]
                        j += 1
                        i += 1
                    del watchers[j:]
                    self.stats["propagations"] += propagated
                    return clause
                var = first if first > 0 else -first
                assign[var] = 1 if first > 0 else 0
                levels[var] = len(self._trail_lim)
                reasons[var] = clause
                trail.append(first)
            del watchers[j:]
        self.stats["propagations"] += propagated
        return None

    def _analyze(self, conflict: _Clause) -> "tuple[List[int], int, int]":
        """First-UIP conflict analysis with recursive minimization.

        Returns ``(learned clause, backtrack level, lbd)``.
        """
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        to_clear = self._to_clear
        levels = self._level
        counter = 0
        trail_lit = 0  # the implied literal whose reason we resolve on
        reason: Optional[_Clause] = conflict
        index = len(self._trail)
        current_level = len(self._trail_lim)
        while True:
            assert reason is not None
            self._bump_clause(reason)
            for q in reason.literals:
                if q == trail_lit:
                    continue
                var = abs(q)
                if not seen[var]:
                    lvl = levels[var]
                    if lvl > 0:
                        seen[var] = 1
                        to_clear.append(var)
                        self._bump_var(var)
                        if lvl >= current_level:
                            counter += 1
                        else:
                            learned.append(q)
            # Find next literal to resolve on.
            while True:
                index -= 1
                trail_lit = self._trail[index]
                if seen[abs(trail_lit)]:
                    break
            counter -= 1
            seen[abs(trail_lit)] = 0
            if counter == 0:
                break
            reason = self._reason[abs(trail_lit)]
        learned[0] = -trail_lit
        # Recursive minimization: drop literals whose negation is implied
        # by the rest of the clause (their whole reason chain stays inside
        # marked literals / root facts).
        if len(learned) > 1:
            abstract_levels = 0
            for q in learned[1:]:
                abstract_levels |= 1 << (levels[abs(q)] & 31)
            kept = [learned[0]]
            for q in learned[1:]:
                if self._reason[abs(q)] is None or not self._lit_redundant(
                    q, abstract_levels
                ):
                    kept.append(q)
            self.stats["minimized"] += len(learned) - len(kept)
            learned = kept
        # LBD before backtracking, while levels are still current.
        lbd = len({levels[abs(q)] for q in learned})
        # Backtrack level: second-highest level in the clause.
        if len(learned) == 1:
            backtrack_level = 0
        else:
            backtrack_level = max(levels[abs(q)] for q in learned[1:])
        for var in to_clear:
            seen[var] = 0
        del to_clear[:]
        return learned, backtrack_level, lbd

    def _lit_redundant(self, lit: int, abstract_levels: int) -> bool:
        """Is *lit*'s negation implied by the other marked literals?

        Walks the reason chain of ``lit``; every antecedent must either be
        marked already, sit at the root, or itself be recursively implied
        (and live on a decision level that appears in the clause, the
        ``abstract_levels`` filter).  Tentative marks are rolled back if
        the walk escapes.
        """
        seen = self._seen
        to_clear = self._to_clear
        levels = self._level
        reasons = self._reason
        stack = [lit]
        top = len(to_clear)
        while stack:
            p = stack.pop()
            reason = reasons[abs(p)]
            assert reason is not None
            # literals[0] is the literal this reason implied — skip it.
            for q in reason.literals[1:]:
                var = abs(q)
                if seen[var] or levels[var] == 0:
                    continue
                if (
                    reasons[var] is None
                    or not (1 << (levels[var] & 31)) & abstract_levels
                ):
                    for v in to_clear[top:]:
                        seen[v] = 0
                    del to_clear[top:]
                    return False
                seen[var] = 1
                to_clear.append(var)
                stack.append(q)
        return True

    def _record_learned(self, literals: List[int], lbd: int) -> None:
        self.stats["learned"] += 1
        # Put a highest-level literal (other than the asserting one) second
        # so watches behave.
        best = max(
            range(1, len(literals)), key=lambda i: self._level[abs(literals[i])]
        )
        literals[1], literals[best] = literals[best], literals[1]
        clause = _Clause(literals, learned=True)
        clause.activity = self._cla_inc
        clause.lbd = lbd
        self._learned.append(clause)
        self._watch(clause)
        self._enqueue(literals[0], clause)

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        mark = self._trail_lim[level]
        trail = self._trail
        assign = self._assign
        phase = self._phase
        reasons = self._reason
        heap_pos = self._heap_pos
        for i in range(len(trail) - 1, mark - 1, -1):
            lit = trail[i]
            var = lit if lit > 0 else -lit
            phase[var] = assign[var]
            assign[var] = _UNASSIGNED
            reasons[var] = None
            if heap_pos[var] < 0:
                self._heap_insert(var)
        del trail[mark:]
        del self._trail_lim[level:]
        if self._queue_head > mark:
            self._queue_head = mark

    # ------------------------------------------------------------------
    # VSIDS activity heap (indexed binary max-heap, lazy deletion)
    # ------------------------------------------------------------------
    def _heap_insert(self, var: int) -> None:
        pos = len(self._heap)
        self._heap.append(var)
        self._heap_pos[var] = pos
        self._sift_up(pos)

    def _sift_up(self, pos: int) -> None:
        heap = self._heap
        heap_pos = self._heap_pos
        activity = self._activity
        var = heap[pos]
        act = activity[var]
        while pos > 0:
            parent = (pos - 1) >> 1
            pvar = heap[parent]
            if activity[pvar] >= act:
                break
            heap[pos] = pvar
            heap_pos[pvar] = pos
            pos = parent
        heap[pos] = var
        heap_pos[var] = pos

    def _sift_down(self, pos: int) -> None:
        heap = self._heap
        heap_pos = self._heap_pos
        activity = self._activity
        n = len(heap)
        var = heap[pos]
        act = activity[var]
        while True:
            child = 2 * pos + 1
            if child >= n:
                break
            right = child + 1
            if right < n and activity[heap[right]] > activity[heap[child]]:
                child = right
            cvar = heap[child]
            if activity[cvar] <= act:
                break
            heap[pos] = cvar
            heap_pos[cvar] = pos
            pos = child
        heap[pos] = var
        heap_pos[var] = pos

    def _heap_pop(self) -> int:
        heap = self._heap
        heap_pos = self._heap_pos
        top = heap[0]
        heap_pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            heap_pos[last] = 0
            self._sift_down(0)
        return top

    def _pick_branch(self) -> Optional[int]:
        # Lazy deletion: assigned variables are discarded as they surface
        # and re-inserted by _backtrack when they free up.
        heap = self._heap
        assign = self._assign
        while heap:
            var = self._heap_pop()
            if assign[var] == _UNASSIGNED:
                return var if self._phase[var] == 1 else -var
        return None

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            # Uniform rescale preserves the heap order.
            for v in range(1, self.num_vars + 1):
                activity[v] *= 1e-100
            self._var_inc *= 1e-100
        pos = self._heap_pos[var]
        if pos >= 0:
            self._sift_up(pos)

    def _bump_clause(self, clause: _Clause) -> None:
        if not clause.learned:
            return
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay

    def _reduce_learned(self) -> None:
        """Drop the worst half of learned clauses, LBD first.

        Glue clauses (LBD ≤ 2), binary clauses, and clauses locked as the
        reason for a current assignment always survive.
        """
        locked = set()
        reasons = self._reason
        for lit in self._trail:
            r = reasons[abs(lit)]
            if r is not None:
                locked.add(id(r))
        learned = self._learned
        # Worst first: high LBD, then low activity.
        learned.sort(key=lambda c: (-c.lbd, c.activity))
        half = len(learned) // 2
        dropped_ids = set()
        kept: List[_Clause] = []
        for pos, clause in enumerate(learned):
            if (
                pos < half
                and clause.lbd > 2
                and len(clause.literals) > 2
                and id(clause) not in locked
            ):
                dropped_ids.add(id(clause))
            else:
                kept.append(clause)
        if not dropped_ids:
            return
        self._learned = kept
        self.stats["reduced"] += len(dropped_ids)
        for watchers in self._watches:
            watchers[:] = [w for w in watchers if id(w[0]) not in dropped_ids]


def solve_cnf(cnf: Cnf, assumptions: Sequence[int] = ()) -> Optional[Dict[int, bool]]:
    """One-shot convenience: returns a model dict or None if UNSAT."""
    solver = Solver()
    solver.add_cnf(cnf)
    if solver.solve(assumptions):
        return solver.model()
    return None
