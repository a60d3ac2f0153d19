"""Tests for the CDCL SAT solver, including differential tests vs. brute
force on random formulas."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sat import Cnf, Solver, luby, solve_cnf


def brute_force_sat(num_vars: int, clauses) -> bool:
    for assignment in range(1 << num_vars):
        ok = True
        for clause in clauses:
            if not any(
                (lit > 0) == bool((assignment >> (abs(lit) - 1)) & 1)
                for lit in clause
            ):
                ok = False
                break
        if ok:
            return True
    return False


def model_satisfies(model, clauses) -> bool:
    return all(
        any((lit > 0) == model[abs(lit)] for lit in clause) for clause in clauses
    )


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            luby(0)


class TestBasics:
    def test_trivial_sat(self):
        s = Solver()
        s.add_clause([1])
        assert s.solve()
        assert s.model()[1] is True

    def test_trivial_unsat(self):
        s = Solver()
        s.add_clause([1])
        assert not s.add_clause([-1])
        assert not s.solve()

    def test_empty_clause_unsat(self):
        s = Solver()
        assert not s.add_clause([])
        assert not s.solve()

    def test_tautology_dropped(self):
        s = Solver()
        s.add_clause([1, -1])
        assert s.solve()

    def test_implication_chain(self):
        s = Solver()
        for i in range(1, 50):
            s.add_clause([-i, i + 1])
        s.add_clause([1])
        assert s.solve()
        model = s.model()
        assert all(model[i] for i in range(1, 51))

    def test_value_accessor(self):
        s = Solver()
        s.add_clause([2])
        s.solve()
        assert s.value(2) is True


class TestStructured:
    def test_pigeonhole_unsat(self):
        cnf = Cnf()
        pigeons, holes = 5, 4
        var = {
            (p, h): cnf.new_var()
            for p in range(pigeons)
            for h in range(holes)
        }
        for p in range(pigeons):
            cnf.add_clause([var[(p, h)] for h in range(holes)])
        for h in range(holes):
            for p1, p2 in itertools.combinations(range(pigeons), 2):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
        assert solve_cnf(cnf) is None

    def test_php_sat_when_enough_holes(self):
        cnf = Cnf()
        var = {(p, h): cnf.new_var() for p in range(4) for h in range(4)}
        for p in range(4):
            cnf.add_clause([var[(p, h)] for h in range(4)])
        for h in range(4):
            for p1, p2 in itertools.combinations(range(4), 2):
                cnf.add_clause([-var[(p1, h)], -var[(p2, h)]])
        assert solve_cnf(cnf) is not None

    def test_xor_chain_parity(self):
        """x1 ^ x2 ^ ... ^ x8 = 1 as CNF over pairwise aux chain."""
        cnf = Cnf(8)
        prev = 1
        for i in range(2, 9):
            out = cnf.new_var()
            a, b = prev, i
            cnf.add_clauses(
                [[-out, a, b], [-out, -a, -b], [out, -a, b], [out, a, -b]]
            )
            prev = out
        cnf.add_clause([prev])
        model = solve_cnf(cnf)
        assert model is not None
        parity = sum(model[i] for i in range(1, 9)) % 2
        assert parity == 1


class TestDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_3sat_matches_brute_force(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            num_vars = rng.randint(4, 10)
            num_clauses = rng.randint(4, 50)
            clauses = []
            solver = Solver()
            for _ in range(num_clauses):
                width = rng.choice([2, 3, 3, 4])
                chosen = rng.sample(range(1, num_vars + 1), min(width, num_vars))
                clause = [v if rng.random() < 0.5 else -v for v in chosen]
                clauses.append(clause)
                solver.add_clause(clause)
            got = solver.solve()
            assert got == brute_force_sat(num_vars, clauses)
            if got:
                assert model_satisfies(solver.model(), clauses)


class TestAssumptionsAndIncremental:
    def test_assumptions_restrict(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve([-1])
        assert s.model()[2] is True
        assert not s.solve([-1, -2])
        assert s.solve()  # solver is reusable after assumption failure

    def test_assumption_of_fixed_var(self):
        s = Solver()
        s.add_clause([1])
        assert s.solve([1])
        assert not s.solve([-1])

    def test_incremental_clauses(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve()
        s.add_clause([-1])
        s.add_clause([-2])
        assert not s.solve()

    def test_clauses_added_after_sat_model_read(self):
        s = Solver()
        s.add_clause([1, 2, 3])
        assert s.solve()
        blocked = [-v if b else v for v, b in s.model().items()]
        s.add_clause(blocked)  # block this model
        # Still satisfiable: 7 assignments remained.
        assert s.solve()

    def test_model_enumeration_count(self):
        """Blocking-clause enumeration must find exactly the 7 models of
        (a | b | c)."""
        s = Solver()
        s.add_clause([1, 2, 3])
        count = 0
        while s.solve() and count < 20:
            count += 1
            model = s.model()
            s.add_clause([-v if model[v] else v for v in (1, 2, 3)])
        assert count == 7

    def test_stats_populated(self):
        s = Solver()
        rng = random.Random(0)
        for _ in range(120):
            clause = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, 13), 3)
            ]
            s.add_clause(clause)
        s.solve()
        assert s.stats["propagations"] > 0


class TestLearnedUnitPersistence:
    """Unit clauses learned while assumptions are active must survive as
    root-level facts — the next solve() starts from them instead of
    re-deriving the same conflicts."""

    def _gadget(self) -> Solver:
        # Var 1 is an unrelated assumption; (2|3), (2|-3), (-2|3) force
        # 2 = 3 = True, but only through a conflict: whichever of 2/3 is
        # decided first goes False (saved phase 0) and the learnt clause
        # is the unit [2] or [3].
        s = Solver()
        s.ensure_vars(3)
        s.add_clause([2, 3])
        s.add_clause([2, -3])
        s.add_clause([-2, 3])
        return s

    def test_second_solve_reuses_the_fact(self):
        s = self._gadget()
        assert s.solve([1])
        first = s.stats["conflicts"]
        assert first >= 1
        assert s.solve([1])
        assert s.stats["conflicts"] == first  # 0 new conflicts
        assert s.model()[2] is True
        assert s.model()[3] is True

    def test_fact_survives_different_assumptions(self):
        s = self._gadget()
        assert s.solve([1])
        conflicts = s.stats["conflicts"]
        assert s.solve([-1])
        assert s.stats["conflicts"] == conflicts
        assert s.model()[2] is True

    def test_fact_survives_plain_solve(self):
        s = self._gadget()
        assert s.solve([1])
        conflicts = s.stats["conflicts"]
        assert s.solve()
        assert s.stats["conflicts"] == conflicts


class TestAssumptionEdgeCases:
    def test_assumption_already_root_satisfied(self):
        # The assumption's decision level is empty (the literal is already
        # true at the root); the solver must still answer and the model
        # must honour the assumption.
        s = Solver()
        s.ensure_vars(2)
        s.add_clause([1])
        assert s.solve([1])
        assert s.model()[1] is True
        assert s.solve([1, 2])
        assert s.model()[2] is True

    def test_assumption_root_falsified(self):
        s = Solver()
        s.ensure_vars(1)
        s.add_clause([-1])
        assert not s.solve([1])
        assert s.solve()  # reusable afterwards

    def test_assumption_implied_by_propagation(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1, 2])
        assert s.solve([2])  # 2 is implied before its decision level opens
        assert s.model() == {1: True, 2: True}


class TestIncrementalVsFresh:
    """Property test: interleaving solve() calls and clause additions must
    agree with a from-scratch solver on the full formula — verdict and
    model consistency."""

    def _random_clauses(self, rng, num_vars, num_clauses):
        return [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
            for _ in range(num_clauses)
        ]

    def test_incremental_matches_rebuild(self):
        rng = random.Random(20160805)
        for _ in range(40):
            num_vars = rng.randint(5, 12)
            clauses = self._random_clauses(rng, num_vars, rng.randint(10, 45))
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(
                    range(1, num_vars + 1), rng.randint(0, min(3, num_vars))
                )
            ]
            split = rng.randrange(len(clauses) + 1)

            inc = Solver()
            inc.ensure_vars(num_vars)
            for clause in clauses[:split]:
                inc.add_clause(clause)
            inc.solve()  # interleaved solve: learn on the prefix
            inc.solve(assumptions[:1])
            for clause in clauses[split:]:
                inc.add_clause(clause)
            got = inc.solve(assumptions)

            fresh = Solver()
            fresh.ensure_vars(num_vars)
            for clause in clauses:
                fresh.add_clause(clause)
            want = fresh.solve(assumptions)

            assert got == want, (num_vars, clauses, assumptions)
            if got:
                model = inc.model()
                assert model_satisfies(model, clauses)
                assert all(model[abs(a)] == (a > 0) for a in assumptions)


class TestIncrementalAddCnf:
    """``add_cnf`` takes only the clauses a formula gained since the last
    feed, and feeding in pieces must not change the search."""

    @staticmethod
    def _grow(rng, cnf, new_vars, num_clauses):
        """Add *new_vars* variables, each in one clause, plus random
        3-literal clauses over every variable; returns the new clauses."""
        start = len(cnf.clauses)
        fresh = [cnf.new_var() for _ in range(new_vars)]
        for var in fresh:
            others = rng.sample(range(1, cnf.num_vars + 1), 2)
            cnf.add_clause([var if rng.random() < 0.5 else -var] + others)
        for _ in range(num_clauses):
            chosen = rng.sample(range(1, cnf.num_vars + 1), 3)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
        return cnf.clauses[start:]

    @pytest.mark.parametrize("seed", range(6))
    def test_pieces_match_one_piece(self, seed):
        rng = random.Random(seed)
        cnf = Cnf()
        pieces = Solver()
        for _ in range(4):
            self._grow(rng, cnf, 12, 30)
            pieces.add_cnf(cnf)
            pieces.add_cnf(cnf)  # nothing new: a no-op
        whole = Solver()
        whole.add_cnf(cnf)
        got = pieces.solve()
        assert got == whole.solve()
        assert pieces.stats == whole.stats
        if got:
            assert pieces.model() == whole.model()
            assert model_satisfies(pieces.model(), cnf.clauses)

    def test_formulas_are_tracked_separately(self):
        left, right = Cnf(2), Cnf(2)
        left.add_clause([1, 2])
        right.add_clause([-1])
        solver = Solver()
        solver.add_cnf(left)
        solver.add_cnf(right)
        right.add_clause([-2])
        solver.add_cnf(left)  # left has nothing new
        assert solver.solve()
        solver.add_cnf(right)
        assert not solver.solve()

    @pytest.mark.parametrize("seed", range(6))
    def test_growth_after_sat_matches_add_clause(self, seed):
        """After a SAT answer the trail is still assigned.  ``add_cnf``
        must unwind it before allocating the new variables, as
        ``add_clause`` does, or the decision heap takes them in another
        order and every later solve differs."""

        def run(feed):
            rng = random.Random(seed)
            cnf, solver, seen = Cnf(), Solver(), []
            for _ in range(6):
                feed(solver, cnf, self._grow(rng, cnf, 10, 24))
                sat = solver.solve()
                seen.append((sat, sat and solver.model(), dict(solver.stats)))
                if not sat:
                    break
            return seen

        def by_clause(solver, cnf, clauses):
            for clause in clauses:
                solver.add_clause(clause)

        assert run(lambda s, cnf, _: s.add_cnf(cnf)) == run(by_clause)


class TestReduceAndMinimize:
    def test_hard_formula_exercises_reduction_and_minimization(self):
        # Pigeonhole-ish random instance big enough to trigger restarts,
        # minimization, and (stats keys exist even if not) DB reduction.
        rng = random.Random(9)
        s = Solver()
        clauses = []
        for _ in range(900):
            clause = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, 61), 3)
            ]
            clauses.append(clause)
            s.add_clause(clause)
        got = s.solve()
        assert {"minimized", "reduced"} <= set(s.stats)
        if got:
            assert model_satisfies(s.model(), clauses)
        # Differential confirmation on a second, smaller seed.
        rng = random.Random(10)
        s2 = Solver()
        small = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 9), 3)]
            for _ in range(40)
        ]
        for clause in small:
            s2.add_clause(clause)
        assert s2.solve() == brute_force_sat(8, small)
