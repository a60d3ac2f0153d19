"""Bit-exactness pins for the path DFS, the signal-probability pass,
cone-only candidate timing and the attack-grid kernels.

The path DFS shares one ``random.Random`` across every search of a
:class:`~repro.analysis.PathFinder`, so any change in the draws it makes
(or in the states it expands) shifts every later path and with them the
Table I rows.  These tests pin the draw itself against CPython's
``Random.shuffle``, plus hashes of whole path collections and of exact
signal probabilities, with golden values recorded before the kernels
were rewritten over the CSR view.  The attack grid is pinned by a hash of
its canonical rows, recorded before the ML match counters, the config
packing and the three-valued implication were rewritten; a small Table I
grid likewise, recorded before area and power moved onto the CSR view,
and both analyzers race today's name-based per-node walks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from repro import lock_design
from repro.analysis import PathFinder, signal_probabilities
from repro.analysis.area import AreaAnalyzer
from repro.analysis.power import PowerAnalyzer, estimate_activities
from repro.analysis.sta import TimingAnalyzer
from repro.attacks import candidate_configs
from repro.check.checks_graph import _dict_dfs_to_boundary, csr_guide
from repro.circuits import PAPER_BENCHMARK_ORDER, load_benchmark
from repro.lut import HybridMapper
from repro.locking import DependentSelection, depth_to_output
from repro.netlist import GateType, Netlist
from repro.netlist.csr import (
    MAX_ORDER_WIDTH,
    ORDER,
    RUN_BOUNDARY,
    RUN_DEAD,
    RUN_EXPAND,
    WIDE,
    csr_view,
)
from repro.netlist.graph import _dfs_to_boundary, _shuffle_ids, find_io_path
from repro.netlist.transform import replace_gates_with_luts
from repro.sim import CombinationalSimulator, reference_evaluate, score_keys
from repro.sweep import SweepRunner, SweepSpec, canonical_row


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


@pytest.mark.parametrize("length", range(65))
def test_shuffle_draw_matches_random_shuffle(length):
    for seed in range(50):
        expected = list(range(length))
        reference = random.Random(seed)
        reference.shuffle(expected)
        got = list(range(length))
        rng = random.Random(seed)
        _shuffle_ids(got, rng.getrandbits)
        assert got == expected, (length, seed)
        assert rng.getstate() == reference.getstate(), (length, seed)


@pytest.mark.parametrize("length", [63, 64, 65, 66, 100, 127, 128, 129, 200])
def test_shuffle_draw_matches_random_shuffle_past_the_plan_table(length):
    for seed in range(20):
        expected = list(range(length))
        reference = random.Random(seed)
        reference.shuffle(expected)
        got = list(range(length))
        rng = random.Random(seed)
        _shuffle_ids(got, rng.getrandbits)
        assert got == expected, (length, seed)
        assert rng.getstate() == reference.getstate(), (length, seed)


#: Hash of ``collect_paths()`` (nodes and depths) plus the finder's final
#: RNG state, per (circuit, seed).
PATH_DIGESTS = {
    ("s641", 0): "05f6e7d7c623b2ad",
    ("s641", 1): "fd479774418c8406",
    ("s641", 2): "4b894aea4c539c31",
    ("s641", 3): "eb73b3af46777634",
    ("s820", 0): "b948750fac705a48",
    ("s820", 1): "f2d39fcda4791c38",
    ("s820", 2): "1bb5b8a534d8d3de",
    ("s820", 3): "a70f0ce4d582694a",
    ("s832", 0): "041297da9872dadf",
    ("s832", 1): "87d714ad44e5ba5c",
    ("s832", 2): "9023427014348b06",
    ("s832", 3): "2b48707e61fb96d7",
    ("s953", 0): "98f9e98a18188bdd",
    ("s953", 1): "d9e5b25f0dc4301a",
    ("s953", 2): "2127c1c97b8eb133",
    ("s953", 3): "adaa8c3d1083f7bb",
    ("s1196", 0): "137328c9117d8a12",
    ("s1196", 1): "200da69960afc305",
    ("s1196", 2): "8c417edfdf186c52",
    ("s1196", 3): "15c3c59dc3577ad2",
    ("s1238", 0): "c26eda43b1a714bb",
    ("s1238", 1): "3388b618827bde41",
    ("s1238", 2): "a04397ec1215affa",
    ("s1238", 3): "b83e1c1dd37dd608",
    ("s1488", 0): "6d195df6b08c9661",
    ("s1488", 1): "d311ed5ab7a2cfbf",
    ("s1488", 2): "592ad19866883369",
    ("s1488", 3): "e87c6061a129a55b",
}


@pytest.mark.parametrize("circuit,seed", sorted(PATH_DIGESTS))
def test_collect_paths_is_pinned(circuit, seed):
    finder = PathFinder(load_benchmark(circuit), seed=seed)
    paths = finder.collect_paths()
    observed = _digest(
        ([(p.nodes, p.n_flip_flops) for p in paths], finder.rng.getstate())
    )
    assert observed == PATH_DIGESTS[circuit, seed]


def _with_dangling_fanin(netlist: Netlist, seed: int) -> Netlist:
    """A copy of *netlist* with 25 gate pins rewired to undriven nets."""
    broken = netlist.copy()
    rng = random.Random(seed)
    for name in rng.sample(broken.gates, 25):
        node = broken.node(name)
        node.fanin[rng.randrange(len(node.fanin))] = f"ghost{rng.randrange(6)}"
    broken.touch_structure()
    return broken


#: Hash of 40 ``find_io_path`` results on s641 with dangling fan-in (ids
#: of -1 in the CSR view) plus the final RNG state.
DANGLING_DFS_DIGEST = "531235f5a18fbfc4"


def test_dfs_over_dangling_fanin_is_pinned(s641):
    broken = _with_dangling_fanin(s641, seed=5)
    rng = random.Random(1)
    through = random.Random(2).sample(broken.gates, 40)
    found = [find_io_path(broken, g, rng=rng) for g in through]
    assert any(found)
    assert _digest((found, rng.getstate())) == DANGLING_DFS_DIGEST


def _adjacency(view, forwards):
    if forwards:
        return view.fanout_ptr, view.fanout_idx, view.is_po
    return view.fanin_ptr, view.fanin_idx, view.is_input


def _fresh_run(view, forwards, i):
    """Node *i*'s run, followed link by link over the CSR arrays."""
    ptr, idx, boundary = _adjacency(view, forwards)
    nodes, kind = [], RUN_DEAD
    nxt = idx[ptr[i]] if ptr[i + 1] > ptr[i] else -1
    while nxt >= 0 and nxt != i and nxt not in nodes:
        nodes.append(nxt)
        width = ptr[nxt + 1] - ptr[nxt]
        if boundary[nxt]:
            kind = RUN_BOUNDARY
        elif width > 1:
            kind = RUN_EXPAND
        elif width == 1:
            nxt = idx[ptr[nxt]]
            continue
        break
    return kind, nodes, [p for p, j in enumerate(nodes) if view.is_seq[j]]


def _scripted(draws):
    """A ``getrandbits`` that returns *draws* in turn."""
    it = iter(draws)
    return lambda _k: next(it)


def _fresh_orders(view, forwards, i):
    """Node *i*'s sorted child list under both key sets for every draw
    outcome, in mixed-radix order (first draw most significant): a fresh
    slice after ``_shuffle_ids`` fed those draws, then the stable sort."""
    ptr, idx, _ = _adjacency(view, forwards)
    ids = idx[ptr[i] : ptr[i + 1]]
    keys = view.guide_keys(forwards)
    ranges = [range(n) for n in range(len(ids), 1, -1)]
    out = ([], [])
    for draws in itertools.product(*ranges):
        order = list(ids)
        _shuffle_ids(order, _scripted(draws))
        for key, lists in zip(keys, out):
            lists.append(sorted(order, key=lambda j: key[j] if j >= 0 else -(1 << 20)))
    return out


def _assert_expansions_fresh(view, build_all=False) -> None:
    """Every built entry of both expansion tables (every entry, with
    *build_all*) equals a fresh derivation from the CSR arrays."""
    for forwards in (False, True):
        table = view.dfs_expansions(forwards)
        ptr = _adjacency(view, forwards)[0]
        assert len(table.entries) == view.n
        for i in range(view.n):
            entry = table.entries[i]
            if entry is None:
                if not build_all:
                    continue
                entry = table.build(i)
            assert table.entries[i] is entry
            width = ptr[i + 1] - ptr[i]
            if width < 2:
                assert entry[:3] == _fresh_run(view, forwards, i), (forwards, i)
                kind, nodes = entry[0], entry[1]
                if kind == RUN_EXPAND and len(nodes) > 1:
                    interior = nodes[:-1]
                    n_ff = sum(view.is_seq[j] for j in interior)
                    assert entry[3] == (interior, -2 - n_ff)
                else:
                    assert entry[3] is None
            elif width <= MAX_ORDER_WIDTH:
                assert entry[0] == ORDER
                fresh = _fresh_orders(view, forwards, i)
                assert (entry[1], entry[2]) == fresh, (forwards, i)
            else:
                assert entry == (WIDE,)


def test_expansion_tables_stay_fresh_after_collect_paths():
    netlist = load_benchmark("s1238")
    PathFinder(netlist, seed=0).collect_paths()
    view = csr_view(netlist)
    wiring = view.wiring
    assert wiring.expand_fwd is not None and wiring.expand_bwd is not None
    # The walks built entries of every kind; each still equals a fresh one.
    built = {
        entry[0]
        for table in (wiring.expand_fwd, wiring.expand_bwd)
        for entry in table.entries
        if entry is not None
    }
    assert built == {RUN_DEAD, RUN_BOUNDARY, RUN_EXPAND, ORDER, WIDE}
    _assert_expansions_fresh(view)
    _assert_expansions_fresh(view, build_all=True)


def test_rewired_copy_gets_its_own_expansion_tables():
    netlist = load_benchmark("s1238")
    view = csr_view(netlist)
    tables = [view.dfs_expansions(forwards) for forwards in (False, True)]
    twin = csr_view(netlist.copy())
    assert [twin.dfs_expansions(f) for f in (False, True)] == tables
    assert twin.dfs_expansions(False) is tables[0]

    rewired = netlist.copy()
    gate = next(g for g in rewired.gates if rewired.node(g).n_inputs == 1)
    driver = next(pi for pi in rewired.inputs if pi != rewired.node(gate).fanin[0])
    rewired.node(gate).fanin[0] = driver
    rewired.touch_structure()
    other = csr_view(rewired)
    assert other.wiring is not view.wiring
    for forwards, table in zip((False, True), tables):
        assert other.dfs_expansions(forwards) is not table
    i = other.index[gate]
    assert other.dfs_expansions(False).build(i)[1] == [other.index[driver]]
    assert tables[0].build(i)[1] != [other.index[driver]]
    _assert_expansions_fresh(other, build_all=True)
    _assert_expansions_fresh(view, build_all=True)


@pytest.mark.parametrize("circuit", PAPER_BENCHMARK_ORDER)
def test_order_tables_equal_a_fresh_shuffle_and_sort(circuit):
    """Every tabulated order of every 2-4 neighbour node, both directions
    and key sets, is the fresh slice after ``_shuffle_ids`` fed that
    outcome's draws and the stable key sort."""
    view = csr_view(load_benchmark(circuit))
    widths = set()
    for forwards in (False, True):
        table = view.dfs_expansions(forwards)
        ptr = _adjacency(view, forwards)[0]
        for i in range(view.n):
            width = ptr[i + 1] - ptr[i]
            if 2 <= width <= MAX_ORDER_WIDTH:
                widths.add(width)
                entry = table.entries[i] or table.build(i)
                assert (entry[1], entry[2]) == _fresh_orders(view, forwards, i)
    assert widths == {2, 3, 4}


@pytest.mark.parametrize("width", range(2, MAX_ORDER_WIDTH + 1))
def test_order_lookup_draws_what_random_shuffle_draws(width):
    """A forward walk from a node with *width* outputs as readers enters
    the last of its looked-up order and stops: that reader and the rng
    state must be what ``Random.shuffle`` leaves."""
    netlist = Netlist("star")
    netlist.add_input("a")
    netlist.add_gate("s", GateType.BUF, ["a"])
    readers = [f"r{k}" for k in range(width)]
    for name in readers:
        netlist.add_gate(name, GateType.NOT, ["s"])
        netlist.add_output(name)
    for seed in range(200):
        rng = random.Random(seed)
        path, _ = _dfs_to_boundary(netlist, "s", True, rng, want_ffs=0)
        reference = random.Random(seed)
        expected = netlist.fanout("s")
        reference.shuffle(expected)
        assert path == ["s", expected[-1]], seed
        assert rng.getstate() == reference.getstate(), seed


def _race_spec(netlist, start, forwards, seed, **limits):
    """Run the CSR walk and the name-based spec from one seed: the same
    path and flip-flop count, and the same draws."""
    avoid = set(limits.pop("avoid", ()))
    max_steps = limits.pop("max_steps", 50_000)
    max_ffs = limits.pop("max_ffs", 10)
    want_ffs = limits.pop("want_ffs", max_ffs + 1)
    assert not limits
    spec_rng = random.Random(seed)
    expected = _dict_dfs_to_boundary(
        netlist, start, forwards, spec_rng, avoid,
        csr_guide(netlist)[1 if forwards else 0],
        want_ffs=want_ffs, max_ffs=max_ffs, max_steps=max_steps,
    )
    rng = random.Random(seed)
    got = _dfs_to_boundary(
        netlist, start, forwards, rng, max_steps=max_steps, avoid=avoid,
        want_ffs=want_ffs, max_ffs=max_ffs,
    )
    where = (netlist.name, start, forwards, seed, max_steps, max_ffs, want_ffs)
    assert got == expected, where
    assert rng.getstate() == spec_rng.getstate(), where


@pytest.mark.parametrize("circuit", ["s27", "s641", "s1238"])
def test_dfs_budget_and_cap_cuts_race_the_spec(circuit):
    """Every budget of 1-120 steps cuts the walk where the name-based
    spec stops, inside a run or between nodes, at every cap."""
    netlist = load_benchmark(circuit)
    pick = random.Random(circuit)
    starts = pick.sample(sorted(netlist.gates), 3)
    for start in starts:
        for forwards in (False, True):
            for max_ffs in (0, 2, 16):
                for max_steps in range(1, 121):
                    _race_spec(
                        netlist, start, forwards, seed=max_steps,
                        max_steps=max_steps, max_ffs=max_ffs,
                    )


def _ring_and_chains() -> Netlist:
    """Hand-built runs: a ring of single-neighbour flip-flops and
    buffers, a primary output with a reader in the middle of a chain,
    and a chain ending in a dangling pin."""
    n = Netlist("runs")
    for pi in ("a", "b"):
        n.add_input(pi)
    # Ring r1 -> k1 -> r2 -> k2 -> r3 -> k3 -> r1; r2 also feeds x.
    n.add_gate("r1", GateType.DFF, ["k3"])
    n.add_gate("k1", GateType.BUF, ["r1"])
    n.add_gate("r2", GateType.DFF, ["k1"])
    n.add_gate("k2", GateType.BUF, ["r2"])
    n.add_gate("r3", GateType.DFF, ["k2"])
    n.add_gate("k3", GateType.BUF, ["r3"])
    n.add_gate("x", GateType.AND, ["a", "r2"])
    # Chain a -> c1 -> c2 (an output) -> c3 -> q -> c4 (an output).
    n.add_gate("c1", GateType.NOT, ["a"])
    n.add_gate("c2", GateType.BUF, ["c1"])
    n.add_gate("c3", GateType.NOT, ["c2"])
    n.add_gate("q", GateType.DFF, ["c3"])
    n.add_gate("c4", GateType.BUF, ["q"])
    # Chain d1 -> d2 -> p from a net nothing drives.
    n.add_gate("d1", GateType.BUF, ["b"])
    n.add_gate("d2", GateType.NOT, ["d1"])
    n.add_gate("p", GateType.DFF, ["d2"])
    n.add_gate("y", GateType.OR, ["x", "p", "c3"])
    for po in ("x", "c2", "c4", "y"):
        n.add_output(po)
    n.node("d1").fanin[0] = "ghost"
    n.touch_structure()
    return n


def test_dfs_runs_race_the_spec_on_hand_built_chains():
    netlist = _ring_and_chains()
    for start in sorted(netlist.gates):
        for forwards in (False, True):
            for max_ffs in (0, 1, 2, 16):
                for max_steps in (1, 2, 3, 4, 5, 7, 9, 50_000):
                    for avoid in ((), ("k2",), ("c2",), ("d2", "k1")):
                        if start in avoid:
                            continue
                        _race_spec(
                            netlist, start, forwards, seed=max_steps,
                            max_steps=max_steps, max_ffs=max_ffs, avoid=avoid,
                        )


def test_dfs_avoiding_a_run_interior_races_the_spec(s641):
    """``avoid`` holds the second node of a run the walk would enter."""
    view = csr_view(s641)
    raced = 0
    for forwards in (False, True):
        table = view.dfs_expansions(forwards)
        for name in sorted(s641.gates):
            entry = table.build(view.index[name])
            if entry[0] > RUN_EXPAND or len(entry[1]) < 3:
                continue
            avoid = {view.names[entry[1][1]]}
            for max_steps in (3, 50_000):
                _race_spec(
                    s641, name, forwards, seed=raced,
                    max_steps=max_steps, max_ffs=2, avoid=avoid,
                )
            raced += 1
    assert raced > 20


#: Hashes of every net's exact one-probability (``float.hex``) on s641,
#: a dependent lock of it, and the lock's foundry view (LUT configs None).
SP_BASE = "02ac6fc4b7c8a5d0"
SP_LOCKED = "58a957e9dd2ca431"
SP_FOUNDRY = "c6ddec678beb6e90"


def _probability_digest(netlist: Netlist) -> str:
    probs = signal_probabilities(netlist)
    return _digest(sorted((name, p.hex()) for name, p in probs.items()))


@pytest.fixture(scope="module")
def locked_s641():
    return DependentSelection(seed=0).run(load_benchmark("s641"))


def test_signal_probabilities_pinned_base(s641):
    assert _probability_digest(s641) == SP_BASE


def test_signal_probabilities_pinned_locked(locked_s641):
    assert _probability_digest(locked_s641.hybrid) == SP_LOCKED


def test_signal_probabilities_pinned_foundry_view(locked_s641):
    foundry = locked_s641.foundry_view()
    assert any(foundry.node(n).lut_config is None for n in foundry.luts)
    assert _probability_digest(foundry) == SP_FOUNDRY


def _dangling_loop() -> Netlist:
    """Three registers in a loop, fed partly by nets nobody drives."""
    n = Netlist("dangling_loop")
    n.add_input("a")
    n.add_gate("r1", GateType.DFF, ["g2"])
    n.add_gate("g1", GateType.AND, ["a", "spectre", "r1", "ghost"])
    n.add_gate("r2", GateType.DFF, ["g1"])
    n.add_gate("g2", GateType.OR, ["r2", "phantom"])
    n.add_gate("r3", GateType.DFF, ["g2"])
    n.add_gate("o", GateType.XOR, ["r3", "ghost"])
    n.add_output("o")
    return n


#: The relaxation runs in node order and stops after ``cap + 1`` sweeps,
#: so both the values on the register loop and the position of the
#: dangling nets (in first-write order) are part of the result.
DEPTH_DANGLING = [
    ("a", 3), ("r1", 3), ("g1", 4), ("r2", 3), ("g2", 3), ("r3", 0),
    ("o", 0), ("phantom", 3), ("spectre", 3), ("ghost", 3),
]


def test_depth_to_output_pinned_with_dangling_fanin():
    depth = depth_to_output(_dangling_loop())
    assert list(depth.items()) == DEPTH_DANGLING



def _random_candidate_sets(netlist: Netlist, seed: int, count: int = 20):
    """*count* seeded sets of 1-12 multi-input gates."""
    rng = random.Random(seed)
    multi = [
        g
        for g in netlist.gates
        if netlist.node(g).n_inputs >= 2 and not netlist.node(g).is_lut
    ]
    return [rng.sample(multi, rng.randint(1, 12)) for _ in range(count)]


def _assert_cone_timing_exact(netlist: Netlist, seed: int) -> None:
    timing = TimingAnalyzer()
    for names in _random_candidate_sets(netlist, seed):
        locked = netlist.copy()
        replace_gates_with_luts(locked, names)
        # A fresh analyzer times the replaced copy by a full pass.
        expected = TimingAnalyzer().max_delay(locked)
        assert timing.max_delay(netlist, as_lut=names) == expected, names
        assert timing.analyze(netlist, as_lut=names).max_delay_ns == expected
    assert not netlist.luts  # candidate timing never mutates the netlist


@pytest.mark.parametrize(
    "circuit", ["s641", "s820", "s832", "s953", "s1196", "s1238", "s1488"]
)
def test_cone_timing_equals_a_replaced_copy(circuit):
    _assert_cone_timing_exact(load_benchmark(circuit), seed=17)


def test_cone_timing_with_a_dangling_d_pin(s641):
    broken = s641.copy()
    broken.node(sorted(broken.flip_flops)[0]).fanin[0] = "ghost"
    broken.touch_structure()
    assert csr_view(broken).dangling
    _assert_cone_timing_exact(broken, seed=23)


#: Hash of the canonical rows of one attack grid (s27 x three algorithms
#: x four attacks, ML at ``batch_width=64``), per selection seed.
ATTACK_GRID_DIGESTS = {
    0: "c9548b4066b957b6",
    1: "c619b5147658f78e",
    2: "85860742daebc788",
}


@pytest.mark.parametrize("seed", sorted(ATTACK_GRID_DIGESTS))
def test_attack_grid_rows_are_pinned(seed):
    spec = SweepSpec(
        circuits=("s27",),
        algorithms=("independent", "dependent", "parametric"),
        seeds=(seed,),
        attacks=("testing", "brute", "sat", "ml"),
        analyses=(),
        algorithm_params={"dependent": {"on_degenerate": "fallback"}},
        attack_params={"ml": {"batch_width": 64}},
    )
    rows = [canonical_row(row) for _, row in SweepRunner(workers=1).stream(spec)]
    assert all(row["status"] == "ok" for row in rows)
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
    assert digest.hexdigest()[:16] == ATTACK_GRID_DIGESTS[seed]


#: Hash of the canonical ML rows of s27 x three algorithms x seeds 0-2 at
#: the default ``batch_width`` (300 iterations per restart, 2 restarts),
#: recorded while width 1 still ran a separate one-proposal annealer.
#: Several trials converge after one iteration.
ML_DEFAULT_WIDTH_DIGEST = "bf051f315837317b"


def test_ml_rows_at_default_width_are_pinned():
    spec = SweepSpec(
        circuits=("s27",),
        algorithms=("independent", "dependent", "parametric"),
        seeds=(0, 1, 2),
        attacks=("ml",),
        analyses=(),
        algorithm_params={"dependent": {"on_degenerate": "fallback"}},
        attack_params={"ml": {"iterations_per_restart": 300, "restarts": 2}},
    )
    rows = [canonical_row(row) for _, row in SweepRunner(workers=1).stream(spec)]
    assert all(row["status"] == "ok" for row in rows)
    assert min(row["metrics"]["attack"]["iterations"] for row in rows) == 1
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
    assert digest.hexdigest()[:16] == ML_DEFAULT_WIDTH_DIGEST


def _direct_counts(foundry, keys, patterns, labels, points):
    """Matched (pattern, point) pairs per key, one programmed copy and one
    reference simulation per key and pattern."""
    counts = []
    for key in keys:
        programmed = foundry.copy("programmed")
        for name, config in key.items():
            programmed.node(name).lut_config = config
        matched = 0
        for pattern, label in zip(patterns, labels):
            values = reference_evaluate(
                programmed,
                {pi: pattern[pi] for pi in foundry.inputs},
                {ff: pattern[ff] for ff in foundry.flip_flops},
                1,
            )
            matched += sum(values[p] == label[p] for p in points)
        counts.append(matched)
    return counts


@pytest.fixture(scope="module")
def scored_lock():
    """A locked s27, 140 candidate keys (the true key among them), 40
    labelled patterns, the observation points and each key's direct
    count."""
    rng = random.Random(3)
    hybrid = load_benchmark("s27").copy("s27_scored")
    replace_gates_with_luts(hybrid, ["G8", "G12", "G15"], program=True)
    foundry = HybridMapper().strip_configs(hybrid)
    luts = sorted(foundry.luts)
    keys = [
        {n: rng.choice(candidate_configs(foundry.node(n).n_inputs)) for n in luts}
        for _ in range(139)
    ]
    keys.insert(70, {n: hybrid.node(n).lut_config for n in luts})
    startpoints = foundry.inputs + foundry.flip_flops
    patterns = [{sp: rng.getrandbits(1) for sp in startpoints} for _ in range(40)]
    points = foundry.outputs + [foundry.node(ff).fanin[0] for ff in foundry.flip_flops]
    truth = CombinationalSimulator(hybrid)
    labels = [
        truth.evaluate(
            {pi: p[pi] for pi in foundry.inputs},
            {ff: p[ff] for ff in foundry.flip_flops},
            1,
        )
        for p in patterns
    ]
    expected = _direct_counts(foundry, keys, patterns, labels, points)
    return foundry, keys, patterns, labels, points, expected


@pytest.mark.parametrize("width", [1, 64, 65, 130])
def test_score_keys_counts_equal_a_direct_count(scored_lock, width):
    foundry, keys, patterns, labels, points, expected = scored_lock
    assert expected[70] == len(patterns) * len(points)  # the true key
    assert len(set(expected)) > 10
    counts = score_keys(
        foundry, keys, patterns, labels, points, batch_width=width
    )
    assert counts == expected


#: Hash of the canonical rows of a small Table I grid (s641, s820, s832
#: x three algorithms, PPA and security analyses), per selection seed:
#: every overhead and security float at full precision.
PAPER_GRID_DIGESTS = {
    0: "a7b306be603fb82b",
    1: "ea8585f36021b7bb",
}


@pytest.mark.parametrize("seed", sorted(PAPER_GRID_DIGESTS))
def test_paper_grid_rows_are_pinned(seed):
    spec = SweepSpec(
        circuits=("s641", "s820", "s832"),
        algorithms=("independent", "dependent", "parametric"),
        seeds=(seed,),
        analyses=("ppa", "security"),
        algorithm_params={"dependent": {"on_degenerate": "fallback"}},
    )
    rows = [canonical_row(row) for _, row in SweepRunner(workers=1).stream(spec)]
    assert all(row["status"] == "ok" for row in rows)
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode())
    assert digest.hexdigest()[:16] == PAPER_GRID_DIGESTS[seed]


def _named_area(analyzer: AreaAnalyzer, netlist: Netlist):
    """The name-based per-node area walk the CSR loop replaced."""
    per_node = {}
    cmos = stt_area = sequential = 0.0
    for node in netlist:
        if node.is_input:
            continue
        if node.gate_type is GateType.LUT:
            area = analyzer.stt.lut(node.n_inputs).area_um2
            stt_area += area
        elif node.is_sequential:
            area = analyzer.tech.dff.area_um2
            sequential += area
        else:
            area = analyzer.tech.cell(node.gate_type, node.n_inputs).area_um2
            cmos += area
        per_node[node.name] = area
    return cmos + stt_area + sequential, cmos, stt_area, sequential, per_node


def _named_power(analyzer: PowerAnalyzer, netlist: Netlist, activities):
    """The name-based per-node power walk the CSR loop replaced."""
    freq = analyzer.tech.default_freq_ghz
    per_node = {}
    dynamic = leakage = 0.0
    for node in netlist:
        if node.is_input:
            continue
        alpha = activities.get(node.name, 0.0)
        if node.gate_type is GateType.LUT:
            cell = analyzer.stt.lut(node.n_inputs)
            fanin_alphas = [activities.get(src, 0.0) for src in node.fanin]
            mean_alpha = (
                sum(fanin_alphas) / len(fanin_alphas) if fanin_alphas else 0.0
            )
            dyn = (
                cell.read_energy_pj
                * mean_alpha
                * analyzer.read_gating_factor
                * freq
                * 1e3
            )
            leak = cell.standby_nw * 1e-3
        elif node.is_sequential:
            cell = analyzer.tech.dff
            dyn = cell.energy_sw_pj * max(alpha, 0.5 * 0.2) * freq * 1e3
            leak = cell.leakage_nw * 1e-3
        else:
            cell = analyzer.tech.cell(node.gate_type, node.n_inputs)
            dyn = cell.energy_sw_pj * alpha * freq * 1e3
            leak = cell.leakage_nw * 1e-3
        per_node[node.name] = dyn + leak
        dynamic += dyn
        leakage += leak
    return dynamic, leakage, per_node


def _assert_area_power_exact(original: Netlist, netlists, own=True) -> None:
    """Each of *netlists* against the name-based walks: its area, and its
    power under the original's activities and (with *own*) under its
    own; then the overheads of every one against *original* through
    shared analyzers (so the original's totals come from their memos)."""
    area, power = AreaAnalyzer(), PowerAnalyzer()
    acts = estimate_activities(original, input_activity=0.2)
    for netlist in netlists:
        report = area.analyze(netlist)
        total, cmos, stt_area, sequential, per_node = _named_area(area, netlist)
        assert report.total_um2 == total, netlist.name
        assert (report.cmos_um2, report.stt_um2, report.sequential_um2) == (
            cmos, stt_area, sequential
        )
        assert list(report.per_node_um2.items()) == list(per_node.items())
        charged = [acts, estimate_activities(netlist)] if own else [acts]
        for activities in charged:
            got = power.analyze(netlist, activities=activities)
            dynamic, leakage, per_node = _named_power(power, netlist, activities)
            assert (got.dynamic_uw, got.leakage_uw) == (dynamic, leakage)
            assert got.total_uw == dynamic + leakage
            assert list(got.per_node_uw.items()) == list(per_node.items())
    base_area = _named_area(area, original)[0]
    base_power = sum(_named_power(power, original, acts)[:2])
    for netlist in netlists:
        new_area = _named_area(area, netlist)[0]
        new_power = sum(_named_power(power, netlist, acts)[:2])
        assert area.area_overhead_pct(original, netlist) == (
            (new_area - base_area) / base_area * 100.0
        )
        assert power.power_overhead_pct(original, netlist) == (
            (new_power - base_power) / base_power * 100.0
        )


@pytest.mark.parametrize(
    "circuit", ["s641", "s820", "s832", "s953", "s1196", "s1238", "s1488"]
)
def test_area_and_power_equal_the_named_walks(circuit):
    original = load_benchmark(circuit)
    netlists = [original]
    for options in ({"decoy_inputs": 2}, {"absorb": True}):
        result = lock_design(original, "independent", seed=3, **options)
        netlists += [result.hybrid, result.foundry_view()]
    _assert_area_power_exact(original, netlists)


def test_area_and_power_with_a_dangling_lut_pin(s641):
    result = lock_design(s641, "independent", seed=3, decoy_inputs=2)
    broken = result.hybrid.copy()
    for lut in sorted(broken.luts)[:3]:
        node = broken.node(lut)
        node.fanin[-1] = f"ghost_{lut}"
    broken.touch_structure()
    view = csr_view(broken)
    assert any(view.is_lut[i] for i, _ in view.dangling)
    # No activity estimate of its own: a dangling reader never levelizes.
    _assert_area_power_exact(s641, [broken], own=False)
    # A dangling pin is charged the activity its net name has.
    acts = dict(estimate_activities(s641))
    acts.update({f"ghost_{lut}": 0.37 for lut in sorted(broken.luts)[:2]})
    power = PowerAnalyzer()
    got = power.analyze(broken, activities=acts)
    dynamic, leakage, per_node = _named_power(power, broken, acts)
    assert (got.dynamic_uw, got.leakage_uw) == (dynamic, leakage)
    assert list(got.per_node_uw.items()) == list(per_node.items())
