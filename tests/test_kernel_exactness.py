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
packing and the three-valued implication were rewritten.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.analysis import PathFinder, signal_probabilities
from repro.analysis.sta import TimingAnalyzer
from repro.attacks import candidate_configs
from repro.circuits import load_benchmark
from repro.lut import HybridMapper
from repro.locking import DependentSelection, depth_to_output
from repro.netlist import GateType, Netlist
from repro.netlist.csr import csr_view
from repro.netlist.graph import PathGuide, _shuffle_ids, find_io_path
from repro.netlist.transform import replace_gates_with_luts
from repro.sim import CombinationalSimulator, score_keys
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


#: Hash of 40 guided/unguided ``find_io_path`` results on s641 with
#: dangling fan-in (ids of -1 in the CSR view) plus the final RNG state.
DANGLING_DFS_DIGESTS = {False: "be74401bd9634b3e", True: "531235f5a18fbfc4"}


@pytest.mark.parametrize("guided", [False, True])
def test_dfs_over_dangling_fanin_is_pinned(s641, guided):
    broken = _with_dangling_fanin(s641, seed=5)
    guide = PathGuide(broken) if guided else None
    rng = random.Random(1)
    through = random.Random(2).sample(broken.gates, 40)
    found = [find_io_path(broken, g, rng=rng, guide=guide) for g in through]
    assert any(found)
    assert _digest((found, rng.getstate())) == DANGLING_DFS_DIGESTS[guided]


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


def _direct_counts(foundry, keys, patterns, labels, points):
    """Matched (pattern, point) pairs per key, one programmed copy and one
    interpreted simulation per key and pattern."""
    counts = []
    for key in keys:
        programmed = foundry.copy("programmed")
        for name, config in key.items():
            programmed.node(name).lut_config = config
        sim = CombinationalSimulator(programmed, backend="interpreted")
        matched = 0
        for pattern, label in zip(patterns, labels):
            values = sim.evaluate(
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
