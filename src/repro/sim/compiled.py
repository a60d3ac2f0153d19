"""Compiled per-netlist simulation kernels.

Every security number in the reproduction — brute-force/testing/ML attack
query counts, the oracle, fault coverage, power-activity estimation — is
bottlenecked on :meth:`repro.sim.logicsim.CombinationalSimulator.evaluate`.
The interpreted engine pays, per gate per call: a node-dict lookup, a
fan-in list build, and a gate-type dispatch chain.  This module removes
all of it by *code generation*: for a given netlist it emits one
straight-line Python function with a single local-variable assignment per
gate in topological order, then ``compile()``\\ s it once.  Evaluating a
pattern word is then a plain function call over local variables — no
dictionaries, no dispatch, no per-gate allocation.

Design points:

* **Configurations are runtime data** — every LUT's truth table is read
  from its node at call time and selects minterm masks branch-free, so
  the attacks' hypothesis sweeps (which rewrite ``lut_config`` thousands
  of times) never trigger a recompile.
* **One staleness rule** — a program is a derived view like the CSR
  snapshot: :func:`get_program` memoizes it per netlist on
  ``structure_revision`` (:func:`repro.netlist.cache.memoized`), which
  every change to the node set, wiring, outputs or gate types bumps
  (``replace_with_lut`` included).  ``lut_config`` writes bump nothing
  and need not: no configuration is baked into a kernel.
* **Bit-identical results** — masking mirrors the interpreter exactly
  (inverting ops are ``x ^ mask``), and the word-parallel LUT fallback is
  the interpreter's own helper, so ``compiled == interpreted`` bit for
  bit.  ``tests/test_compiled_sim.py`` asserts this across randomized
  netlists, overrides, and sequential runs.

Overrides (fault injection / hypothesis pinning) are served by a second,
lazily compiled variant whose per-gate assignment consults the override
dict first — still far cheaper than the interpreter, and only built for
netlists that actually get fault-simulated.

A third lazily compiled variant serves the **config-lane axis** (the dual
of pattern packing): instead of one bit per input pattern, a word carries
one bit per *candidate LUT configuration*, so a single kernel call scores
a whole batch of keys against one fixed pattern.  Each LUT reads a
list of per-truth-table-row words (bit *l* of row word *r* = bit *r* of
lane *l*'s configuration) and selects rows with plain AND/OR — see
:meth:`CompiledProgram.evaluate_configs` and :mod:`repro.sim.keybatch`
for the batched hypothesis-screening built on top.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..netlist.cache import memoized
from ..netlist.csr import csr_view
from ..netlist.gates import GateType
from ..netlist.graph import combinational_order
from ..netlist.netlist import Netlist, NetlistError, Node
from ..obs import add_counter, span

#: Valid kernel variants emitted by :meth:`CompiledProgram._generate`.
_VARIANTS = ("plain", "override", "configs")

#: LUTs up to this fan-in are unrolled inline as a branch-free select
#: over minterm masks; wider ones call the shared word-parallel helper to
#: bound generated-code size.
_UNROLL_MAX_INPUTS = 3

_EMPTY: Dict[str, int] = {}


def _minterm_expr(row: int, pin_vars: List[str]) -> str:
    """The word-parallel mask expression selecting truth-table row *row*."""
    literals = []
    for pin, var in enumerate(pin_vars):
        if (row >> pin) & 1:
            literals.append(var)
        else:
            literals.append(f"({var} ^ _m)")
    return " & ".join(literals)


def _primitive_expr(gate_type: GateType, operands: List[str]) -> str:
    """Expression for a primitive gate over already-masked word operands.

    Inverting types XOR with the mask, which both complements and masks in
    one operation — bit-identical to the interpreter's ``~x & mask``.
    """
    if gate_type is GateType.CONST0:
        return "0"
    if gate_type is GateType.CONST1:
        return "_m"
    if gate_type in (GateType.BUF, GateType.DFF):
        return operands[0]
    if gate_type is GateType.NOT:
        return f"{operands[0]} ^ _m"
    if gate_type is GateType.AND:
        return " & ".join(operands)
    if gate_type is GateType.NAND:
        return f"({' & '.join(operands)}) ^ _m"
    if gate_type is GateType.OR:
        return " | ".join(operands)
    if gate_type is GateType.NOR:
        return f"({' | '.join(operands)}) ^ _m"
    if gate_type is GateType.XOR:
        return " ^ ".join(operands)
    if gate_type is GateType.XNOR:
        return f"({' ^ '.join(operands)}) ^ _m"
    raise NetlistError(f"gate type {gate_type} has no boolean function")


def _scalar_lut_lines(
    target: str, cfg_var: str, name: str, pin_vars: List[str]
) -> List[str]:
    """Assignment lines for a LUT whose configuration is fetched at runtime.

    ``-(bit)`` is 0 or -1 (all ones), so ``-(bit) & minterm`` keeps or
    drops each row branch-free; the minterm operands are masked, hence the
    result is masked.
    """
    lines = [
        f"if {cfg_var} is None:",
        f"    raise _err({f'cannot simulate unprogrammed LUT {name!r}'!r})",
    ]
    n = len(pin_vars)
    if n <= _UNROLL_MAX_INPUTS:
        terms = []
        for row in range(1 << n):
            sel = f"{cfg_var} & 1" if row == 0 else f"({cfg_var} >> {row}) & 1"
            terms.append(f"(-({sel}) & ({_minterm_expr(row, pin_vars)}))")
        lines.append(f"{target} = {' | '.join(terms)}")
    else:
        operands = ", ".join(pin_vars)
        lines.append(f"{target} = _lut({cfg_var}, ({operands},), _m)")
    return lines


def _eval_lut_rows_word(
    row_words: List[int], fanin_words: Tuple[int, ...], mask: int
) -> int:
    """Evaluate a LUT whose configuration differs *per lane*.

    ``row_words[r]`` has bit *l* set when lane *l*'s configuration sets
    truth-table row *r*.  The fan-in words are lane-broadcast pattern
    bits, so ``row_word & minterm`` keeps exactly the lanes that both
    select row *r* and program it to 1.  Zero row words (rows no lane
    sets) are skipped, mirroring the sparse loop of ``_eval_lut_word``.
    """
    complements = [word ^ mask for word in fanin_words]
    out = 0
    for row, selected in enumerate(row_words):
        if not selected:
            continue
        hit = selected
        for pin, word in enumerate(fanin_words):
            hit &= word if (row >> pin) & 1 else complements[pin]
            if not hit:
                break
        out |= hit
    return out & mask


def _config_lane_lut_lines(
    target: str, rows_var: str, pin_vars: List[str]
) -> List[str]:
    """Assignment lines for a LUT in the config-lane kernel.

    The per-row config words are packed ahead of the call
    (:meth:`CompiledProgram.pack_configs`), so — unlike the
    scalar-config path — no per-row bit extraction happens inside the
    kernel: each row costs one AND with its minterm mask.
    """
    n = len(pin_vars)
    if n <= _UNROLL_MAX_INPUTS:
        terms = [
            f"({rows_var}[{row}] & ({_minterm_expr(row, pin_vars)}))"
            for row in range(1 << n)
        ]
        return [f"{target} = {' | '.join(terms)}"]
    operands = ", ".join(pin_vars)
    return [f"{target} = _lutrows({rows_var}, ({operands},), _m)"]


class PackedConfigs:
    """A batch of candidate LUT configurations packed into word lanes.

    Built by :meth:`CompiledProgram.pack_configs`; ``rows_by_index[i]``
    holds, for the *i*-th LUT, one word per truth-table row whose
    bit *l* is bit *r* of lane *l*'s configuration.
    """

    __slots__ = ("lanes", "mask", "rows_by_index")

    def __init__(
        self, lanes: int, mask: int, rows_by_index: List[List[int]]
    ):
        self.lanes = lanes
        self.mask = mask
        self.rows_by_index = rows_by_index


class CompiledProgram:
    """One netlist's generated evaluation kernels.

    Every LUT reads its configuration at call time: ``lut_nodes[i]`` is
    the *i*-th LUT in topological order, whose ``lut_config`` the plain
    and override kernels receive as ``_cfg[i]`` and the config-lane
    kernel as the row words ``_cfgw[i]``.
    """

    def __init__(self, netlist: Netlist):
        view = csr_view(netlist)
        self._order = combinational_order(netlist)
        names = view.names
        self._pis = [names[i] for i in range(view.n) if view.is_input[i]]
        self._ffs = [names[i] for i in range(view.n) if view.is_seq[i]]
        self._var: Dict[str, str] = {}
        for i, name in enumerate(self._pis + self._ffs + self._order):
            self._var[name] = f"_v{i}"
        self._nodes = {name: netlist.node(name) for name in self._order}
        self.lut_nodes: List[Node] = [
            node
            for node in self._nodes.values()
            if node.gate_type is GateType.LUT
        ]
        self._lut_index: Dict[str, int] = {
            node.name: i for i, node in enumerate(self.lut_nodes)
        }
        with span(
            "sim.codegen",
            circuit=netlist.name,
            gates=len(self._order),
            luts=len(self.lut_nodes),
            kernel="plain",
        ):
            self.source = self._generate("plain")
            self._fast = self._compile(self.source, "_run", netlist.name)
        add_counter("sim.codegen_compiles")
        self.override_source: Optional[str] = None
        self._ov_fn = None
        self.config_source: Optional[str] = None
        self._cfg_fn = None
        self._netlist_name = netlist.name

    # ------------------------------------------------------------------
    # codegen
    # ------------------------------------------------------------------
    def _generate(self, variant: str) -> str:
        """Emit one kernel variant: ``plain`` (scalar configs),
        ``override`` (net pinning), or ``configs`` (per-lane config words)."""
        if variant not in _VARIANTS:
            raise ValueError(f"unknown kernel variant {variant!r}")
        with_overrides = variant == "override"
        lines: List[str] = []
        add = lines.append
        entry = {"plain": "_run", "override": "_run_ov", "configs": "_run_cfg"}
        cfg_arg = "_cfgw" if variant == "configs" else "_cfg"
        args = f"_in, _st, _m, {cfg_arg}" + (", _ov" if with_overrides else "")
        add(f"def {entry[variant]}({args}):")
        if self._pis:
            add("    try:")
            for pi in self._pis:
                add(f"        {self._var[pi]} = _in[{pi!r}] & _m")
            add("    except KeyError as _e:")
            add(
                "        raise _err('missing value for primary input '"
                " + repr(_e.args[0]))"
            )
        for ff in self._ffs:
            add(f"    {self._var[ff]} = _st.get({ff!r}, 0) & _m")
        if with_overrides:
            for name in self._pis + self._ffs:
                add(f"    _t = _ov.get({name!r})")
                add("    if _t is not None:")
                add(f"        {self._var[name]} = _t & _m")
        for name in self._order:
            gate_lines = self._gate_lines(name, variant)
            if with_overrides:
                add(f"    _t = _ov.get({name!r})")
                add("    if _t is not None:")
                add(f"        {self._var[name]} = _t & _m")
                add("    else:")
                for line in gate_lines:
                    add(f"        {line}")
            else:
                for line in gate_lines:
                    add(f"    {line}")
        items = ", ".join(
            f"{name!r}: {var}" for name, var in self._var.items()
        )
        add(f"    return {{{items}}}")
        return "\n".join(lines) + "\n"

    def _gate_lines(self, name: str, variant: str = "plain") -> List[str]:
        node = self._nodes[name]
        target = self._var[name]
        pin_vars = [self._var[src] for src in node.fanin]
        if node.gate_type is GateType.LUT:
            idx = self._lut_index[name]
            if variant == "configs":
                return _config_lane_lut_lines(target, f"_cfgw[{idx}]", pin_vars)
            return _scalar_lut_lines(target, f"_cfg[{idx}]", name, pin_vars)
        return [f"{target} = {_primitive_expr(node.gate_type, pin_vars)}"]

    @staticmethod
    def _compile(source: str, entry: str, netlist_name: str):
        from .logicsim import _eval_lut_word

        namespace: Dict[str, object] = {
            "_err": NetlistError,
            "_lut": _eval_lut_word,
            "_lutrows": _eval_lut_rows_word,
        }
        code = compile(source, f"<compiled-sim:{netlist_name}>", "exec")
        exec(code, namespace)
        return namespace[entry]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def evaluate(
        self,
        inputs: Mapping[str, int],
        state: Optional[Mapping[str, int]] = None,
        width: int = 1,
        overrides: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        mask = (1 << width) - 1
        cfg = [node.lut_config for node in self.lut_nodes]
        add_counter("sim.compiled_evaluations")
        if overrides:
            if self._ov_fn is None:
                with span(
                    "sim.codegen",
                    circuit=self._netlist_name,
                    gates=len(self._order),
                    override_kernel=True,
                    kernel="override",
                    width=width,
                ):
                    self.override_source = self._generate("override")
                    self._ov_fn = self._compile(
                        self.override_source, "_run_ov", self._netlist_name
                    )
                add_counter("sim.codegen_compiles")
            return self._ov_fn(inputs, state or _EMPTY, mask, cfg, overrides)
        return self._fast(inputs, state or _EMPTY, mask, cfg)

    # ------------------------------------------------------------------
    # config-lane execution (key-parallel batching)
    # ------------------------------------------------------------------
    def pack_configs(
        self, configs: Sequence[Mapping[str, int]]
    ) -> PackedConfigs:
        """Pack one candidate-configuration assignment per word lane.

        Each element of *configs* maps LUT names to a candidate truth
        table; LUTs an assignment leaves out keep their current
        ``lut_config`` (which must then be programmed).
        """
        lanes = len(configs)
        if lanes == 0:
            raise NetlistError(
                "config-lane evaluation needs at least one configuration lane"
            )
        mask = (1 << lanes) - 1
        swept: Set[str] = set()
        for assignment in configs:
            swept.update(assignment)
        unknown: Set[str] = swept.difference(self._lut_index)
        if unknown:
            raise NetlistError(
                f"config lanes can only sweep LUT nodes; "
                f"{sorted(unknown)!r} are not LUTs of this netlist"
            )
        lane_bits = [1 << lane for lane in range(lanes)]
        rows_by_index: List[List[int]] = []
        for node in self.lut_nodes:
            n_rows = 1 << node.n_inputs
            full = (1 << n_rows) - 1
            base = node.lut_config
            if node.name not in swept:
                # No lane overrides this LUT: broadcast its current config.
                if base is None:
                    raise NetlistError(
                        f"cannot simulate unprogrammed LUT {node.name!r}"
                    )
                base &= full
                rows_by_index.append(
                    [-((base >> row) & 1) & mask for row in range(n_rows)]
                )
                continue
            column = [assignment.get(node.name, base) for assignment in configs]
            if None in column:
                raise NetlistError(
                    f"cannot simulate unprogrammed LUT {node.name!r}"
                )
            # Lanes grouped by configuration: each distinct config ORs its
            # lane mask into the rows it sets.
            lanes_of: Dict[int, int] = {}
            for config, bit in zip(column, lane_bits):
                lanes_of[config] = lanes_of.get(config, 0) | bit
            words = [0] * n_rows
            for config, lane_mask in lanes_of.items():
                config &= full
                while config:
                    low = config & -config
                    words[low.bit_length() - 1] |= lane_mask
                    config ^= low
            rows_by_index.append(words)
        return PackedConfigs(lanes, mask, rows_by_index)

    def evaluate_packed(
        self,
        inputs: Mapping[str, int],
        packed: PackedConfigs,
        state: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Evaluate one scalar pattern across all config lanes of *packed*.

        Bit 0 of each input/state value is broadcast to every lane; the
        returned words carry one bit per lane (lane *l* = the circuit as
        programmed by ``configs[l]``).
        """
        if self._cfg_fn is None:
            with span(
                "sim.codegen",
                circuit=self._netlist_name,
                gates=len(self._order),
                kernel="configs",
                lanes=packed.lanes,
            ):
                self.config_source = self._generate("configs")
                self._cfg_fn = self._compile(
                    self.config_source, "_run_cfg", self._netlist_name
                )
            add_counter("sim.codegen_compiles")
        mask = packed.mask
        in_words = {pi: -(value & 1) & mask for pi, value in inputs.items()}
        state_words = (
            {ff: -(value & 1) & mask for ff, value in state.items()}
            if state
            else _EMPTY
        )
        add_counter("sim.compiled_config_evaluations")
        return self._cfg_fn(in_words, state_words, mask, packed.rows_by_index)

    def evaluate_configs(
        self,
        inputs: Mapping[str, int],
        configs: Sequence[Mapping[str, int]],
        state: Optional[Mapping[str, int]] = None,
        width: Optional[int] = None,
    ) -> Dict[str, int]:
        """Key-parallel evaluation: one word lane per candidate config.

        Args:
            inputs: primary-input net -> scalar bit (bit 0 is used).
            configs: one mapping of LUT name -> candidate truth table per
                lane; lane *k* of every returned word is the value under
                ``configs[k]``.
            state: DFF output net -> scalar bit (defaults to all zero).
            width: lanes packed per kernel pass; batches of *width* are
                evaluated and stitched back together, so results are
                independent of the chosen width.  ``None`` packs all
                lanes into a single pass.
        """
        configs = list(configs)
        lanes = len(configs)
        if width is None or width <= 0 or width >= lanes:
            return self.evaluate_packed(
                inputs, self.pack_configs(configs), state
            )
        out: Dict[str, int] = {}
        for start in range(0, lanes, width):
            packed = self.pack_configs(configs[start : start + width])
            part = self.evaluate_packed(inputs, packed, state)
            if start == 0:
                out = part
            else:
                for net, word in part.items():
                    out[net] |= word << start
        return out


def get_program(netlist: Netlist) -> CompiledProgram:
    """The compiled kernels for *netlist*, memoized per structure revision
    like every other derived view; LUT configurations are read per call,
    so rewriting them never rebuilds the program."""
    return memoized(netlist, "compiled", CompiledProgram)


def program_for_configs(
    netlist: Netlist, swept: Set[str]
) -> CompiledProgram:
    """The program for *netlist*, after checking that every net in
    *swept* is a LUT (a name with no net raises the netlist's error)."""
    program = get_program(netlist)
    for name in swept:
        if name not in program._lut_index:
            node = netlist.node(name)
            raise NetlistError(
                f"config lanes can only sweep LUT nodes; {name!r} is "
                f"{node.gate_type.value}"
            )
    return program


def evaluate_configs(
    netlist: Netlist,
    inputs: Mapping[str, int],
    configs: Sequence[Mapping[str, int]],
    state: Optional[Mapping[str, int]] = None,
    width: Optional[int] = None,
) -> Dict[str, int]:
    """Key-parallel evaluation of *netlist*: one word lane per candidate
    LUT-configuration assignment (see
    :meth:`CompiledProgram.evaluate_configs`).
    """
    configs = list(configs)
    swept: Set[str] = set()
    for assignment in configs:
        swept.update(assignment)
    program = program_for_configs(netlist, swept)
    return program.evaluate_configs(inputs, configs, state, width)


def compiled_source(netlist: Netlist) -> str:
    """The generated kernel source for *netlist* (debugging aid)."""
    return get_program(netlist).source
