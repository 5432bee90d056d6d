"""Cross-compiler: SIMD DFG -> per-target compiled kernels.

Compilation in MLIMP is static and deterministic (paper III-E: "compute
time for a basic block of most in-memory workloads can be
deterministically calculated at compile time").  The compiler walks
the kernel DFG once per target, legalises every node, and records:

* cycles per element (one SIMD lane executing the whole kernel once),
* the lowered native-op histogram (instruction mix),
* dynamic energy per element,
* per-element operand footprint (bytes moved into the compute region).

The resulting :class:`CompiledKernel` is the unit the scheduler's
performance model consumes: execution time over ``n`` elements with an
allocation of ``a`` arrays is a closed-form function of these numbers
plus the device geometry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..memories.base import MemoryKind, MemorySpec
from .dfg import DFG
from .lowering import lower_histogram
from .ops import OP_CLASSES, Op, OpClass
from .timing import op_cycles

__all__ = ["CompiledKernel", "compile_dfg", "compile_for_all"]


@dataclass(frozen=True)
class CompiledKernel:
    """A kernel cross-compiled for one in-memory target."""

    name: str
    target: MemoryKind
    cycles_per_element: float
    energy_per_element_pj: float
    native_histogram: Counter = field(default_factory=Counter)
    input_bytes_per_element: int = 0
    output_bytes_per_element: int = 0
    frontend_ops: int = 0

    def compute_energy_j(self, elements: int) -> float:
        """Dynamic compute energy for ``elements`` lane-executions."""
        if elements <= 0:
            return 0.0
        return elements * self.energy_per_element_pj * 1e-12


def _op_energy_pj(spec: MemorySpec, op: Op, cycles: float, bits: int) -> float:
    """Energy of one native op on one lane.

    Bitwise ops use the per-technology bulk-bitwise energy (Ambit's
    headline advantage); everything else scales with cycle count
    relative to the calibrated MAC energy.
    """
    if OP_CLASSES.get(op) is OpClass.BITWISE:
        return spec.energy_per_bitop_pj * bits / 16.0
    if spec.mac_cycles_2op <= 0:
        return 0.0
    return spec.energy_per_mac_pj * cycles / spec.mac_cycles_2op


def _mac_chain_positions(dfg: DFG) -> dict[str, int]:
    """Position of each MAC node within its accumulation chain.

    A MAC whose input is itself a MAC continues a dot-product chain.
    The ReRAM backend fuses whole chains into single multi-operand
    analog operations (the crossbar sums all activated rows on the
    bitline), so only every ``max_operands``-th position pays cycles.
    """
    positions: dict[str, int] = {}
    for node in dfg.topological():
        if node.op is not Op.MAC:
            continue
        parent = next(
            (p for p in node.inputs if dfg.nodes[p].op is Op.MAC), None
        )
        positions[node.name] = positions[parent] + 1 if parent else 0
    return positions


def compile_dfg(dfg: DFG, spec: MemorySpec) -> CompiledKernel:
    """Cross-compile ``dfg`` for the target described by ``spec``."""
    dfg.validate()
    frontend = dfg.op_histogram()
    native = lower_histogram(spec.kind, frontend)
    mac_positions = (
        _mac_chain_positions(dfg) if spec.kind is MemoryKind.RERAM else {}
    )

    cycles = 0.0
    energy_pj = 0.0
    input_bytes = 0
    output_bytes = 0
    for node in dfg.operation_nodes():
        assert node.op is not None
        if node.op is Op.LOAD:
            input_bytes += node.bits // 8
            continue
        if node.op is Op.STORE:
            output_bytes += node.bits // 8
            continue
        if (
            node.name in mac_positions
            and mac_positions[node.name] % spec.max_operands != 0
        ):
            # Fused into the chain head's multi-operand analog MAC.
            continue
        node_cycles = op_cycles(spec.kind, node.op, node.bits)
        cycles += node_cycles
        energy_pj += _op_energy_pj(spec, node.op, node_cycles, node.bits)
    # Kernel inputs are operands that must be resident in the array.
    for name in dfg.inputs:
        input_bytes += dfg.nodes[name].bits // 8
    for name in dfg.outputs:
        output_bytes += dfg.nodes[name].bits // 8

    return CompiledKernel(
        name=dfg.name,
        target=spec.kind,
        cycles_per_element=cycles,
        energy_per_element_pj=energy_pj,
        native_histogram=native,
        input_bytes_per_element=input_bytes,
        output_bytes_per_element=output_bytes,
        frontend_ops=sum(frontend.values()),
    )


def compile_for_all(
    dfg: DFG, specs: dict[MemoryKind, MemorySpec]
) -> dict[MemoryKind, CompiledKernel]:
    """Cross-compile one DFG for every configured target (Fig. 6)."""
    return {kind: compile_dfg(dfg, spec) for kind, spec in specs.items()}
