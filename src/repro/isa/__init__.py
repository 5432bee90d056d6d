"""Common programming frontend: SIMD DFGs, lowering, cross-compilation."""

from .compiler import CompiledKernel, compile_dfg, compile_for_all
from .dfg import DFG, DFGError, DFGNode
from .executor import FixedPointFormat, execute_dfg
from .lowering import LoweringError, lower_histogram, lower_op
from .ops import COMMUTATIVE_OPS, OP_CLASSES, Op, OpClass
from .timing import is_native, op_cycles

__all__ = [
    "FixedPointFormat",
    "execute_dfg",
    "CompiledKernel",
    "compile_dfg",
    "compile_for_all",
    "DFG",
    "DFGError",
    "DFGNode",
    "LoweringError",
    "lower_histogram",
    "lower_op",
    "COMMUTATIVE_OPS",
    "OP_CLASSES",
    "Op",
    "OpClass",
    "is_native",
    "op_cycles",
]
