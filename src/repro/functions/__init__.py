"""The paper's oracle functions.

* :mod:`~repro.functions.params` -- the parameterizations of Tables 2
  and 3 (``n, u, v, w`` with ``u = n/3``, ``v = S/u``, ``w = T``) and the
  bit-exact query/answer layouts;
* :mod:`~repro.functions.line` -- ``Line^RO`` (Section 3), the hard
  function of Theorem 3.1, whose chain pointer ``l_i`` is chosen by the
  oracle itself;
* :mod:`~repro.functions.simline` -- ``SimLine^RO`` (Appendix A), the
  warm-up function whose pointer is the deterministic round robin
  ``i mod v``;
* :mod:`~repro.functions.pointer_jump` -- the pointer-jumping problem
  from the Section 1.2 discussion of Miltersen's PRAM lower bound;
* :mod:`~repro.functions.inputs` -- input sampling and the "arbitrarily
  split and distributed" placement of Definition 2.1.
"""

from repro.functions.inputs import partition_input, sample_input
from repro.functions.line import (
    LineNode,
    LineTrace,
    evaluate_line,
    line_nodes,
    trace_line,
)
from repro.functions.params import LineParams, SimLineParams
from repro.functions.pointer_jump import PointerJumpInstance
from repro.functions.simline import (
    SimLineNode,
    SimLineTrace,
    evaluate_simline,
    trace_simline,
)

__all__ = [
    "LineNode",
    "LineParams",
    "LineTrace",
    "PointerJumpInstance",
    "SimLineNode",
    "SimLineParams",
    "SimLineTrace",
    "evaluate_line",
    "evaluate_simline",
    "line_nodes",
    "partition_input",
    "sample_input",
    "trace_line",
    "trace_simline",
]
