"""``Line`` and ``SimLine`` as word-RAM programs.

These programs realize the Theorem 3.1 / A.1 upper bounds on the real
interpreter.  The memory layout puts the input pieces first, so the peak
memory is ``v + O(1)`` words of ``~u`` bits -- ``O(S)`` bits -- and the
main loop performs ``O(1)`` instructions plus one oracle gate (cost
``n``) per chain node, for ``O(w·n) = O(T·n)`` total time.

Layout (word addresses)::

    0 .. v-1          input pieces x_0 .. x_{v-1}
    QIN  = v          oracle-gate input words
    QOUT = QIN + in   oracle-gate output words: parsed next-state fields
                      first, then the raw n-bit answer in word chunks

Register conventions: R0 = node counter ``i``, R1 = pointer / piece
index, R2 = running value ``r``, R3/R5/R6 = scratch, R4 = ``w``,
R7 = ``v`` (SimLine only).
"""

from __future__ import annotations

from typing import Sequence

from repro.bits import Bits
from repro.functions.line import line_query
from repro.functions.params import LineParams, SimLineParams
from repro.functions.simline import simline_query
from repro.obs.tracer import get_tracer
from repro.oracle.base import Oracle
from repro.ram.assembler import Assembler
from repro.ram.isa import Program
from repro.ram.machine import RamMachine, RamOracleAdapter, RunResult

__all__ = [
    "LineRamAdapter",
    "SimLineRamAdapter",
    "build_line_program",
    "build_simline_program",
    "run_line_on_ram",
    "run_simline_on_ram",
    "default_word_bits",
]


def default_word_bits(params: LineParams | SimLineParams) -> int:
    """The natural word size: wide enough for a piece and a node index."""
    if isinstance(params, LineParams):
        return max(params.u, params.index_width, 1)
    return max(params.u, (params.w + 1).bit_length(), 1)


def _answer_words(answer: Bits, word_bits: int) -> list[int]:
    """Chunk an n-bit answer into word-sized pieces (last one padded)."""
    n = len(answer)
    count = -(-n // word_bits)
    padded = answer.pad_right(count * word_bits)
    return [padded[i * word_bits : (i + 1) * word_bits].value for i in range(count)]


def _answer_from_words(words: Sequence[int], n: int, word_bits: int) -> Bits:
    """Inverse of :func:`_answer_words`."""
    acc = Bits.concat([Bits(wv, word_bits) for wv in words])
    return acc[:n]


class LineRamAdapter(RamOracleAdapter):
    """Oracle gate for ``Line``: in ``(i, x, r)``, out ``(l', r', answer...)``.

    The gate does the bit packing the paper leaves implicit ("query the
    oracle on ``(i, x_{l_i}, r_i, 0^*)``"): three semantic input words
    become one ``n``-bit query; the ``n``-bit answer comes back as two
    parsed next-state words (pointer and ``r``) followed by the raw
    answer in word chunks, so the final output is available in memory.
    """

    def __init__(self, params: LineParams, oracle: Oracle, word_bits: int) -> None:
        if oracle.n_in != params.n or oracle.n_out != params.n:
            raise ValueError("oracle dimensions do not match params")
        if word_bits < params.u or word_bits < params.index_width:
            raise ValueError(
                f"word_bits={word_bits} too narrow for u={params.u} / "
                f"index_width={params.index_width}"
            )
        self._params = params
        self._oracle = oracle
        self._word_bits = word_bits
        self._answer_word_count = -(-params.n // word_bits)

    @property
    def in_words(self) -> int:
        return 3

    @property
    def out_words(self) -> int:
        return 2 + self._answer_word_count

    @property
    def time_cost(self) -> int:
        return self._params.n

    @property
    def answer_word_count(self) -> int:
        """Words holding the raw ``n``-bit answer."""
        return self._answer_word_count

    def call(self, words: Sequence[int]) -> list[int]:
        p = self._params
        i, x, r = words
        query = line_query(
            p,
            i & ((1 << p.index_width) - 1),
            Bits(x & ((1 << p.u) - 1), p.u),
            Bits(r & ((1 << p.u) - 1), p.u),
        )
        answer = self._oracle.query(query)
        fields = p.answer_codec.unpack(answer)
        return [
            p.ell_of_answer(fields["ell"]),
            fields["r"],
            *_answer_words(answer, self._word_bits),
        ]

    def extract_answer(self, result: RunResult, qout: int) -> Bits:
        """Read the final ``n``-bit answer left at the gate output region."""
        words = result.read_words(qout + 2, self._answer_word_count)
        return _answer_from_words(words, self._params.n, self._word_bits)


class SimLineRamAdapter(RamOracleAdapter):
    """Oracle gate for ``SimLine``: in ``(x, r)``, out ``(r', answer...)``."""

    def __init__(
        self, params: SimLineParams, oracle: Oracle, word_bits: int
    ) -> None:
        if oracle.n_in != params.n or oracle.n_out != params.n:
            raise ValueError("oracle dimensions do not match params")
        if word_bits < params.u:
            raise ValueError(f"word_bits={word_bits} too narrow for u={params.u}")
        self._params = params
        self._oracle = oracle
        self._word_bits = word_bits
        self._answer_word_count = -(-params.n // word_bits)

    @property
    def in_words(self) -> int:
        return 2

    @property
    def out_words(self) -> int:
        return 1 + self._answer_word_count

    @property
    def time_cost(self) -> int:
        return self._params.n

    @property
    def answer_word_count(self) -> int:
        """Words holding the raw ``n``-bit answer."""
        return self._answer_word_count

    def call(self, words: Sequence[int]) -> list[int]:
        p = self._params
        x, r = words
        query = simline_query(
            p,
            Bits(x & ((1 << p.u) - 1), p.u),
            Bits(r & ((1 << p.u) - 1), p.u),
        )
        answer = self._oracle.query(query)
        fields = p.answer_codec.unpack(answer)
        return [fields["r"], *_answer_words(answer, self._word_bits)]

    def extract_answer(self, result: RunResult, qout: int) -> Bits:
        """Read the final ``n``-bit answer left at the gate output region."""
        words = result.read_words(qout + 1, self._answer_word_count)
        return _answer_from_words(words, self._params.n, self._word_bits)


def build_line_program(params: LineParams) -> Program:
    """The ``Line`` evaluation loop as RAM code."""
    qin = params.v
    qout = qin + 3
    asm = Assembler()
    asm.loadi(0, 0)          # R0 = i
    asm.loadi(1, 0)          # R1 = ell  (paper's l_1, 0-based)
    asm.loadi(2, 0)          # R2 = r = 0^u
    asm.loadi(4, params.w)   # R4 = w
    asm.label("loop")
    asm.jge(0, 4, "done")
    asm.load(3, 1)           # R3 = x[ell]  (pieces start at address 0)
    asm.loadi(5, qin)
    asm.store(5, 0)          # M[QIN]   = i
    asm.addi(5, 5, 1)
    asm.store(5, 3)          # M[QIN+1] = x
    asm.addi(5, 5, 1)
    asm.store(5, 2)          # M[QIN+2] = r
    asm.loadi(5, qin)
    asm.loadi(6, qout)
    asm.oracle(6, 5)
    asm.load(1, 6)           # R1 = ell'
    asm.addi(6, 6, 1)
    asm.load(2, 6)           # R2 = r'
    asm.addi(0, 0, 1)
    asm.jmp("loop")
    asm.label("done")
    asm.halt()
    return asm.assemble()


def build_simline_program(params: SimLineParams) -> Program:
    """The ``SimLine`` evaluation loop as RAM code (round-robin index)."""
    qin = params.v
    qout = qin + 2
    asm = Assembler()
    asm.loadi(0, 0)          # R0 = i
    asm.loadi(1, 0)          # R1 = piece index (i mod v)
    asm.loadi(2, 0)          # R2 = r = 0^u
    asm.loadi(4, params.w)   # R4 = w
    asm.loadi(7, params.v)   # R7 = v
    asm.label("loop")
    asm.jge(0, 4, "done")
    asm.load(3, 1)           # R3 = x[piece]
    asm.loadi(5, qin)
    asm.store(5, 3)          # M[QIN]   = x
    asm.addi(5, 5, 1)
    asm.store(5, 2)          # M[QIN+1] = r
    asm.loadi(5, qin)
    asm.loadi(6, qout)
    asm.oracle(6, 5)
    asm.load(2, 6)           # R2 = r'
    asm.addi(0, 0, 1)
    asm.addi(1, 1, 1)
    asm.jlt(1, 7, "loop")    # piece < v: continue
    asm.loadi(1, 0)          # wrap the round robin
    asm.jmp("loop")
    asm.label("done")
    asm.halt()
    return asm.assemble()


def run_line_on_ram(
    params: LineParams,
    x: Sequence[Bits],
    oracle: Oracle,
    *,
    word_bits: int | None = None,
) -> tuple[Bits, RunResult]:
    """Evaluate ``Line`` on the word-RAM; return (output, run result).

    Under a tracer, a ``cost.model`` announcement precedes the run so
    the cost oracle can assert the interpreter's instruction-exact
    counters against the ``ram.line`` formulas.
    """
    wbits = word_bits if word_bits is not None else default_word_bits(params)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "cost.model",
            model="ram.line",
            trigger="ram.run",
            params={
                "n": params.n, "u": params.u, "v": params.v,
                "T": params.w, "wb": wbits,
            },
        )
    adapter = LineRamAdapter(params, oracle, wbits)
    qout = params.v + 3
    machine = RamMachine(
        memory_words=qout + adapter.out_words,
        word_bits=wbits,
        oracle_adapter=adapter,
    )
    result = machine.run(build_line_program(params), [piece.value for piece in x])
    return adapter.extract_answer(result, qout), result


def run_simline_on_ram(
    params: SimLineParams,
    x: Sequence[Bits],
    oracle: Oracle,
    *,
    word_bits: int | None = None,
) -> tuple[Bits, RunResult]:
    """Evaluate ``SimLine`` on the word-RAM; return (output, run result).

    Announces ``ram.simline`` to the cost oracle, as
    :func:`run_line_on_ram` does for ``ram.line``.
    """
    wbits = word_bits if word_bits is not None else default_word_bits(params)
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "cost.model",
            model="ram.simline",
            trigger="ram.run",
            params={
                "n": params.n, "u": params.u, "v": params.v,
                "T": params.w, "wb": wbits,
            },
        )
    adapter = SimLineRamAdapter(params, oracle, wbits)
    qout = params.v + 2
    machine = RamMachine(
        memory_words=qout + adapter.out_words,
        word_bits=wbits,
        oracle_adapter=adapter,
    )
    result = machine.run(
        build_simline_program(params), [piece.value for piece in x]
    )
    return adapter.extract_answer(result, qout), result
