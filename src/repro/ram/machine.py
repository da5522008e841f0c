"""The word-RAM interpreter with time and space accounting.

The interpreter is the measurement instrument for experiment E-RAM: it
executes a :class:`~repro.ram.isa.Program` and reports

* ``instructions`` -- instructions retired,
* ``time`` -- unit cost per instruction plus ``oracle_cost`` per
  ``ORACLE`` (the paper charges ``O(n)`` per query),
* ``oracle_queries`` -- queries issued,
* ``peak_memory_words`` -- high-water mark of addresses touched, the
  space the computation actually used.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.tracer import get_tracer
from repro.ram.isa import NUM_REGISTERS, Instruction, Op, Program

__all__ = [
    "RamError",
    "RamOracleAdapter",
    "ExecutionStats",
    "RunResult",
    "RamMachine",
    "TRACE_BATCH_INSTRUCTIONS",
]

#: Instruction-count granularity of ``ram.batch`` trace events: per
#: instruction would dwarf the run itself, so progress is marked every
#: batch instead.
TRACE_BATCH_INSTRUCTIONS = 65_536


class RamError(Exception):
    """Runtime fault: bad address, missing oracle, or step-limit overrun."""


class RamOracleAdapter(ABC):
    """The oracle gate's register file.

    The ``ORACLE`` instruction moves ``in_words`` memory words into the
    gate and ``out_words`` words back.  Concrete adapters (in
    :mod:`repro.ram.programs`) define the packing between those words and
    the oracle's ``n``-bit strings, and expose ``time_cost`` -- the
    per-query charge, normally the oracle's ``n``.
    """

    @property
    @abstractmethod
    def in_words(self) -> int:
        """Words consumed per query."""

    @property
    @abstractmethod
    def out_words(self) -> int:
        """Words produced per answer."""

    @property
    @abstractmethod
    def time_cost(self) -> int:
        """Time charged per query (the paper's ``O(n)``)."""

    @abstractmethod
    def call(self, words: Sequence[int]) -> list[int]:
        """Evaluate the oracle on packed input words."""


@dataclass
class ExecutionStats:
    """Accounting for one run."""

    instructions: int = 0
    time: int = 0
    oracle_queries: int = 0
    peak_memory_words: int = 0


@dataclass
class RunResult:
    """Final machine state plus accounting."""

    stats: ExecutionStats
    registers: list[int]
    memory: list[int]
    halted: bool = True

    def read_words(self, address: int, count: int) -> list[int]:
        """Convenience accessor for output regions."""
        return list(self.memory[address : address + count])


@dataclass
class RamMachine:
    """A word-RAM with ``memory_words`` words of ``word_bits`` bits each."""

    memory_words: int
    word_bits: int = 64
    oracle_adapter: RamOracleAdapter | None = None
    max_steps: int = 50_000_000
    _mask: int = field(init=False)

    def __post_init__(self) -> None:
        if self.memory_words <= 0:
            raise ValueError(f"memory_words must be positive: {self.memory_words}")
        if self.word_bits <= 0:
            raise ValueError(f"word_bits must be positive: {self.word_bits}")
        self._mask = (1 << self.word_bits) - 1

    # ------------------------------------------------------------------
    def run(
        self, program: Program, initial_memory: Sequence[int] | None = None
    ) -> RunResult:
        """Execute ``program`` to HALT; raise on faults or step overrun.

        With a tracer active, the run emits a ``ram.run`` span carrying
        the final :class:`ExecutionStats`, plus a ``ram.batch`` event
        every :data:`TRACE_BATCH_INSTRUCTIONS` retired instructions.
        """
        tracer = get_tracer()
        traced = tracer.enabled
        run_start = tracer.now() if traced else 0.0
        mem = [0] * self.memory_words
        if initial_memory is not None:
            if len(initial_memory) > self.memory_words:
                raise RamError(
                    f"initial memory of {len(initial_memory)} words exceeds "
                    f"machine memory of {self.memory_words}"
                )
            for i, v in enumerate(initial_memory):
                mem[i] = v & self._mask
        regs = [0] * NUM_REGISTERS
        stats = ExecutionStats(peak_memory_words=len(initial_memory or ()))
        pc = 0
        code = program.instructions
        mask = self._mask

        def touch(addr: int) -> None:
            if not 0 <= addr < self.memory_words:
                raise RamError(f"memory access at {addr} out of range")
            if addr + 1 > stats.peak_memory_words:
                stats.peak_memory_words = addr + 1

        while True:
            if pc >= len(code):
                raise RamError(f"pc {pc} ran past program end without HALT")
            if stats.instructions >= self.max_steps:
                raise RamError(f"exceeded max_steps={self.max_steps}")
            ins: Instruction = code[pc]
            op = ins.op
            a = ins.args
            stats.instructions += 1
            stats.time += 1
            pc += 1
            if traced and stats.instructions % TRACE_BATCH_INSTRUCTIONS == 0:
                tracer.event(
                    "ram.batch",
                    instructions=stats.instructions,
                    time=stats.time,
                    oracle_queries=stats.oracle_queries,
                )

            if op is Op.HALT:
                if traced:
                    tracer.record_span(
                        "ram.run",
                        run_start,
                        instructions=stats.instructions,
                        time=stats.time,
                        oracle_queries=stats.oracle_queries,
                        peak_memory_words=stats.peak_memory_words,
                    )
                return RunResult(stats=stats, registers=regs, memory=mem)
            elif op is Op.LOADI:
                regs[a[0]] = a[1] & mask
            elif op is Op.MOV:
                regs[a[0]] = regs[a[1]]
            elif op is Op.LOAD:
                addr = regs[a[1]]
                touch(addr)
                regs[a[0]] = mem[addr]
            elif op is Op.STORE:
                addr = regs[a[0]]
                touch(addr)
                mem[addr] = regs[a[1]]
            elif op is Op.ADD:
                regs[a[0]] = (regs[a[1]] + regs[a[2]]) & mask
            elif op is Op.ADDI:
                regs[a[0]] = (regs[a[1]] + a[2]) & mask
            elif op is Op.SUB:
                regs[a[0]] = (regs[a[1]] - regs[a[2]]) & mask
            elif op is Op.MUL:
                regs[a[0]] = (regs[a[1]] * regs[a[2]]) & mask
            elif op is Op.AND:
                regs[a[0]] = regs[a[1]] & regs[a[2]]
            elif op is Op.OR:
                regs[a[0]] = regs[a[1]] | regs[a[2]]
            elif op is Op.XOR:
                regs[a[0]] = regs[a[1]] ^ regs[a[2]]
            elif op is Op.SHL:
                regs[a[0]] = (regs[a[1]] << a[2]) & mask
            elif op is Op.SHR:
                regs[a[0]] = regs[a[1]] >> a[2]
            elif op is Op.JMP:
                pc = a[0]
            elif op is Op.JZ:
                if regs[a[0]] == 0:
                    pc = a[1]
            elif op is Op.JNZ:
                if regs[a[0]] != 0:
                    pc = a[1]
            elif op is Op.JLT:
                if regs[a[0]] < regs[a[1]]:
                    pc = a[2]
            elif op is Op.JGE:
                if regs[a[0]] >= regs[a[1]]:
                    pc = a[2]
            elif op is Op.ORACLE:
                adapter = self.oracle_adapter
                if adapter is None:
                    raise RamError("ORACLE executed on a machine without an oracle")
                src = regs[a[1]]
                dst = regs[a[0]]
                touch(src)
                touch(src + adapter.in_words - 1)
                words_in = mem[src : src + adapter.in_words]
                words_out = adapter.call(words_in)
                if len(words_out) != adapter.out_words:
                    raise RamError(
                        f"oracle adapter returned {len(words_out)} words, "
                        f"declared {adapter.out_words}"
                    )
                touch(dst)
                touch(dst + adapter.out_words - 1)
                for i, wv in enumerate(words_out):
                    mem[dst + i] = wv & mask
                stats.oracle_queries += 1
                stats.time += adapter.time_cost - 1  # instruction already paid 1
            else:  # pragma: no cover - exhaustive over Op
                raise RamError(f"unknown opcode {op}")
