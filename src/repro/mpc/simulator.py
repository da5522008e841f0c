"""The round engine.

One round (Definition 2.1/2.2):

1. each machine ``i`` starts the round owning exactly the messages that
   were addressed to it at the end of the previous round (round 0 owns
   its share of the input); the simulator verifies this fits in ``s``
   bits *before* the machine runs;
2. the machine computes locally -- with oracle access metered to at most
   ``q`` queries when the oracle model is active -- and emits messages;
3. the simulator routes messages; delivery happens at the start of the
   next round.

The run ends when every machine halts in the same round (the union of
their ``output`` fields is the computation's answer, Definition 2.4) or
when ``max_rounds`` is hit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.bits import Bits
from repro.mpc.errors import MemoryExceeded, ProtocolError
from repro.mpc.machine import Machine, RoundContext, RoundOutput
from repro.mpc.model import MPCParams
from repro.mpc.stats import MPCStats, RoundStats
from repro.mpc.tape import SharedTape
from repro.obs import get_tracer
from repro.oracle.base import Oracle
from repro.oracle.counting import CountingOracle

__all__ = ["MPCSimulator", "MPCResult"]


@dataclass
class MPCResult:
    """Outcome of a simulation."""

    rounds: int
    outputs: dict[int, Bits]
    stats: MPCStats
    halted: bool
    oracle: CountingOracle | None
    first_output_round: int | None = None

    def combined_output(self) -> Bits:
        """The union of machine outputs, concatenated by machine id."""
        return Bits.concat([self.outputs[i] for i in sorted(self.outputs)])

    @property
    def rounds_to_output(self) -> int | None:
        """Rounds until the answer existed (Definition 2.4's ``R``).

        This excludes the final halt-handshake round protocols use to
        shut every machine down; it is the number the experiments
        compare against the paper's round bounds.
        """
        if self.first_output_round is None:
            return None
        return self.first_output_round + 1


class MPCSimulator:
    """Runs a machine family under the model's resource constraints."""

    def __init__(
        self,
        params: MPCParams,
        machines: Sequence[Machine],
        *,
        oracle: Oracle | None = None,
        tape: SharedTape | None = None,
        inbox_observer: Callable[[int, int, tuple[tuple[int, Bits], ...]], None]
        | None = None,
    ) -> None:
        if len(machines) != params.m:
            raise ValueError(
                f"params declare m={params.m} machines, got {len(machines)}"
            )
        self._params = params
        self._machines = list(machines)
        self._tape = tape if tape is not None else SharedTape()
        self._oracle: CountingOracle | None = None
        # Called as (round, machine, incoming) just before each machine
        # runs -- the hook the compression encoders use to capture the
        # "A1 output" (a machine's memory at the start of a round).
        self._inbox_observer = inbox_observer
        if oracle is not None:
            self._oracle = CountingOracle(oracle, per_round_limit=params.q)

    @property
    def oracle(self) -> CountingOracle | None:
        """The metered oracle (transcript source for the proof machinery)."""
        return self._oracle

    def run(self, initial_memories: Sequence[Bits]) -> MPCResult:
        """Simulate until all machines halt or ``max_rounds`` is reached.

        ``initial_memories[i]`` is machine ``i``'s share of the
        arbitrarily-partitioned input (Definition 2.1); shares must fit
        in ``s`` bits.

        Halting follows Definition 2.4: the computation ends only in a
        round where **every** machine returns ``halt=True``.  A machine
        that votes ``halt=True`` while others continue is *not* retired
        -- it keeps being invoked (and may send, receive, query, and
        change its vote) in every later round.  The halt flag is a
        per-round vote, not a latch, which is what lets protocols run a
        final shutdown handshake once the answer exists.

        When a tracer is active (:func:`repro.obs.use_tracer`), the run
        emits one ``mpc.run_start`` event announcing the resource
        budgets (``m``, ``s_bits``, ``q``), one ``mpc.round`` span per
        round, one ``mpc.machine_step`` event per machine invocation
        (with received and sent bits, plus the per-destination
        ``sent_to`` map the communication-matrix analysis reads), and
        one closing ``mpc.run`` span.  Span hooks (scoped profilers)
        additionally see each machine's local computation as an
        ``mpc.machine_step`` window.

        **Steady-state replay.**  Machines are memoryless across rounds
        (Definition 2.1), so a machine whose class declares
        :attr:`~repro.mpc.machine.Machine.round_oblivious` and whose
        inbox at round ``k >= 1`` equals the inbox of its last executed
        step must return the same :class:`RoundOutput`.  The simulator
        then reuses the cached output instead of calling ``run_round``;
        the observer, routing, :class:`RoundStats`, the traced
        ``mpc.machine_step`` event (with ``dur=0.0``) and halting run as
        for an executed step.  A step is cached only at round ``>= 1``,
        only if it made zero oracle queries (so the transcript and the
        query budget see every query), and never while span hooks are
        attached (they want real compute windows).  A replayed step
        therefore leaves the oracle's ``(round, machine)`` context alone:
        it makes no query, and every executed step sets its own context
        first.  The chain protocols send an unchanged store back to
        themselves as the very payload they received, so a steady-state
        inbox usually equals the cached one by identity, payload for
        payload, and the comparison never reaches ``Bits.__eq__``.
        """
        params = self._params
        if len(initial_memories) != params.m:
            raise ValueError(
                f"need {params.m} initial memories, got {len(initial_memories)}"
            )
        tracer = get_tracer()
        traced = tracer.enabled
        hooked = traced and tracer.has_span_hooks
        run_span = tracer.begin_span(
            "mpc.run", m=params.m, s_bits=params.s_bits, q=params.q
        ) if traced else None
        if traced:
            # Announce the resource budgets up front so stream
            # subscribers (invariant monitors, progress renderers) know
            # s, m, and q before the first round arrives.
            tracer.event(
                "mpc.run_start",
                m=params.m,
                s_bits=params.s_bits,
                q=params.q,
                max_rounds=params.max_rounds,
            )
        # Round 0 inboxes: the input partition, "sent" by the environment
        # (sender id -1 marks input shares).
        inboxes: list[list[tuple[int, Bits]]] = [
            [(-1, mem)] if len(mem) else [] for mem in initial_memories
        ]
        stats = MPCStats()
        outputs: dict[int, Bits] = {}
        first_output_round: int | None = None

        # Hoisted out of the per-machine loop: attribute loads and
        # is-None checks that are invariant for the whole run.  The
        # untraced path below never touches the tracer at all.
        m = params.m
        s_bits = params.s_bits
        machines = self._machines
        oracle = self._oracle
        observer = self._inbox_observer
        tape = self._tape
        now = tracer.now
        emit = tracer.event
        # One replay slot per machine: (incoming, incoming_bits, result)
        # of its last executed step, or None when it may not be replayed.
        replayable = [
            machine.round_oblivious and not hooked for machine in machines
        ]
        memo: list[tuple | None] = [None] * m

        for round_k in range(params.max_rounds):
            round_span = (
                tracer.begin_span("mpc.round", round=round_k) if traced else None
            )
            next_inboxes: list[list[tuple[int, Bits]]] = [
                [] for _ in range(m)
            ]
            round_messages = 0
            round_message_bits = 0
            round_edges: list[tuple[int, int, int]] = []
            round_queries_before = oracle.total_queries if oracle else 0
            active = 0
            halted_count = 0

            for i, machine in enumerate(machines):
                incoming = tuple(inboxes[i])
                cached = memo[i]
                replay = cached is not None and cached[0] == incoming
                if replay:
                    _, incoming_bits, result = cached
                else:
                    incoming_bits = sum(len(p) for _, p in incoming)
                    if incoming_bits > s_bits:
                        raise MemoryExceeded(
                            f"machine {i} holds {incoming_bits} bits at round "
                            f"{round_k}, local memory is s={s_bits}"
                        )
                if observer is not None:
                    observer(round_k, i, incoming)
                if replay:
                    step_dur = 0.0
                    step_queries = 0
                else:
                    if oracle is not None:
                        oracle.set_context(round=round_k, machine=i)
                    ctx = RoundContext(
                        round=round_k,
                        machine_id=i,
                        num_machines=m,
                        incoming=incoming,
                        oracle=oracle,
                        tape=tape,
                    )
                    if traced:
                        step_start = now()
                        if hooked:
                            with tracer.hook_scope("mpc.machine_step"):
                                result = machine.run_round(ctx)
                        else:
                            result = machine.run_round(ctx)
                        step_dur = now() - step_start
                    else:
                        result = machine.run_round(ctx)
                    if not isinstance(result, RoundOutput):
                        raise ProtocolError(
                            f"machine {i} returned {type(result).__name__}, "
                            "expected RoundOutput"
                        )
                    if not isinstance(result.output, (Bits, type(None))):
                        raise ProtocolError(
                            f"machine {i} output a "
                            f"{type(result.output).__name__}, expected Bits"
                        )
                    step_queries = (
                        oracle.queries_in_context() if oracle is not None else 0
                    )
                if incoming or result.messages or result.output is not None:
                    active += 1
                sent_messages = 0
                sent_bits = 0
                sent_to: dict[str, int] = {}
                for dst, payload in result.messages.items():
                    if type(dst) is not int or not 0 <= dst < m:
                        raise ProtocolError(
                            f"machine {i} sent a message to invalid machine "
                            f"{dst!r}"
                        )
                    if not isinstance(payload, Bits):
                        raise ProtocolError(
                            f"machine {i} sent a non-Bits payload to {dst}"
                        )
                    payload_bits = len(payload)
                    next_inboxes[dst].append((i, payload))
                    round_edges.append((i, dst, payload_bits))
                    sent_messages += 1
                    sent_bits += payload_bits
                    if traced:
                        # str keys: a JSONL round-trip must reproduce
                        # the in-memory attrs exactly (JSON has no int
                        # keys); the analysis layer int()s them back.
                        key = str(dst)
                        sent_to[key] = sent_to.get(key, 0) + payload_bits
                round_messages += sent_messages
                round_message_bits += sent_bits
                if traced:
                    emit(
                        "mpc.machine_step",
                        round=round_k,
                        machine=i,
                        dur=step_dur,
                        incoming_bits=incoming_bits,
                        sent_messages=sent_messages,
                        sent_bits=sent_bits,
                        sent_to=sent_to,
                        oracle_queries=step_queries,
                    )
                if not replay:
                    memo[i] = (
                        (incoming, incoming_bits, result)
                        if replayable[i] and round_k and not step_queries
                        else None
                    )
                if result.output is not None:
                    outputs[i] = result.output
                    if first_output_round is None:
                        first_output_round = round_k
                if result.halt:
                    halted_count += 1

            queries = (
                oracle.total_queries - round_queries_before if oracle else 0
            )
            stats.record(
                RoundStats(
                    round=round_k,
                    message_count=round_messages,
                    message_bits=round_message_bits,
                    oracle_queries=queries,
                    active_machines=active,
                    edges=tuple(round_edges),
                )
            )
            if traced:
                tracer.end_span(
                    round_span,
                    messages=round_messages,
                    message_bits=round_message_bits,
                    oracle_queries=queries,
                    active_machines=active,
                    halted_machines=halted_count,
                )

            if halted_count == m:
                if traced:
                    self._trace_run(tracer, run_span, round_k + 1, True, stats)
                return MPCResult(
                    rounds=round_k + 1,
                    outputs=outputs,
                    stats=stats,
                    halted=True,
                    oracle=self._oracle,
                    first_output_round=first_output_round,
                )
            inboxes = next_inboxes

        if traced:
            self._trace_run(tracer, run_span, params.max_rounds, False, stats)
        return MPCResult(
            rounds=params.max_rounds,
            outputs=outputs,
            stats=stats,
            halted=False,
            oracle=self._oracle,
            first_output_round=first_output_round,
        )

    def _trace_run(self, tracer, run_span, rounds, halted, stats) -> None:
        tracer.end_span(
            run_span,
            rounds=rounds,
            halted=halted,
            total_messages=stats.total_messages,
            total_message_bits=stats.total_message_bits,
            total_oracle_queries=stats.total_oracle_queries,
        )
