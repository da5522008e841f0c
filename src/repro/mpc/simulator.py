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
from repro.obs.tracer import get_tracer
from repro.oracle.base import Oracle
from repro.oracle.counting import CountingOracle

__all__ = ["MPCSimulator", "MPCResult"]


@dataclass
class MPCResult:
    """Outcome of a simulation.

    ``outputs`` holds each machine's last output.  ``output_log`` holds
    every output in the order the machines produced it, as ``(round,
    machine, output)``, so :meth:`outputs_at` can tell what a run cut
    after fewer rounds would have returned.
    """

    rounds: int
    outputs: dict[int, Bits]
    stats: MPCStats
    halted: bool
    oracle: CountingOracle | None
    first_output_round: int | None = None
    output_log: tuple[tuple[int, int, Bits], ...] = ()

    def outputs_at(self, rounds: int) -> dict[int, Bits]:
        """The ``outputs`` of the same run with ``max_rounds=rounds``.

        No machine sees ``max_rounds``, so a run cut after ``rounds``
        rounds makes the same calls in the same order as this one's
        first ``rounds`` rounds, and returns the outputs logged before
        the cut (Definition 2.4's outputs at the end of round ``R``).
        A run that did not halt cannot tell what it would have output
        after its last round, so ``rounds`` may exceed :attr:`rounds`
        only when it halted.
        """
        if rounds <= 0:
            raise ValueError(f"rounds must be positive, got {rounds}")
        if rounds > self.rounds and not self.halted:
            raise ValueError(
                f"the run stopped at its {self.rounds}-round limit without "
                f"halting; it has no outputs at round {rounds}"
            )
        outputs: dict[int, Bits] = {}
        for round_k, machine, output in self.output_log:
            if round_k >= rounds:
                break
            outputs[machine] = output
        return outputs

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

        Every share must be a :class:`Bits` (else :class:`ProtocolError`)
        that fits in ``s`` bits (else :class:`MemoryExceeded`).

        **Steady-state replay.**  Machines are memoryless across rounds
        (Definition 2.1), so from round 1 on the output of a machine
        whose class declares
        :attr:`~repro.mpc.machine.Machine.round_oblivious` is a pure
        function of its inbox.  Each such machine keeps one replay slot
        holding its last *cacheable* step: one at round ``>= 1`` that
        made zero oracle queries (so the transcript and the query budget
        see every query), run while no span hooks are attached (they
        want real compute windows).  A later step that does not qualify
        leaves the slot as it is, since any cached step is as valid as
        the most recent one.  When a machine's inbox equals the inbox of
        its cached step, the simulator reuses that step instead of
        calling ``run_round``.  An executed step's checks (the ``s``
        check, the :class:`RoundOutput` and output types, each
        destination and payload) also build its routing plan: the inbox
        entries it delivers, its ``(sender, receiver, bits)`` edges, its
        message and bit counts, and, when traced, its ``sent_to`` map.
        A replay routes from that plan without checking the same output
        again; the observer, :class:`RoundStats`, the traced
        ``mpc.machine_step`` event (with ``dur=0.0`` and a fresh
        ``sent_to`` dict), outputs and halting run as for an executed
        step, in the same order.  A replayed step leaves the oracle's
        ``(round, machine)`` context alone: it makes no query, and every
        executed step sets its own context first.  The chain protocols
        send an unchanged store back to themselves as the very payload
        they received, and a replay delivers the very entries of its
        plan, so a steady-state inbox usually equals the cached one
        payload for payload by identity, and the comparison never
        reaches ``Bits.__eq__``.
        """
        params = self._params
        if len(initial_memories) != params.m:
            raise ValueError(
                f"need {params.m} initial memories, got {len(initial_memories)}"
            )
        for i, mem in enumerate(initial_memories):
            if not isinstance(mem, Bits):
                raise ProtocolError(
                    f"machine {i} was given a non-Bits initial memory "
                    f"({type(mem).__name__})"
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
        output_log: list[tuple[int, int, Bits]] = []
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
        # One replay slot per machine: (incoming, incoming_bits, result,
        # plan) of its last cacheable step, or None before it has one.
        # The plan is the routing that step's checks produced:
        # ((dst, (i, payload)) entries, (i, dst, bits) edges, message
        # count, bit count, and the sent_to map when traced).
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
                if cached is not None and cached[0] == incoming:
                    # Replay: the cached step's output, already checked,
                    # routed by its plan.
                    _, incoming_bits, result, plan = cached
                    entries, edges, sent_messages, sent_bits, sent_to = plan
                    if observer is not None:
                        observer(round_k, i, incoming)
                    for dst, entry in entries:
                        next_inboxes[dst].append(entry)
                    if traced:
                        step_dur = 0.0
                        step_queries = 0
                        sent_to = dict(sent_to)
                else:
                    incoming_bits = sum(len(p) for _, p in incoming)
                    if incoming_bits > s_bits:
                        raise MemoryExceeded(
                            f"machine {i} holds {incoming_bits} bits at round "
                            f"{round_k}, local memory is s={s_bits}"
                        )
                    if observer is not None:
                        observer(round_k, i, incoming)
                    if oracle is not None:
                        oracle.set_context(round=round_k, machine=i)
                    ctx = RoundContext(round_k, i, m, incoming, oracle, tape)
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
                    entries = []
                    edges = []
                    sent_bits = 0
                    sent_to: dict[str, int] = {}
                    for dst, payload in result.messages.items():
                        if type(dst) is not int or not 0 <= dst < m:
                            raise ProtocolError(
                                f"machine {i} sent a message to invalid "
                                f"machine {dst!r}"
                            )
                        if not isinstance(payload, Bits):
                            raise ProtocolError(
                                f"machine {i} sent a non-Bits payload to {dst}"
                            )
                        payload_bits = len(payload)
                        entry = (i, payload)
                        next_inboxes[dst].append(entry)
                        entries.append((dst, entry))
                        edges.append((i, dst, payload_bits))
                        sent_bits += payload_bits
                        if traced:
                            # str keys: a JSONL round-trip must reproduce
                            # the in-memory attrs exactly (JSON has no int
                            # keys); the analysis layer int()s them back.
                            key = str(dst)
                            sent_to[key] = sent_to.get(key, 0) + payload_bits
                    sent_messages = len(entries)
                    if replayable[i] and round_k and not step_queries:
                        # The plan keeps its own sent_to: the one built
                        # here goes out with this step's event.
                        memo[i] = (
                            incoming,
                            incoming_bits,
                            result,
                            (entries, edges, sent_messages, sent_bits,
                             dict(sent_to)),
                        )
                round_edges.extend(edges)
                if incoming or result.messages or result.output is not None:
                    active += 1
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
                if result.output is not None:
                    outputs[i] = result.output
                    output_log.append((round_k, i, result.output))
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
                    output_log=tuple(output_log),
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
            output_log=tuple(output_log),
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
