"""The machine interface: one round of local computation.

Definition 2.1 makes machines *memoryless across rounds*: the input of
machine ``i`` at round ``k+1`` is exactly the union of the messages sent
to it at the end of round ``k`` (a machine keeps state only by messaging
itself).  The interface mirrors that: ``run_round`` receives the
incoming messages and must return everything it wants to exist next
round as outgoing messages.

Protocol *code* (the per-round algorithms ``A_i^k``) may of course carry
static configuration -- the paper's algorithms are non-uniform in the
round index.  Keeping *dynamic* state out of instance attributes, so
that only message bits survive a round and are counted against ``s``,
is an obligation of each protocol.  The simulator does not check it: a
machine that stores its inbox in ``self`` runs to completion.
Steady-state replay (:meth:`repro.mpc.MPCSimulator.run`) assumes it
holds for every machine that declares
:attr:`Machine.round_oblivious`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.bits import Bits
from repro.mpc.tape import SharedTape
from repro.oracle.base import Oracle

__all__ = ["Machine", "RoundContext", "RoundOutput"]


class RoundContext(NamedTuple):
    """Everything machine ``i`` can see during round ``k``.

    A named tuple: the simulator builds one per executed machine step,
    and no immutable record is cheaper to build.
    """

    round: int
    machine_id: int
    num_machines: int
    incoming: tuple[tuple[int, Bits], ...]
    oracle: Oracle | None
    tape: SharedTape

    def incoming_bits(self) -> int:
        """Total size of the local memory this round (checked against s)."""
        return sum(len(payload) for _, payload in self.incoming)

    def from_sender(self, sender: int) -> Bits | None:
        """The message from ``sender``, if any (concatenated if several)."""
        parts = [payload for src, payload in self.incoming if src == sender]
        if not parts:
            return None
        return Bits.concat(parts)


@dataclass
class RoundOutput:
    """What a machine emits at the end of a round.

    ``messages[j]`` is delivered to machine ``j`` next round (send to
    your own id to persist state).  ``output`` contributes to the union
    of outputs that constitutes the computation's answer (Definition
    2.4).  ``halt`` signals this machine is done; the simulation stops
    when every machine halts in the same round.
    """

    messages: dict[int, Bits] = field(default_factory=dict)
    output: Bits | None = None
    halt: bool = False


class Machine(ABC):
    """The per-machine algorithm (the family ``A_i^k``)."""

    #: Declares that for every round ``k >= 1`` the machine's
    #: :meth:`run_round` output is a pure function of ``ctx.incoming``
    #: (plus the oracle and tape, which are themselves functional): it
    #: reads ``ctx.round`` only to detect round 0 and carries no mutable
    #: state across rounds.  :meth:`repro.mpc.MPCSimulator.run` replays
    #: the output of an earlier zero-query step (not necessarily the
    #: latest) for a repeated inbox only when a machine opts in here;
    #: the default is the safe ``False``.  The simulator trusts
    #: this declaration and does not check it.
    round_oblivious: bool = False

    @abstractmethod
    def run_round(self, ctx: RoundContext) -> RoundOutput:
        """Execute round ``ctx.round`` from the incoming local memory."""
