"""Per-layer timing from outside the program.

:class:`LayerProfile` wraps public entry points of each layer -- class
methods are replaced on the class (and on every subclass that overrides
them), module functions at every ``repro.*`` module that holds them --
and keeps a stack of open calls.  Each wrapped call adds its self time
(its duration minus that of the wrapped calls it made) to one key, so
the self times of all keys plus the unwrapped remainder add up to the
wall time of the pass.  Totals live in memory; nothing is logged per
call, because the ``rounds`` workload makes over a million wrapped calls.

An entry point that no longer exists is listed in
:attr:`LayerProfile.absent` instead of raising, so a later refactor of
``src/`` degrades the layer report instead of breaking the benchmark.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import sys
import weakref
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

__all__ = ["Probe", "PROBES", "LayerProfile"]


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``target`` is ``"module:Class.method"`` or ``"module:function"``;
    the last part may be a glob (``encode_*``).  ``key`` names the
    self-time total (or is a method name of :class:`LayerProfile`
    mapping the receiver to a key, see :meth:`LayerProfile.oracle_key`);
    ``calls`` names the counter of outermost calls.  ``after`` and
    ``before`` name :class:`LayerProfile` hooks run around each call.
    """

    target: str
    key: str
    calls: str | None = None
    after: str | None = None
    before: str | None = None


PROBES: tuple[Probe, ...] = (
    Probe("repro.parallel:TrialPool.map", "parallel.overhead",
          "parallel.map.calls", before="wrap_trials"),
    Probe("repro.oracle:TableOracle.sample", "oracle.sample",
          "oracle.sample.calls", after="after_sample"),
    Probe("repro.oracle:Oracle.query", "@oracle_key", "oracle.query.calls",
          after="after_query"),
    Probe("repro.oracle:Oracle.query_batch", "@oracle_key",
          "oracle.query.calls", after="after_query_batch"),
    Probe("repro.mpc:MPCSimulator.run", "mpc.routing", "mpc.run.calls",
          after="after_mpc_run"),
    Probe("repro.mpc:Machine.run_round", "mpc.compute"),
    Probe("repro.protocols.wire:encode_*", "wire.encode", "wire.encode.calls"),
    Probe("repro.protocols.wire:decode_*", "wire.decode", "wire.decode.calls"),
    Probe("repro.bits:RecordCodec.pack", "bits.record", "bits.record.calls"),
    Probe("repro.bits:RecordCodec.unpack", "bits.record", "bits.record.calls"),
    Probe("repro.bits:RecordCodec.unpack_bits", "bits.record",
          "bits.record.calls"),
    Probe("repro.compression:LineCompressor.encode", "compression.encode",
          "compression.encode.calls"),
    Probe("repro.compression:SimLineCompressor.encode", "compression.encode",
          "compression.encode.calls"),
    Probe("repro.compression:LineCompressor.decode", "compression.decode",
          "compression.decode.calls"),
    Probe("repro.compression:SimLineCompressor.decode", "compression.decode",
          "compression.decode.calls"),
    Probe("repro.ram:RamMachine.run", "ram.run", "ram.run.calls",
          after="after_ram_run"),
)

#: Self-time keys, in report order.
SELF_KEYS = (
    "parallel.trial", "parallel.overhead", "oracle.sample", "oracle.lazy",
    "oracle.table", "oracle.hash", "oracle.meter", "mpc.compute",
    "mpc.routing", "wire.encode", "wire.decode", "bits.record",
    "compression.encode", "compression.decode", "ram.run",
)

#: Oracle families by class, for ``oracle.<family>`` self time; any
#: other oracle (metering and patching wrappers) counts as ``meter``.
_ORACLE_FAMILIES = (
    ("repro.oracle:TableOracle", "oracle.table"),
    ("repro.oracle:LazyRandomOracle", "oracle.lazy"),
    ("repro.hashes:HashOracle", "oracle.hash"),
)


def _resolve(path: str):
    """``"module:Dotted.name"`` -> ``(owner, attr name)``, or None."""
    module_name, _, qual = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, name = qual.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner, name


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class LayerProfile:
    """Self time and call counts of the wrapped layers of one process."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        # Open wrapped calls: each entry accumulates its children's time.
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._families: dict[type, str] = {}
        # Live sampled tables: id -> (weakref, distinct queried indices).
        self._tables: dict[int, tuple[weakref.ref, set]] = {}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, probes: tuple[Probe, ...] = PROBES) -> "LayerProfile":
        """Wrap every probe's target; missing targets go to ``absent``."""
        for probe in probes:
            resolved = _resolve(probe.target)
            if resolved is None:
                self.absent.append(probe.target)
                continue
            owner, pattern = resolved
            if isinstance(owner, type):
                done = self._wrap_methods(owner, pattern, probe)
            else:
                done = self._wrap_functions(owner, pattern, probe)
            if not done:
                self.absent.append(probe.target)
        return self

    def _wrap_methods(self, cls: type, name: str, probe: Probe) -> bool:
        if not hasattr(cls, name):
            return False
        for sub in _subclasses(cls):
            raw = sub.__dict__.get(name)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(sub, name, type(raw)(self._wrap(raw.__func__, probe)))
            else:
                setattr(sub, name, self._wrap(raw, probe))
        return True

    def _wrap_functions(self, module, pattern: str, probe: Probe) -> bool:
        names = fnmatch.filter(dir(module), pattern)
        originals = [getattr(module, n) for n in names]
        originals = [f for f in originals if callable(f)]
        holders = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        for fn in originals:
            wrapper = self._wrap(fn, probe)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapper)
        return bool(originals)

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        stack = self._stack
        depth = self._depth
        self_s = self.self_s
        counts = self.counts
        group = probe.calls
        if probe.key.startswith("@"):
            key_of = getattr(self, probe.key[1:])
        else:
            fixed = probe.key
            key_of = lambda args: fixed  # noqa: E731
        before = getattr(self, probe.before) if probe.before else None
        after = getattr(self, probe.after) if probe.after else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            key = key_of(args)
            if group is not None:
                if not depth[group]:
                    counts[group] += 1
                depth[group] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[key] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if group is not None:
                    depth[group] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Hooks named by PROBES
    # ------------------------------------------------------------------
    def wrap_trials(self, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
        """``TrialPool.map(self, fn, items)``: time ``fn`` as trial work."""
        bound = dict(zip(("self", "fn", "items"), args), **kwargs)
        bound["items"] = list(bound["items"])
        bound["fn"] = self._wrap(bound["fn"], Probe("", "parallel.trial"))
        self.counts["parallel.trials"] += len(bound["items"])
        pool = bound.pop("self")
        return (pool,), bound

    def oracle_key(self, args: tuple) -> str:
        cls = type(args[0])
        key = self._families.get(cls)
        if key is None:
            key = "oracle.meter"
            for path, family in _ORACLE_FAMILIES:
                resolved = _resolve(path)
                if resolved and issubclass(
                    cls, getattr(resolved[0], resolved[1], ())
                ):
                    key = family
                    break
            self._families[cls] = key
        return key

    def after_sample(self, args, kwargs, table) -> None:
        self.counts["oracle.sample.entries"] += 1 << table.n_in
        ident = id(table)
        ref = weakref.ref(table, lambda _ref: self._retire(ident))
        self._tables[ident] = (ref, set())

    def _retire(self, ident: int) -> None:
        entry = self._tables.pop(ident, None)
        if entry is not None:
            self.counts["oracle.table.queried"] += len(entry[1])

    def after_query(self, args, kwargs, answer) -> None:
        entry = self._tables.get(id(args[0]))
        if entry is not None:
            entry[1].add(args[1].value)

    def after_query_batch(self, args, kwargs, answers) -> None:
        entry = self._tables.get(id(args[0]))
        if entry is not None:
            entry[1].update(x.value for x in args[1])

    def after_mpc_run(self, args, kwargs, result) -> None:
        memories = args[1] if len(args) > 1 else kwargs["initial_memories"]
        stats = result.stats
        counts = self.counts
        counts["mpc.rounds"] += stats.num_rounds
        counts["mpc.steps"] += stats.num_rounds * len(memories)
        counts["mpc.active"] += sum(r.active_machines for r in stats.rounds)
        counts["mpc.messages"] += stats.total_messages
        counts["mpc.message_bits"] += stats.total_message_bits

    def after_ram_run(self, args, kwargs, result) -> None:
        self.counts["ram.instructions"] += result.stats.instructions

    # ------------------------------------------------------------------
    def totals(self) -> dict:
        """Self times, counts and absent targets, as plain JSON data."""
        for ident in list(self._tables):
            self._retire(ident)
        return {
            "self_s": {k: self.self_s.get(k, 0.0) for k in SELF_KEYS},
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }
