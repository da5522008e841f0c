"""E-LINE's counter fingerprint at quick scale, pinned.

Lemma 3.2's experiment is seeded end to end, so its model-level counts
(runs, rounds, messages, message bits, oracle queries) are a fixed
function of the tree.  ``cost check`` allows a band on rounds and
``trace-diff`` compares two runs of the same tree, so neither notices a
change that moves these counts consistently; this test does.  A
deliberate change to the chain protocol or to E-LINE's sweep updates
the numbers here and says why in CHANGES.md.
"""

from repro.experiments import run_experiment
from repro.obs import TraceMetrics, Tracer, counters_of, use_tracer

E_LINE_QUICK = {
    "mpc.runs": 27,
    "mpc.rounds": 2850,
    "mpc.messages": 25569,
    "mpc.message_bits": 705023,
    "mpc.oracle_queries": 4032,
    "oracle.queries": 4032,
    "oracle.repeat_queries": 0,
    "ram.runs": 0,
    "ram.instructions": 0,
    "ram.time": 0,
    "ram.oracle_queries": 0,
    "ram.peak_memory_words": 0,
}


def test_e_line_quick_fingerprint_is_pinned():
    tracer = Tracer()
    with use_tracer(tracer):
        result = run_experiment("E-LINE", "quick")
    assert result.passed
    assert counters_of(TraceMetrics.from_records(tracer.records)) == E_LINE_QUICK
