"""T1 -- Tables 1/2/3: the parameter derivations are mutually satisfiable.

The paper's three tables pin down the model parameters (Table 1), the
theorem window (Table 2), and the ``Line`` derivation ``u = n/3``,
``v = S/u``, ``w = T`` (Table 3).  This experiment regenerates the
derived values across a sweep of ``n`` and verifies every side condition
of Theorem 3.1 plus the Lemma 3.6 assumption
``u >= (p+2)·log v + log q`` at the paper's look-ahead ``p = log^2 w``.

Each ``n`` gets one representative point: ``S = 8n`` and ``T = 16S``.
Table 2 caps ``log T`` below ``c·n^{1/4}``, which ``T = 16S`` exceeds at
small ``n`` (at ``n = 64``, ``log T = 13`` against a cap of about 11.3);
there ``T`` is halved toward ``S`` until it fits, giving the largest
power of two inside the window.
"""

from __future__ import annotations

import math

from repro.bounds import default_lookahead, required_u_lemma36, theorem31_window
from repro.bounds.paper_tables import table1, table2, table3
from repro.experiments.base import ExperimentResult, TableData, register
from repro.functions import LineParams
from repro.mpc import MPCParams

__all__ = ["run"]


@register("T1")
def run(scale: str) -> ExperimentResult:
    ns = [256, 1024, 4096] if scale == "quick" else [64, 256, 1024, 4096, 16384]
    rows = []
    outside = []  # n whose point misses the Theorem 3.1 window
    lemma36_from = None  # smallest n whose u meets the Lemma 3.6 bound
    for n in ns:
        S = n * 8
        m = max(2, int(2 ** (n**0.25)))
        m = min(m, 2**30)
        q = min(2 ** (n // 8), 2**30)
        T = S * 16
        window = theorem31_window(n=n, S=S, T=T, m=m, q=q)
        while T > S and not window["T_below_subexp"]:
            T //= 2
            window = theorem31_window(n=n, S=S, T=T, m=m, q=q)
        params = LineParams.from_paper(n=n, S=S, T=T)
        p = default_lookahead(params.w)
        log_v = math.log2(params.v) if params.v > 1 else 0.0
        u_needed = required_u_lemma36(p, log_v, math.log2(q))
        lemma36_ok = params.u >= u_needed
        ok = all(window.values())
        if not ok:
            outside.append(n)
        if lemma36_ok and lemma36_from is None:
            lemma36_from = n
        rows.append(
            (
                n,
                params.u,
                params.v,
                params.w,
                params.space_S,
                "yes" if ok else "NO",
                f"{u_needed:.0f}",
                "yes" if lemma36_ok else "no (needs larger n)",
            )
        )
    table = TableData(
        title="Table 3 derivation across n (u = n/3, v = S/u, w = T)",
        headers=("n", "u", "v", "w", "S=uv", "window ok", "u needed (L3.6)", "u >= needed"),
        rows=tuple(rows),
    )

    # The literal paper tables, regenerated at one representative point.
    ref_n = 4096
    ref_params = LineParams.from_paper(n=ref_n, S=ref_n * 8, T=ref_n * 128)
    literal = []
    failed_tables = []
    for paper_table in (
        table1(MPCParams(m=1024, s_bits=ref_params.space_S // 16), N=ref_params.space_S),
        table2(n=ref_n, S=ref_n * 8, T=ref_n * 128, q=2**20),
        table3(ref_params, q=2**20),
    ):
        if not paper_table.all_checks_pass:
            failed_tables.append(paper_table.number)
        literal.append(
            TableData(
                title=f"Table {paper_table.number}: {paper_table.caption} "
                f"(n={ref_n})",
                headers=("symbol", "meaning", "value", "constraint"),
                rows=paper_table.rows,
            )
        )

    return ExperimentResult(
        experiment_id="T1",
        title="Parameter tables are satisfiable",
        paper_claim=(
            "Tables 1-3: for n <= S < 2^O(n^1/4), S <= T < 2^O(n^1/4) the "
            "derivation u=n/3, v=S/u, w=T meets every side condition"
        ),
        tables=[table, *literal],
        summary=_summary(ns, outside, lemma36_from, failed_tables),
        passed=not outside and not failed_tables,
    )


def _summary(ns, outside, lemma36_from, failed_tables) -> str:
    """The measured sentence, built from what the sweep found."""
    if outside:
        verb = "falls" if len(outside) == 1 else "fall"
        window = (
            f"n = {', '.join(map(str, outside))} {verb} outside the "
            "Theorem 3.1 window at every T >= S tried"
        )
    else:
        window = (
            f"every swept n ({ns[0]}..{ns[-1]}) admits the derivation "
            "inside the theorem window"
        )
    if lemma36_from is None:
        slack = (
            "the Lemma 3.6 slack u - (p+2)log v - log q is still negative "
            f"at n = {ns[-1]} (the theorem's 'sufficiently large n' lies "
            "beyond the sweep)"
        )
    else:
        slack = (
            "the Lemma 3.6 slack u - (p+2)log v - log q is positive from "
            f"n = {lemma36_from} on (the theorem's 'sufficiently large n')"
        )
    tables = (
        f"; paper Table {', '.join(map(str, failed_tables))} fails a side "
        "condition" if failed_tables else ""
    )
    return f"{window}; {slack}{tables}"
