"""T1 (Tables 1-3): every swept n gets a point inside Theorem 3.1's window."""

from repro.bounds import theorem31_window
from repro.experiments import run_experiment


def _rows(result):
    table = result.tables[0]
    return [dict(zip(table.headers, row)) for row in table.rows]


def test_full_scale_passes_inside_the_window():
    result = run_experiment("T1", "full")
    rows = _rows(result)
    assert result.passed
    assert [row["n"] for row in rows] == [64, 256, 1024, 4096, 16384]
    assert all(row["window ok"] == "yes" for row in rows)
    # T = 16S = 2^13 breaks log T < 4·64^(1/4) ~ 11.3 at n = 64; the
    # largest power of two inside the window is 2^11.
    assert rows[0]["w"] == 2**11
    assert "every swept n (64..16384)" in result.summary


def test_quick_scale_keeps_t_at_16s():
    rows = _rows(run_experiment("T1", "quick"))
    assert [(row["n"], row["w"]) for row in rows] == [
        (256, 256 * 8 * 16), (1024, 1024 * 8 * 16), (4096, 4096 * 8 * 16),
    ]


def test_a_point_outside_the_window_fails_and_is_named(monkeypatch):
    def reject_1024(*, n, **kwargs):
        window = theorem31_window(n=n, **kwargs)
        return {key: ok and n != 1024 for key, ok in window.items()}

    monkeypatch.setattr(
        "repro.experiments.exp_parameters.theorem31_window", reject_1024
    )
    result = run_experiment("T1", "quick")
    assert not result.passed
    assert "n = 1024 falls outside" in result.summary
    assert "every swept n" not in result.summary
    windows = {row["n"]: row["window ok"] for row in _rows(result)}
    assert windows == {256: "yes", 1024: "NO", 4096: "yes"}
