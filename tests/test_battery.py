"""The benchmark's battery runs on the library as it stands: a change that
breaks one of its calls (solve(...).values, value_at, dpp_gap,
holder_exponent, Grid.line, lower_bound_sublinear) fails here, not only in a
benchmark run."""

from pathlib import Path


def test_three_problems_pass_every_check(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import battery

    # one problem of each kind: half-space, hat and full space
    monkeypatch.setattr(battery, "N_PROBLEMS", 3)
    checks = battery.run(seed=2024)["checks"]  # perfbench/run.py's default seed
    assert len(checks) == 9
    assert [name for name, ok in checks if not ok] == []
