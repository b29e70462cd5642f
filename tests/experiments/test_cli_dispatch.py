"""CLI dispatch tests: every figure subcommand reaches its driver."""

from __future__ import annotations

import pytest

import repro.cli as cli


@pytest.mark.parametrize(
    "figure", ["fig1b", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"]
)
def test_every_figure_dispatches_to_its_driver(figure, monkeypatch, capsys):
    module = cli._FIGURES[figure]
    calls = {}

    def fake_run(*args, **kwargs):
        calls["ran"] = True
        return [{"col": 1.0}]

    def fake_table(rows):
        assert rows == [{"col": 1.0}]
        return "TABLE-SENTINEL"

    monkeypatch.setattr(module, "run", fake_run)
    monkeypatch.setattr(module, "format_table", fake_table)
    assert cli.main([figure]) == 0
    assert calls.get("ran")
    assert "TABLE-SENTINEL" in capsys.readouterr().out


def test_seed_flag_forwarded(monkeypatch):
    module = cli._FIGURES["fig5"]
    seen = {}

    def fake_run(*args, **kwargs):
        seen.update(kwargs)
        return [{"x": 1.0}]

    monkeypatch.setattr(module, "run", fake_run)
    monkeypatch.setattr(module, "format_table", lambda rows: "t")
    cli.main(["fig5", "--seed", "99"])
    assert seen.get("seed") == 99


def test_fig9_sharding_flags_forwarded(monkeypatch):
    module = cli._FIGURES["fig9"]
    seen = {}

    def fake_run(*args, **kwargs):
        seen.update(kwargs)
        return [{"x": 1.0}]

    monkeypatch.setattr(module, "run", fake_run)
    monkeypatch.setattr(module, "format_table", lambda rows: "t")
    cli.main(["fig9", "--shards", "2", "--executor", "persistent"])
    assert seen.get("shards") == 2
    assert seen.get("executor") == "persistent"
    assert "pipeline" not in seen
    with pytest.raises(SystemExit):
        cli.main(["fig9", "--pipeline"])


def test_fig4_worked_bypasses_run(monkeypatch, capsys):
    module = cli._FIGURES["fig4"]
    monkeypatch.setattr(
        module, "run", lambda *a, **k: pytest.fail("run must not be called")
    )
    assert cli.main(["fig4", "--worked"]) == 0
    assert "B=1" in capsys.readouterr().out
