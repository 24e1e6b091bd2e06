"""The example scripts must run end to end (they double as documentation)."""

from __future__ import annotations

import runpy

import pytest

EXAMPLES_DIR = "examples"


def _run(path: str) -> None:
    runpy.run_path(path, run_name="__main__")


def test_quickstart_example(capsys):
    _run(f"{EXAMPLES_DIR}/quickstart.py")
    out = capsys.readouterr().out
    assert "def user_exists" in out


def test_parallel_sweep_example(capsys):
    _run(f"{EXAMPLES_DIR}/parallel_sweep.py")
    out = capsys.readouterr().out
    assert "across 2 workers" in out
    assert "programs identical to serial: True" in out


def test_traced_run_example(capsys):
    _run(f"{EXAMPLES_DIR}/traced_run.py")
    out = capsys.readouterr().out
    assert "per-layer self time (from the trace):" in out
    for layer in ("session", "search", "enumerate", "goal", "merge"):
        assert f"\n  {layer} " in out, layer
    assert "efficacy static pruning = " in out
    assert "efficacy snapshots = " in out
    assert "chrome trace written to" in out


@pytest.mark.slow
def test_update_post_example(capsys):
    _run(f"{EXAMPLES_DIR}/update_post.py")
    out = capsys.readouterr().out
    assert "def update_post" in out
    assert "Post.exists?" in out


@pytest.mark.slow
def test_gitlab_issues_example(capsys):
    _run(f"{EXAMPLES_DIR}/gitlab_issues.py")
    out = capsys.readouterr().out
    assert "A7" in out and "A8" in out
    assert "state='closed'" in out or 'state="closed"' in out.replace("'", '"')


@pytest.mark.slow
def test_effect_precision_example(capsys):
    _run(f"{EXAMPLES_DIR}/effect_precision.py")
    out = capsys.readouterr().out
    assert "precise" in out
    assert "purity" in out
