"""Smoke tests: the shipped examples must keep running.

Examples are the first thing a new user executes; a broken example is a
broken front door.  Each test imports the example module and runs its
``main()`` with stdout captured, asserting the advertised headline output
appears.  Only the fast examples run here (the full-evaluation script is
exercised through its underlying ``generate_markdown_report`` tests).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    """Import and execute one example's main(); returns captured stdout."""
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec and spec.loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "[spectral]" in out
        assert "compression:" in out
        assert "offloaded" in out

    def test_baseline_comparison(self, capsys):
        out = run_example("baseline_comparison.py", capsys)
        for algorithm in ("spectral", "maxflow", "kl"):
            assert f"[{algorithm}]" in out
        assert "normalized" in out

    def test_coupling_comparison(self, capsys):
        out = run_example("coupling_comparison.py", capsys)
        assert "loose" in out
        assert "tight" in out
        assert "E+T (all local)" in out

    def test_fault_injection(self, capsys):
        out = run_example("fault_injection.py", capsys)
        assert "healthy" in out
        assert "server loses half capacity" in out

    def test_scenario_comparison(self, capsys):
        out = run_example("scenario_comparison.py", capsys)
        assert "five conditions" in out
        assert "x baseline" in out

    def test_spark_style_cluster(self, capsys):
        # This example has no main(); it runs under __main__ only, so
        # exercise its pieces directly.
        from repro.distributed import LocalCluster

        spec = importlib.util.spec_from_file_location(
            "example_spark", EXAMPLES_DIR / "spark_style_cluster.py"
        )
        assert spec and spec.loader
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        with LocalCluster(workers=2) as cluster:
            module.tour_rdd(cluster)
            module.tour_block_matrix(cluster)
        out = capsys.readouterr().out
        assert "sum of even squares" in out
        assert "matvec error" in out

    def test_all_examples_have_docstrings_and_main_guard(self):
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            text = path.read_text()
            assert text.lstrip().startswith(('#!/usr/bin/env python\n"""', '"""')), path
            assert '__name__ == "__main__"' in text, path
