"""Tests of the test and benchmark tooling around the package."""

from __future__ import annotations

import importlib.util
import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_failing_property_test_reports_the_full_count(tmp_path):
    # a failing @given test makes hypothesis import libcst to write its patch;
    # under the project's warning filters that must stay a plain failure
    probe = tmp_path / "test_probe.py"
    probe.write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 0


        def test_passes():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert re.search(r"\b1 failed, 1 passed\b", proc.stdout), output


def test_every_span_perfbench_wraps_still_exists(monkeypatch):
    # the benchmark's tracer skips a missing attribute without an error, so a
    # renamed function would read as a per-layer metric of zero
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_worker", ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    wrapped = [(module, attr) for module, attr, _ in worker.TRACED]
    wrapped += [
        (worker.comb_sdp, "embedding_matrix"),
        (worker.symmetric_group, "embedding_matrix"),
        (worker.sdp, "solve"),
    ]
    assert len(wrapped) > 3
    missing = [
        f"{module.__name__}.{attr}" for module, attr in wrapped if not callable(getattr(module, attr, None))
    ]
    assert not missing
