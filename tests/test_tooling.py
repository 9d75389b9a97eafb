"""Tests of the test and benchmark tooling around the package."""

from __future__ import annotations

import argparse
import ast
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


def _dotted(node) -> str | None:
    """The dotted name of an expression a.b.c, or None when it is not a chain of names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def test_every_name_a_src_module_imports_is_read():
    # no linter runs on src/, so a deletion can leave an import behind; "import a.b"
    # counts as read only where a.b itself is, since the name a alone says nothing of b
    unused = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {
            _dotted(node)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.relative_to(ROOT)}:{node.lineno} {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name) not in read
        ]
    assert not unused


def test_every_private_name_a_src_module_defines_is_read():
    # a private helper is read only in its own module, so once its last caller
    # goes it is dead code that no test or import check notices
    unread = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(node.lineno, n.id) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name)]
        unread += [
            f"{path.relative_to(ROOT)}:{line} {name}"
            for line, name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read
        ]
    assert not unread


# public names that nothing in src/ or perfbench reads, each kept for a reason
UNCALLED_PUBLIC_NAMES = {
    "evaluate_fidelity": "the objective paired with a comb; items 4 and 9 of the roadmap give it callers",
    "ancilla_restoration": "the independent side of acceptance criterion 1",
    "basis_state": "pins the digit-order convention of the tensor module",
}


def _names_read(tree) -> set[str]:
    """Every name ``tree`` loads, and the attribute of every attribute it loads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_a_src_module_defines_has_a_reader():
    # a public function or class whose last caller went is dead code that the
    # private-name check cannot see; perfbench counts as a reader, by name or by
    # the strings its tracing table holds, and so does a console script
    statements = [  # each top-level statement of src/, with the names it reads
        (node, _names_read(node))
        for path in sorted((ROOT / "src").rglob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    outside = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        outside |= _names_read(tree)
        outside |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, re.S | re.M)
    outside |= set(re.findall(r':(\w+)"', scripts.group(1)))
    uncalled = {
        node.name
        for node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in outside
        and not any(node.name in read for other, read in statements if other is not node)
    }
    assert uncalled == set(UNCALLED_PUBLIC_NAMES)


def test_readme_command_line_lists_every_option():
    # the README's usage block is written by hand: each command there must
    # list exactly the options its parser takes, --help aside
    from unitary_inversion.cli import build_parser

    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Command line\n+```\n(.*?)^```", readme, re.S | re.M).group(1)
    listed: dict[str, set[str]] = {}
    for line in block.splitlines():
        command = re.match(r"uinv (\w+)", line)
        name = command.group(1) if command else name
        listed.setdefault(name, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {option for action in sub._actions for option in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert set(listed) == {"simulate", "solve", "tables"}
    assert listed == parsed


def test_readme_acceptance_list_names_every_criterion():
    # the README's list of acceptance criteria is written by hand: its
    # numbers must be exactly those of the test_criterion_<N>_ functions
    readme = (ROOT / "README.md").read_text()
    paragraph = re.search(r"^The acceptance module checks.*?\n\n(.*?)\n\n", readme, re.S | re.M).group(1)
    listed = [int(n) for n in re.findall(r"^(\d+)\. ", paragraph, re.M)]
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    criteria = sorted(
        int(match.group(1))
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and (match := re.match(r"test_criterion_(\d+)_", node.name))
    )
    assert criteria == list(range(1, len(criteria) + 1))
    assert listed == criteria


def _private_library_names(source: str) -> list[str]:
    """Dotted names of numpy or scipy that ``source`` imports or reads with a private (_-prefixed) part.

    Attribute chains are resolved through the module's import aliases, and
    getattr(<module>, "<name>") counts as reading <module>.<name>.
    """
    tree = ast.parse(source)
    aliases, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.append(alias.name)
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
            target, attr = (node.args + [None, None])[:2]
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                node = ast.Attribute(value=target, attr=attr.value, ctx=ast.Load())
        dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
        root, _, rest = (dotted or "").partition(".")
        if root in aliases:
            names.append(f"{aliases[root]}.{rest}")
    return sorted({
        name for name in names
        if name.split(".")[0] in ("numpy", "scipy")
        and any(part.startswith("_") and not part.endswith("__") for part in name.split("."))
    })


def test_no_src_module_reads_a_private_name_of_numpy_or_scipy():
    # a private module or attribute, such as scipy.sparse._sparsetools.csr_matvecs
    # past scipy's dispatch, may change or vanish in any release of the library
    assert _private_library_names(
        "import numpy as np\nimport scipy.sparse\nfrom scipy.sparse import _sparsetools as tools\n"
        "from numpy.linalg import norm\nscipy.sparse._sparsetools.csr_matvecs\ntools.csr_matvecs\n"
        "getattr(np, '_core')\nnp.linalg.norm\nnp.__version__\nnorm\n"
    ) == ["numpy._core", "scipy.sparse._sparsetools", "scipy.sparse._sparsetools.csr_matvecs"]
    found = {
        str(path.relative_to(ROOT)): _private_library_names(path.read_text())
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert not {path: names for path, names in found.items() if names}
