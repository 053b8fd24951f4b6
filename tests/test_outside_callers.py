"""Code outside the package that calls it by name.

The benchmark harness wraps lplab functions by name, the calibration
tool and the README library sketch import and call public names; a
renamed or removed name breaks each of them, so each runs here.  The
other way round, every public name must have a caller that is not a
test.
"""

import ast
import importlib
import math
import pathlib
import re
import sys

import pytest

import lplab
from lplab import DEFAULT_CONSTANTS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def import_script(monkeypatch, directory: str, name: str):
    """Import ROOT/directory/name.py through sys.path, writing no bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / directory))
    monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module(name)


def namespaces(layertrace):
    """Every namespace the recorder may replace names in, as {owner: copy of its dict}."""
    owners = [importlib.import_module(f"lplab.{short}") for short in layertrace.CALLER_MODULES]
    owners.append(lplab.montecarlo.MomentAccumulator)
    return {owner: dict(vars(owner)) for owner in owners}


def test_benchmark_harness_wraps_and_restores_every_name(monkeypatch):
    layertrace = import_script(monkeypatch, "perfbench", "layertrace")
    before = namespaces(layertrace)
    recorder = layertrace.Recorder()
    try:
        recorder.install()
        for short, attr in layertrace.OWN_NAMES:
            module = importlib.import_module(f"lplab.{short}")
            assert getattr(module, attr).__wrapped__ is before[module][attr], (short, attr)
    finally:
        recorder.uninstall()
    after = namespaces(layertrace)
    for owner, names in before.items():
        changed = [attr for attr, value in names.items() if after[owner][attr] is not value]
        assert changed == [], owner


def test_readme_library_sketch_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    sketch = re.search(r"## Library sketch\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(sketch, "README.md", "exec"), {"__name__": "sketch"})
    ratio, section = capsys.readouterr().out.splitlines()
    assert 0.0 < float(ratio) < math.inf
    assert len(section.split()) == 2


@pytest.mark.parametrize(
    "criterion, committed",
    [
        ("criterion_tail_gap", DEFAULT_CONSTANTS.tails_gap_c),
        ("criterion_negative_moment", DEFAULT_CONSTANTS.neg_moment_v),
    ],
)
def test_calibration_criteria_run(monkeypatch, capsys, criterion, committed):
    calibrate = import_script(monkeypatch, "tools", "calibrate")
    worst = getattr(calibrate, criterion)(True)
    assert 0.0 < worst <= committed
    assert "suggested" in capsys.readouterr().out


def test_every_public_name_has_a_caller():
    # loaded by a package module other than __init__, or named by the
    # harness, the calibration tool or the README; a name only tests
    # reach is dead library code
    loaded = set()
    for path in (ROOT / "src" / "lplab").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    outside = [ROOT / "README.md"]
    for directory in ("tools", "perfbench"):
        outside += [p for p in (ROOT / directory).rglob("*") if p.suffix in (".py", ".md")]
    named = {word for path in outside for word in re.findall(r"\w+", path.read_text())}
    assert [name for name in lplab.__all__ if name not in loaded | named] == []
