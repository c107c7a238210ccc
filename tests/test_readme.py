"""The README's library quick tour runs as written and returns what its
comments say."""

import pathlib
import re

import pytest

from transferspec import TransferOperatorError

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour():
    text = README.read_text()
    section = text.split("## Library quick tour", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README quick tour has no python block"
    return match.group(1)


def test_readme_quick_tour_runs():
    ns = {}
    exec(compile(_quick_tour(), str(README), "exec"), ns)
    assert ns["seq"].values[0] == pytest.approx(1.0, abs=1e-12)
    assert ns["table"].orders == tuple(range(1, 11))
    lam2 = ns["zeros"].values[1]
    assert ns["zeros"].reliable_count >= 2
    assert abs(lam2) == pytest.approx(0.22307, abs=5e-6)
    assert abs(abs(lam2) - abs(ns["mat"].values[1])) < 1e-12
    assert ns["mat"].reliable_count >= 2
    with pytest.raises(TransferOperatorError):
        ns["trace_table"](ns["sys_"], 2)
    assert ns["verify_bounds"](ns["seq"], ns["prof"]).all_pass is True


def test_readme_layout_names_every_module():
    layout = README.read_text().split("## Layout", 1)[1]
    block = re.search(r"```\n(.*?)```", layout, re.S).group(1)
    named = set(re.findall(r"^\s+(\w+\.py)\s", block, re.M))
    package = README.parent / "src" / "transferspec"
    modules = {p.name for p in package.glob("*.py")} - {"__init__.py"}
    assert named == modules
