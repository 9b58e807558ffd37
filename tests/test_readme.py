"""README's "Python API" section lists exactly what ``import treeres`` exposes."""

import re
import types
from pathlib import Path

import treeres

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_section_matches_exports():
    text = README.read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`(\w+)`", section)) - {"treeres"}
    exported = {
        name
        for name, value in vars(treeres).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert listed == exported
