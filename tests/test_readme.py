"""README.md names only library attributes that exist.

Every ``<module>.<name>`` the README writes for a ``powerdep`` module
must resolve with ``getattr``, so moving or deleting a function cannot
leave the documentation pointing at nothing.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import powerdep

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = sorted(m.name for m in pkgutil.iter_modules(powerdep.__path__))


def named_attributes():
    # "<module>.py" in the layout block is a file name, not an attribute
    pattern = re.compile(
        r"(?<![\w.])(" + "|".join(MODULES) + r")\.(?!py\b)([A-Za-z_]\w*)"
    )
    return sorted(set(pattern.findall(README.read_text())))


def test_every_attribute_the_readme_names_resolves():
    named = named_attributes()
    missing = [
        f"{module}.{name}"
        for module, name in named
        if not hasattr(importlib.import_module(f"powerdep.{module}"), name)
    ]
    assert len(named) >= 10  # the pattern still finds the names
    assert missing == []
