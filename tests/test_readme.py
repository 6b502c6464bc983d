"""README.md names only library attributes and config keys that exist.

Every ``<module>.<name>`` the README writes for a ``powerdep`` module
must resolve with ``getattr``, so moving or deleting a function cannot
leave the documentation pointing at nothing.  Every key of a JSON config
example must be one the command line reads.
"""

import importlib
import json
import pkgutil
import re
from pathlib import Path

import powerdep
from powerdep import cli
from powerdep.pipeline import AnalysisConfig

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


def test_every_config_example_key_is_a_config_field_or_a_flag():
    # a documented key must reach the program: an AnalysisConfig field or
    # the name of some verb's flag, never a near miss such as "window_days"
    # spelt "window_size"
    examples = [
        json.loads(block)
        for block in re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    ]
    fields = set(AnalysisConfig.__dataclass_fields__)
    flags = {
        action.dest
        for verb in cli.verb_parsers(cli.build_parser()).values()
        for action in verb._actions
    } - set(cli._UNPRESET_DESTS)
    assert examples  # the pattern still finds the examples
    for example in examples:
        assert sorted(set(example) - fields - flags) == []
        AnalysisConfig.from_json_dict({k: v for k, v in example.items() if k in fields})
