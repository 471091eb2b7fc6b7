"""Every setting and every piece of specimen state is read somewhere.

A field that nothing reads is a knob that silently does nothing: a
caller or a `--config` file can set it and no output changes. This test
parses the package source and requires each field of the classes below to
be read as an attribute (`obj.field`) outside its own class body, where only
validation would see it. Reads are matched by name, so a field is also
counted as read when another object's attribute of that name is.
"""

import ast
import re
from pathlib import Path

import pytest

from attenattack.attenuators import _PROFILE_FIELDS, AttenuatorState, DamageProfile
from attenattack.campaign import CampaignConfig
from attenattack.fiber import FiberLink, LaserSource

ROOT = Path(__file__).resolve().parent.parent
TREES = [ast.parse(path.read_text()) for path in sorted((ROOT / "src/attenattack").glob("*.py"))]


def attribute_reads(outside_class: str) -> set[str]:
    """Attribute names loaded anywhere in the package but in `outside_class`."""
    reads = set()
    for tree in TREES:
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == outside_class
            for node in ast.walk(cls)
        }
        reads.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and id(node) not in inside
        )
    return reads


@pytest.mark.parametrize(
    "cls",
    [DamageProfile, CampaignConfig, FiberLink, LaserSource, AttenuatorState],
    ids=lambda cls: cls.__name__,
)
def test_every_field_is_read(cls):
    assert set(cls._fields) - attribute_reads(cls.__name__) == set()


def test_readme_lists_the_recognized_profile_fields():
    readme = (ROOT / "README.md").read_text()
    # the sentence that opens with "Recognized fields" and ends at its period
    listed = re.search(r"Recognized fields[^:]*:(.*?)\.\s", readme, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(_PROFILE_FIELDS)
