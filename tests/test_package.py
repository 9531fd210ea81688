"""The package surface: every name in ``dalg.__all__`` exists, so a name
left there after its deletion fails here and not first in a user's
``from dalg import *``; and every one is named in README.md, so the top
level cannot grow past what the README documents."""

import re
from pathlib import Path

import dalg


def test_public_names_resolve():
    missing = [name for name in dalg.__all__ if not hasattr(dalg, name)]
    assert missing == []
    assert len(set(dalg.__all__)) == len(dalg.__all__)


def test_public_names_are_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    undocumented = [name for name in dalg.__all__
                    if not re.search(rf"`{name}\b", readme)]
    assert undocumented == []


def test_star_import():
    namespace: dict = {}
    exec("from dalg import *", namespace)
    assert set(dalg.__all__) <= namespace.keys()
