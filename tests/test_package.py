"""The package surface: every name in ``dalg.__all__`` exists, so a name
left there after its deletion fails here and not first in a user's
``from dalg import *``."""

import dalg


def test_public_names_resolve():
    missing = [name for name in dalg.__all__ if not hasattr(dalg, name)]
    assert missing == []
    assert len(set(dalg.__all__)) == len(dalg.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from dalg import *", namespace)
    assert set(dalg.__all__) <= namespace.keys()
