"""The public names of the package resolve."""
from __future__ import annotations

import qkseidel
import qkseidel.seidel


def test_every_exported_name_resolves():
    for module in (qkseidel, qkseidel.seidel):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
        assert len(set(module.__all__)) == len(module.__all__), module.__name__
