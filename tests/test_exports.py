"""The public names: every name a package exports exists, and is listed once,
so a deleted function cannot leave a stale export behind."""

from collections import Counter

import pytest

import wlclass
import wlclass.classifiers


@pytest.mark.parametrize("module", [wlclass, wlclass.classifiers], ids=lambda m: m.__name__)
def test_every_export_resolves_and_appears_once(module):
    repeated = [name for name, count in Counter(module.__all__).items() if count > 1]
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert repeated == [] and missing == []
