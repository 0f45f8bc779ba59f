"""The public import surface."""

from __future__ import annotations

import bktirt


def test_every_exported_name_resolves_once():
    assert len(bktirt.__all__) == len(set(bktirt.__all__))
    for name in bktirt.__all__:
        assert hasattr(bktirt, name), name
