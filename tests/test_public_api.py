"""The package's exported names."""

import zksplit


def test_every_exported_name_resolves():
    assert len(set(zksplit.__all__)) == len(zksplit.__all__)
    assert [name for name in zksplit.__all__ if not hasattr(zksplit, name)] == []
