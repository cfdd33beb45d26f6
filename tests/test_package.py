"""The package's public surface: every exported name resolves."""

import skelact


def test_every_exported_name_resolves():
    missing = [name for name in skelact.__all__ if not hasattr(skelact, name)]
    assert not missing, f"skelact.__all__ lists names the package lacks: {missing}"
    assert len(set(skelact.__all__)) == len(skelact.__all__)
