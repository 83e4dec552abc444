"""The package's hand-kept export list names only what the package has."""

import gibbsnn


def test_every_exported_name_resolves():
    missing = [name for name in gibbsnn.__all__ if not hasattr(gibbsnn, name)]
    assert not missing, missing
    assert len(set(gibbsnn.__all__)) == len(gibbsnn.__all__)
