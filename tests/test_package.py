"""The package namespace."""

import resonances1d


def test_every_exported_name_resolves_once():
    names = resonances1d.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(resonances1d, n)] == []
