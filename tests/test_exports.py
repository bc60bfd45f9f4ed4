"""The package's export list: every name resolves, none repeats."""

import psdapprox


def test_every_exported_name_resolves_once():
    names = psdapprox.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(psdapprox, name)] == []
    namespace = {}
    exec("from psdapprox import *", namespace)
    assert set(names) <= set(namespace)
