"""The package's export list matches what the package defines."""

import hypertree_spectra


def test_every_export_resolves_once():
    names = hypertree_spectra.__all__
    assert len(names) == len(set(names)), "a name is listed twice in __all__"
    assert [n for n in names if not hasattr(hypertree_spectra, n)] == []


def test_star_import():
    namespace: dict = {}
    exec("from hypertree_spectra import *", namespace)
    assert set(hypertree_spectra.__all__) <= set(namespace)
