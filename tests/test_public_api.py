import qsearch


def test_every_public_name_resolves():
    assert len(set(qsearch.__all__)) == len(qsearch.__all__)
    missing = [name for name in qsearch.__all__ if not hasattr(qsearch, name)]
    assert missing == []


def test_star_import_brings_every_public_name():
    namespace = {}
    exec("from qsearch import *", namespace)
    assert set(qsearch.__all__) <= set(namespace)
