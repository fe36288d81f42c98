import hankelmoments


def test_every_exported_name_resolves():
    names = hankelmoments.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(hankelmoments, n)] == []


def test_star_import_succeeds():
    namespace = {}
    exec("from hankelmoments import *", namespace)
    assert set(hankelmoments.__all__) <= namespace.keys()
