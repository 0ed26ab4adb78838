import zkbstrip


def test_every_exported_name_resolves():
    missing = [name for name in zkbstrip.__all__ if not hasattr(zkbstrip, name)]
    assert missing == []
    assert len(set(zkbstrip.__all__)) == len(zkbstrip.__all__)


def test_star_import():
    namespace = {}
    exec("from zkbstrip import *", namespace)
    assert set(zkbstrip.__all__) <= set(namespace)
