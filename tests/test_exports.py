"""The public surface: ``from groupexplain import *`` binds exactly ``__all__``."""

import groupexplain


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from groupexplain import *", namespace)
    assert [name for name in groupexplain.__all__ if name not in namespace] == []


def test_no_duplicate_exports():
    assert len(set(groupexplain.__all__)) == len(groupexplain.__all__)
