"""The package's export list names only what the package binds."""

import dunklcm


def test_star_import_binds_every_exported_name():
    # a stale entry in __all__ fails only a star import, so do one
    namespace: dict = {}
    exec("from dunklcm import *", namespace)
    assert [name for name in dunklcm.__all__ if name not in namespace] == []
    assert len(set(dunklcm.__all__)) == len(dunklcm.__all__)
