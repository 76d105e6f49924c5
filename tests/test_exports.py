"""The public surface: ``from groupexplain import *`` binds exactly ``__all__``."""

import sys

import groupexplain


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from groupexplain import *", namespace)
    assert [name for name in groupexplain.__all__ if name not in namespace] == []


def test_no_duplicate_exports():
    assert len(set(groupexplain.__all__)) == len(groupexplain.__all__)


def test_exports_read_the_module_attribute_each_time(monkeypatch):
    from groupexplain import cf

    assert groupexplain.influential_items is cf.influential_items
    patched = object()
    monkeypatch.setattr(cf, "influential_items", patched)
    assert groupexplain.influential_items is patched
    # a resolved name is never bound in the package, or a patch would miss it
    assert "influential_items" not in vars(groupexplain)


def test_modules_and_unknown_names():
    assert groupexplain.svg.render_svg is groupexplain.render_svg
    assert not hasattr(groupexplain, "no_such_name")


def test_a_submodule_not_yet_imported_is_imported_on_read(monkeypatch):
    import groupexplain.svg

    old = sys.modules["groupexplain.svg"]
    monkeypatch.delitem(sys.modules, "groupexplain.svg")
    monkeypatch.delattr(groupexplain, "svg")
    fresh = groupexplain.svg  # through the package's __getattr__
    assert fresh is sys.modules["groupexplain.svg"] and fresh is not old


def test_exports_skip_the_module_getattr_hook(monkeypatch):
    # Python 3.11 builds and discards an AttributeError before it calls a
    # module __getattr__, so an export read through the hook costs several
    # times one read through the package type's descriptor.
    def hook(name):
        raise AssertionError(f"groupexplain.{name} was read through __getattr__")

    monkeypatch.setattr(groupexplain, "__getattr__", hook)
    for name in groupexplain.__all__:
        getattr(groupexplain, name)
