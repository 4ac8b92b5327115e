import importlib

import pytest

import mdiqkd


def test_each_export_is_the_object_its_home_module_defines():
    assert mdiqkd.__all__ == sorted(set(mdiqkd.__all__))
    for name in mdiqkd.__all__:
        obj = getattr(mdiqkd, name)
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("mdiqkd."), name
        assert obj.__name__ == name and vars(home)[name] is obj, name


def test_star_import_gives_exactly_the_exports():
    namespace: dict = {}
    exec("from mdiqkd import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == mdiqkd.__all__


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'secure_key_rates'"):
        mdiqkd.secure_key_rates
    with pytest.raises(ImportError):
        exec("from mdiqkd import secure_key_rates", {})
    assert set(mdiqkd.__all__) <= set(dir(mdiqkd))
