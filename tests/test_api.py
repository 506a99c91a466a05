"""The public surface: every exported name resolves, and none looks like a test."""

import importlib
import pkgutil

import pytest

import qds_onedecoy

MODULES = ["qds_onedecoy"] + [
    f"qds_onedecoy.{info.name}" for info in pkgutil.iter_modules(qds_onedecoy.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


@pytest.mark.parametrize("name", MODULES)
def test_star_import_works(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_no_public_name_is_collected_as_a_test(name):
    # pytest collects an imported test_* function (or Test* class) as a test
    module = importlib.import_module(name)
    assert [attr for attr in vars(module) if attr.lower().startswith("test")] == []
