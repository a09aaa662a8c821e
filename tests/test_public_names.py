"""The package's public names: each name in `logmonoid.__all__` resolves
through the package's lazy `__getattr__` (PEP 562) to the object its home
module defines, and the names removed from the API resolve nowhere."""

import importlib

import pytest

import logmonoid

# monoid operations no program path reached, removed with their homes' code
REMOVED = {"sharp_quotient": "monoid_core", "quotient": "monoid_core", "face_quotient_group": "monoid_core",
           "localize": "monoid_core", "is_vertical": "monoid_core", "h_minus": "weighted_series"}


def test_every_public_name_resolves_on_its_home_module():
    assert sorted(logmonoid.__all__) == sorted(logmonoid._HOMES)
    for name in logmonoid.__all__:
        home = importlib.import_module(f"logmonoid.{logmonoid._HOMES[name]}")
        assert logmonoid.__getattr__(name) is getattr(home, name), name
        assert getattr(logmonoid, name) is getattr(home, name), name


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_a_removed_name_raises_attribute_error(name):
    assert name not in logmonoid.__all__
    with pytest.raises(AttributeError, match=name):
        getattr(logmonoid, name)
    assert not hasattr(importlib.import_module(f"logmonoid.{REMOVED[name]}"), name)
