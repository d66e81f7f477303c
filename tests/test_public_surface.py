"""The names `tgsim` exports: `__all__` is the whole public surface, and all of it resolves."""

import types

import tgsim


def test_every_exported_name_resolves():
    assert [name for name in tgsim.__all__ if not hasattr(tgsim, name)] == []


def test_no_name_is_exported_twice():
    assert len(set(tgsim.__all__)) == len(tgsim.__all__)


def test_every_public_attribute_is_exported():
    public = {name for name, value in vars(tgsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(tgsim.__all__)) == []
