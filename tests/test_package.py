"""The package's public surface: ``__all__`` is every public name the package binds."""
import types

import gatesafe


def test_all_lists_every_public_name_the_package_binds():
    bound = sorted(
        name for name, value in vars(gatesafe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert sorted(gatesafe.__all__) == bound
    assert "world_to_gate" in gatesafe.__all__ and "gate_to_world" in gatesafe.__all__


def test_star_import_binds_the_public_names_and_no_submodule():
    namespace = {}
    exec("from gatesafe import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gatesafe.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
