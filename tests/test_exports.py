import importlib
import inspect
import pkgutil

import pytest

import ntkal

MODULES = [
    module
    for module in [ntkal]
    + [
        importlib.import_module(f"ntkal.{info.name}")
        for info in pkgutil.iter_modules(ntkal.__path__)
    ]
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_are_defined_in_their_module(module):
    # Tools that walk __all__ (such as span tracers) skip stale entries
    # silently, so each listed name must exist and belong to the module.
    for name in module.__all__:
        assert name in vars(module), f"{module.__name__}.__all__ lists missing {name!r}"
        obj = vars(module)[name]
        if inspect.ismodule(obj):
            assert obj.__name__ == f"{module.__name__}.{name}"
        elif inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, (
                f"{module.__name__}.{name} is defined in {obj.__module__}"
            )
