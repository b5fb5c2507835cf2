import ast
import importlib
import inspect
import pathlib
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


# The package's modules from the bottom layer up: each may import only
# modules before it, so the Gram's owner, kernel, cannot reach lookahead.
LAYERS = ["errors", "linalg", "net", "data", "kernel", "lookahead", "acquire", "pool", "cli"]


def _relative_imports(name):
    """Package modules that module ``name`` imports with ``from . import m`` or ``from .m import x``."""
    tree = ast.parse(pathlib.Path(ntkal.__file__).with_name(f"{name}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_layers_list_every_module():
    assert sorted(info.name for info in pkgutil.iter_modules(ntkal.__path__)) == sorted(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_modules_import_only_lower_layers(name):
    below = LAYERS[: LAYERS.index(name)]
    above = sorted(set(_relative_imports(name)) - set(below))
    assert not above, f"ntkal.{name} imports {above}, which are not below it in {LAYERS}"
