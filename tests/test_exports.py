"""Every name a module exports resolves, so ``from cycquart import *`` and
``from cycquart.<module> import *`` work and no stale entry is left in an
``__all__``."""

import importlib
import pkgutil

import cycquart

MODULES = ["cycquart"] + [
    f"cycquart.{info.name}" for info in pkgutil.iter_modules(cycquart.__path__)
]


def test_every_exported_name_resolves():
    assert len(MODULES) >= 10
    for name in MODULES:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        assert len(set(exported)) == len(exported), name
        missing = [entry for entry in exported if not hasattr(module, entry)]
        assert missing == [], name


def test_star_imports_work():
    for name in MODULES:
        namespace = {}
        exec(f"from {name} import *", namespace)
        module = importlib.import_module(name)
        assert set(getattr(module, "__all__", [])) <= set(namespace), name
