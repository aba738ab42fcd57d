"""Every annotation in the package resolves.

The modules use ``from __future__ import annotations``, so an annotation
naming a type that was never imported only fails when something asks for
the hints (``typing.get_type_hints``, dataclass introspection, documentation
tools).  This test asks for all of them: every function, method, property
and class defined in every ``repro`` module.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue  # importing it runs the CLI
        yield importlib.import_module(info.name)


def _annotated(module):
    """``(qualified name, object)`` for each function and class of ``module``."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{module.__name__}.{name}.{attr}", member


def test_every_annotation_in_the_package_resolves():
    unresolved = []
    checked = 0
    for module in _modules():
        for name, obj in _annotated(module):
            checked += 1
            try:
                typing.get_type_hints(obj)
            except Exception as exc:  # noqa: BLE001 - report every failure
                unresolved.append(f"{name}: {type(exc).__name__}: {exc}")
    assert checked > 500
    assert not unresolved, "\n".join(unresolved)
