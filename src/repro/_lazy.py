"""Module attributes that import their defining module on first access.

``repro``, ``repro.api`` and ``repro.service`` re-export names from
modules that a cold process may never run: the network front-end and
its client, the retry supervisor, the session layer.  Importing those
eagerly would put their cost (and that of ``http.client``, ``ssl`` and
``http.server``) in front of every engine call.  :func:`lazy_exports`
builds the PEP 562 hooks that defer each such import to the first
attribute access and then cache the value in the module namespace, so
``getattr``, ``dir()``, ``from module import *`` and identity
(``repro.api.X is repro.service.X``) behave as with an eager import.
"""

from __future__ import annotations

from importlib import import_module


def lazy_exports(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a module.

    *namespace* is the module's ``globals()``; *exports* maps a module,
    relative to the module's ``__package__`` (``".service"``,
    ``".jobs"``), to the names it defines that load on first access.
    Usage::

        __getattr__, __dir__ = lazy_exports(globals(), {...})
    """
    anchor = namespace["__package__"]
    module_name = namespace["__name__"]
    source_of = {name: source for source, names in exports.items()
                 for name in names}

    def __getattr__(name: str):
        try:
            source = source_of[name]
        except KeyError:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}") from None
        value = getattr(import_module(source, anchor), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source_of))

    return __getattr__, __dir__
