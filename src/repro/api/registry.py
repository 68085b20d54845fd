"""Generic name-based registry used by the ``repro.api`` surface.

One :class:`Registry` instance backs each extension point of the public
API -- alignment engines, kernel factories and kernel suites.  The class
is deliberately tiny: string keys, decorator-or-direct registration,
duplicate-name protection, and error messages that list what *is*
available (the same convention :func:`repro.workloads.resolve_spec`
follows for dataset and workload names).
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, Iterator, Optional, Tuple, TypeVar

__all__ = ["Registry", "RegistryError"]

T = TypeVar("T")


class RegistryError(ValueError):
    """Invalid registration (duplicate or malformed name)."""


class Registry(Generic[T]):
    """A string-keyed, insertion-ordered registry of named objects.

    Registration accepts either the decorator form::

        @ENGINES.register("vector")
        def vector_engine(tasks, *, batch_size=64): ...

    or the direct form::

        ENGINES.register("vector", vector_engine)

    Registering a name twice raises :class:`RegistryError` unless
    ``replace=True`` is passed (tests and notebooks use ``replace`` /
    :meth:`unregister` to install temporary entries).

    Examples
    --------
    A registry is self-contained, so the whole lifecycle fits here:

    >>> reg = Registry("engine")
    >>> reg.register("fast", "a-backend")
    'a-backend'
    >>> "fast" in reg, reg.names()
    (True, ('fast',))
    >>> reg.register("fast", "another")
    Traceback (most recent call last):
        ...
    repro.api.registry.RegistryError: engine 'fast' is already registered; pass replace=True to override it
    >>> reg.get("nope")
    Traceback (most recent call last):
        ...
    KeyError: "unknown engine 'nope'; available: ['fast']"
    >>> reg.unregister("fast")
    'a-backend'
    >>> len(reg)
    0
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: Dict[str, T] = {}
        self._meta: Dict[str, Dict[str, object]] = {}

    @property
    def kind(self) -> str:
        """What the registry holds (``"engine"``, ``"kernel"``, ...)."""
        return self._kind

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        obj: Optional[T] = None,
        *,
        replace: bool = False,
        meta: Optional[Dict[str, object]] = None,
    ) -> Callable[[T], T] | T:
        """Register ``obj`` under ``name``; decorator form when ``obj`` is omitted.

        ``meta`` attaches an optional capability mapping to the entry
        (queried through :meth:`meta`); re-registering without ``meta``
        clears any previous mapping, so a ``replace=True`` override never
        inherits capabilities it did not declare.
        """
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"{self._kind} names must be non-empty strings (got {name!r})"
            )

        def _add(value: T) -> T:
            if not replace and name in self._entries:
                raise RegistryError(
                    f"{self._kind} {name!r} is already registered; "
                    f"pass replace=True to override it"
                )
            self._entries[name] = value
            if meta is None:
                self._meta.pop(name, None)
            else:
                self._meta[name] = dict(meta)
            return value

        if obj is None:
            return _add
        return _add(obj)

    def unregister(self, name: str) -> T:
        """Remove and return one entry (KeyError when absent)."""
        try:
            entry = self._entries.pop(name)
        except KeyError:
            raise KeyError(
                f"unknown {self._kind} {name!r}; available: {list(self._entries)}"
            ) from None
        self._meta.pop(name, None)
        return entry

    def meta(self, name: str) -> Dict[str, object]:
        """The capability mapping registered for ``name`` (may be empty).

        Raises the same name-listing KeyError as :meth:`get` for unknown
        names, so callers can probe capabilities without a prior lookup.
        """
        if name not in self._entries:
            raise KeyError(
                f"unknown {self._kind} {name!r}; available: {list(self._entries)}"
            )
        return dict(self._meta.get(name, {}))

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> T:
        """Resolve a name, with an error that lists the registered names."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown {self._kind} {name!r}; available: {list(self._entries)}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        """Registered names in registration order."""
        return tuple(self._entries)

    # ------------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Registry(kind={self._kind!r}, names={list(self._entries)})"
