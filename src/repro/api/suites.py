"""Kernel and suite registries: the single source of figure-grid cells.

The harness, the session façade and the sharded bench workers all
resolve a figure's kernel line-up through the registries defined here:

* :data:`KERNELS` maps a kernel name to its factory (the kernel class);
* :data:`SUITES` maps a suite name to a :class:`SuiteSpec`, an ordered
  list of ``(label, kernel name, constructor options)`` entries.

A suite spec is picklable *by name*: workers rebuild the kernels inside
the process from the suite name and a :class:`KernelConfig`, exactly as
before.  Each spec records the module that registered it (``origin``),
so spawn-started bench workers can import that plugin module and rebuild
a custom suite too; only suites registered directly in ``__main__``
cannot shard (the runner rejects them eagerly under spawn).  Registering
a new kernel and a suite that references it makes the kernel appear in
``python -m repro.bench --suites``, in :meth:`repro.api.Session.compare`
and in figure records without touching any other layer::

    register_kernel("MyKernel", MyKernel)
    register_suite("mine", [SuiteEntry.make("MyKernel", "MyKernel")])
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.kernels import (
    AgathaKernel,
    BaselineExactKernel,
    Gasal2Kernel,
    GuidedKernel,
    KernelConfig,
    LoganKernel,
    ManymapKernel,
    SALoBaKernel,
)
from repro.api.registry import Registry

__all__ = [
    "KernelFactory",
    "KERNELS",
    "register_kernel",
    "get_kernel",
    "kernel_names",
    "SuiteEntry",
    "SuiteSpec",
    "SUITES",
    "register_suite",
    "get_suite",
    "suite_names",
    "build_suite",
    "ABLATION_LADDER",
]

#: Signature of a kernel factory: ``(config, **options) -> GuidedKernel``.
KernelFactory = Callable[..., GuidedKernel]

#: The kernel registry.  Keys are the paper's kernel names.
KERNELS: Registry[KernelFactory] = Registry("kernel")

#: The suite registry.  Keys are the suite names the bench CLI accepts.
SUITES: Registry["SuiteSpec"] = Registry("suite")


def register_kernel(
    name: str,
    factory: Optional[KernelFactory] = None,
    *,
    replace: bool = False,
) -> Callable[[KernelFactory], KernelFactory] | KernelFactory:
    """Register a kernel factory (decorator or direct form)."""
    return KERNELS.register(name, factory, replace=replace)


def get_kernel(name: str) -> KernelFactory:
    """Resolve a kernel factory by name."""
    return KERNELS.get(name)


def kernel_names() -> Tuple[str, ...]:
    """Registered kernel names in registration order."""
    return KERNELS.names()


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SuiteEntry:
    """One suite cell: a display label, a kernel name and its options.

    ``options`` is stored as a tuple of ``(key, value)`` pairs so the
    entry stays hashable; use :meth:`make` to build one from keyword
    arguments.
    """

    label: str
    kernel: str
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, label: str, kernel: str, **options: Any) -> "SuiteEntry":
        return cls(label=label, kernel=kernel, options=tuple(options.items()))

    def build(self, config: Optional[KernelConfig] = None) -> GuidedKernel:
        """Construct this entry's kernel from the registry."""
        return get_kernel(self.kernel)(config, **dict(self.options))


@dataclass(frozen=True)
class SuiteSpec:
    """A named, ordered kernel line-up (one row group of a figure).

    ``origin`` records the module that registered the suite; the bench
    runner uses it to fail fast when a ``__main__``-registered suite
    would not be importable inside spawn-started worker processes.
    """

    name: str
    entries: Tuple[SuiteEntry, ...]
    description: str = ""
    origin: str = ""

    @property
    def labels(self) -> Tuple[str, ...]:
        """Display labels in suite order (the keys of :meth:`build`)."""
        return tuple(entry.label for entry in self.entries)

    def build(self, config: Optional[KernelConfig] = None) -> Dict[str, GuidedKernel]:
        """Construct the suite's kernels (fresh instances every call)."""
        return {entry.label: entry.build(config) for entry in self.entries}


#: Accepted ``entries`` item shapes for :func:`register_suite`.
SuiteEntryLike = Union[SuiteEntry, Tuple[str, str], Tuple[str, str, Mapping[str, Any]]]


def _coerce_entry(entry: SuiteEntryLike) -> SuiteEntry:
    if isinstance(entry, SuiteEntry):
        return entry
    label, kernel, *rest = entry
    options: Mapping[str, Any] = rest[0] if rest else {}
    return SuiteEntry(label=label, kernel=kernel, options=tuple(options.items()))


def register_suite(
    name: str,
    entries: Iterable[SuiteEntryLike],
    *,
    description: str = "",
    replace: bool = False,
) -> SuiteSpec:
    """Register a kernel suite and return its spec.

    ``entries`` items are :class:`SuiteEntry` objects or
    ``(label, kernel_name[, options])`` tuples.  Every referenced kernel
    must already be registered.
    """
    caller = sys._getframe(1).f_globals.get("__name__", "")
    spec = SuiteSpec(
        name=name,
        entries=tuple(_coerce_entry(entry) for entry in entries),
        description=description,
        origin=caller,
    )
    for entry in spec.entries:
        if entry.kernel not in KERNELS:
            raise KeyError(
                f"suite {name!r} references unknown kernel {entry.kernel!r}; "
                f"available: {list(KERNELS)}"
            )
    SUITES.register(name, spec, replace=replace)
    return spec


def get_suite(name: str) -> SuiteSpec:
    """Resolve a suite spec by name."""
    return SUITES.get(name)


def suite_names() -> Tuple[str, ...]:
    """Registered suite names in registration order."""
    return SUITES.names()


def build_suite(
    suite: str, config: Optional[KernelConfig] = None
) -> Dict[str, GuidedKernel]:
    """Construct the kernels of one named suite.

    The single construction path shared by the experiment harness, the
    sharded bench workers and :class:`repro.api.Session`.
    """
    return get_suite(suite).build(config)


# ----------------------------------------------------------------------
# built-in kernels and suites
# ----------------------------------------------------------------------
register_kernel("GASAL2", Gasal2Kernel)
register_kernel("SALoBa", SALoBaKernel)
register_kernel("BaselineExact", BaselineExactKernel)
register_kernel("Manymap", ManymapKernel)
register_kernel("LOGAN", LoganKernel)
register_kernel("AGAThA", AgathaKernel)


#: AGAThA's ablation ladder (Figure 9): each step enables one more scheme.
ABLATION_LADDER: Tuple[Tuple[str, Dict[str, bool]], ...] = (
    ("Baseline", dict(rolling_window=False, sliced_diagonal=False,
                      subwarp_rejoining=False, uneven_bucketing=False)),
    ("(+) RW", dict(rolling_window=True, sliced_diagonal=False,
                    subwarp_rejoining=False, uneven_bucketing=False)),
    ("(+) SD", dict(rolling_window=True, sliced_diagonal=True,
                    subwarp_rejoining=False, uneven_bucketing=False)),
    ("(+) SR", dict(rolling_window=True, sliced_diagonal=True,
                    subwarp_rejoining=True, uneven_bucketing=False)),
    ("(+) UB", dict(rolling_window=True, sliced_diagonal=True,
                    subwarp_rejoining=True, uneven_bucketing=True)),
)


register_suite(
    "mm2",
    [
        SuiteEntry.make("GASAL2", "GASAL2", target="mm2"),
        SuiteEntry.make("SALoBa", "SALoBa", target="mm2"),
        SuiteEntry.make("Manymap", "Manymap", target="mm2"),
        SuiteEntry.make("AGAThA", "AGAThA"),
    ],
    description="Figure 8, MM2-Target: every kernel guided exactly like Minimap2",
)

register_suite(
    "diff",
    [
        SuiteEntry.make("GASAL2", "GASAL2", target="diff"),
        SuiteEntry.make("SALoBa", "SALoBa", target="diff"),
        SuiteEntry.make("Manymap", "Manymap", target="diff"),
        SuiteEntry.make("LOGAN", "LOGAN"),
    ],
    description="Figure 8, Diff-Target: every kernel under its original heuristics",
)

register_suite(
    "ablation",
    [SuiteEntry.make(label, "AGAThA", **flags) for label, flags in ABLATION_LADDER],
    description="Figure 9: AGAThA's schemes enabled one at a time",
)
