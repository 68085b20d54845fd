"""Public-API surface snapshot: ``__all__`` diffed against a manifest.

The committed ``public_api.txt`` is the reviewed public surface of the
project (``repro`` and ``repro.api``).  Adding or removing an export
must show up as a diff of that file in the same change -- CI fails
otherwise.  Regenerate with::

    PYTHONPATH=src python tests/api/test_public_surface.py --regen
"""

import re
from pathlib import Path

import repro
import repro.api

MANIFEST = Path(__file__).with_name("public_api.txt")


def _current_surface() -> list:
    lines = [f"repro:{name}" for name in repro.__all__]
    lines += [f"repro.api:{name}" for name in repro.api.__all__]
    return sorted(lines)


def test_surface_matches_committed_manifest():
    committed = MANIFEST.read_text(encoding="utf-8").splitlines()
    current = _current_surface()
    added = sorted(set(current) - set(committed))
    removed = sorted(set(committed) - set(current))
    assert current == committed, (
        "public API surface changed; review it and update tests/api/public_api.txt "
        f"(added: {added}, removed: {removed})"
    )


def test_every_exported_name_resolves():
    for module in (repro, repro.api):
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module.__name__}.{name}"


def test_all_lists_are_duplicate_free_and_sorted_manifest():
    assert len(set(repro.__all__)) == len(repro.__all__)
    assert len(set(repro.api.__all__)) == len(repro.api.__all__)
    committed = MANIFEST.read_text(encoding="utf-8").splitlines()
    assert committed == sorted(committed)


def test_version_matches_pyproject():
    # pyproject.toml is the canonical metadata; Python 3.10 has no tomllib.
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    match = re.search(
        r'^version\s*=\s*"([^"]+)"', pyproject.read_text(encoding="utf-8"), re.MULTILINE
    )
    assert match is not None, "no version in pyproject.toml"
    assert repro.__version__ == match.group(1)


def test_py_typed_marker_ships():
    marker = Path(repro.__file__).with_name("py.typed")
    assert marker.exists(), "src/repro/py.typed must ship in the wheel (PEP 561)"


def test_lazy_exports_cover_all():
    # Every lazily exported name must be importable through __getattr__.
    for name in repro._EXPORTS:
        assert getattr(repro, name) is not None
    assert sorted(repro.__all__) == sorted(["__version__", *repro._EXPORTS])


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        MANIFEST.write_text("\n".join(_current_surface()) + "\n", encoding="utf-8")
        print(f"wrote {MANIFEST}")
