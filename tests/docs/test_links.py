"""Markdown link and API-name checks over README, DESIGN and docs/.

Every local link target in the prose documentation must exist in the
checkout, so renaming or moving a file cannot silently orphan the docs.
External URLs and GitHub-relative links (like the CI badge, whose target
lives outside the repository tree) are out of scope; fenced code blocks
are skipped because mermaid/bash snippets use bracket syntax of their
own.

Likewise every backticked, fully qualified ``repro.…`` name in the prose
of README, DESIGN and docs/ must resolve by import plus ``getattr``, so
deleting or renaming an API cannot leave the docs naming it.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The prose documents the docs CI job guards.
DOC_FILES = sorted(
    [
        REPO_ROOT / "README.md",
        REPO_ROOT / "DESIGN.md",
        REPO_ROOT / "PAPER.md",
        REPO_ROOT / "ROADMAP.md",
        REPO_ROOT / "CHANGES.md",
        *(REPO_ROOT / "docs").glob("**/*.md"),
    ]
)

#: The documents that describe the current API (ROADMAP, CHANGES and
#: PAPER are history or reference and are not checked for names).
API_DOC_FILES = sorted(
    [
        REPO_ROOT / "README.md",
        REPO_ROOT / "DESIGN.md",
        *(REPO_ROOT / "docs").glob("**/*.md"),
    ]
)

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_CODE_SPAN = re.compile(r"`([^`]+)`")
_QUALIFIED_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
#: DESIGN.md's deprecation policy lists retired APIs on purpose.
_DEPRECATION_SECTION = re.compile(
    r"^### Deprecation policy\n.*?(?=^#{1,3} )", re.DOTALL | re.MULTILINE
)


def _local_links(markdown: str):
    """Link targets pointing at files in the checkout."""
    prose = _FENCE.sub("", markdown)
    for target in _LINK.findall(prose):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target


def test_doc_file_list_is_nonempty():
    assert any(f.name == "ENGINES.md" for f in DOC_FILES)
    assert any(f.name == "BENCHMARKS.md" for f in DOC_FILES)


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_local_markdown_links_resolve(doc):
    assert doc.exists(), f"documentation file vanished: {doc}"
    for target in _local_links(doc.read_text(encoding="utf-8")):
        path = (doc.parent / target.split("#", 1)[0]).resolve()
        try:
            path.relative_to(REPO_ROOT)
        except ValueError:
            # GitHub-relative targets (e.g. the ../../actions CI badge)
            # point outside the checkout; nothing to verify on disk.
            continue
        assert path.exists(), f"{doc.name}: broken local link -> {target}"


def test_readme_links_the_docs_guides():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/ENGINES.md" in readme
    assert "docs/BENCHMARKS.md" in readme


def test_design_links_the_docs_guides():
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert "docs/ENGINES.md" in design
    assert "docs/BENCHMARKS.md" in design


def _qualified_names(markdown: str):
    """Fully qualified ``repro.…`` names inside the prose's code spans."""
    prose = _DEPRECATION_SECTION.sub("", _FENCE.sub("", markdown))
    for span in _CODE_SPAN.findall(prose):
        yield from _QUALIFIED_NAME.findall(span)


def _resolves(name: str) -> bool:
    """Whether a dotted name resolves by import plus ``getattr``."""
    parts = name.split(".")
    obj = importlib.import_module(parts[0])
    for depth, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:depth]))
        except ModuleNotFoundError:
            return False
    return True


@pytest.mark.parametrize(
    "doc", API_DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_backticked_repro_names_resolve(doc):
    names = set(_qualified_names(doc.read_text(encoding="utf-8")))
    unresolved = sorted(name for name in names if not _resolves(name))
    assert unresolved == [], f"{doc.name} names APIs that do not exist: {unresolved}"


def test_name_check_sees_the_api_docs():
    names = set(_qualified_names((REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")))
    assert "repro.bench.cache.workload_tasks" in names
    # Retired names in the deprecation policy are exempt.
    assert "repro.bench.runner.SUITES" not in names
    assert not _resolves("repro.bench.runner.SUITES")
