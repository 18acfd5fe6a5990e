"""Docs stay true: README quickstart runs, references resolve.

* the first ```python block of ``README.md`` executes **verbatim** (the
  acceptance criterion -- no doctoring, no elisions);
* every ``repro.*`` dotted name mentioned in ``README.md`` / ``DESIGN.md``
  imports (module) or resolves (attribute);
* every repo-relative file path mentioned there exists;
* every markdown link target in ``README.md`` exists;
* the ``REPRO_*`` knobs ``src/`` reads are exactly the ones README's
  Environment table documents.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md")


def _read(name: str) -> str:
    return (ROOT / name).read_text()


def test_readme_exists_and_fronts_the_repo():
    text = _read("README.md")
    assert "Elekes" in text and "DESIGN.md" in text
    for section in ("Quickstart", "Running the tests", "Benchmarks", "Environment"):
        assert section in text, f"README lost its {section} section"
    for knob in ("REPRO_STORAGE", "REPRO_SHARDS"):
        assert knob in text


def test_readme_quickstart_executes_verbatim(capsys):
    text = _read("README.md")
    match = re.search(r"```python\n(.*?)```", text, re.S)
    assert match, "README has no ```python quickstart block"
    code = match.group(1)
    assert code.count("\n") <= 12, "quickstart outgrew its ~10 lines"
    exec(compile(code, "README-quickstart", "exec"), {})
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 3  # the three print(...) reads


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_module_references_resolve(doc):
    text = _read(doc)
    names = sorted(set(re.findall(r"\brepro(?:\.[A-Za-z_][A-Za-z_0-9]*)+", text)))
    assert names, f"{doc} mentions no repro modules?"
    for name in names:
        parts = name.split(".")
        obj, consumed = None, 0
        for i in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:i]))
                consumed = i
                break
            except ImportError:
                continue
        assert obj is not None, f"{doc}: cannot import any prefix of {name}"
        for attr in parts[consumed:]:
            assert hasattr(obj, attr), f"{doc}: {name} does not resolve"
            obj = getattr(obj, attr)


@pytest.mark.parametrize("doc", DOCS)
def test_file_paths_exist(doc):
    text = _read(doc)
    paths = set(
        re.findall(r"\b(?:src|tests|benchmarks|examples)/[\w./-]+\.\w+", text)
    )
    assert paths, f"{doc} mentions no repo files?"
    for path in sorted(paths):
        assert (ROOT / path).exists(), f"{doc} references missing file {path}"


def test_readme_markdown_links_resolve():
    text = _read("README.md")
    for target in re.findall(r"\]\(([^)#]+?)\)", text):
        if "://" in target:
            continue
        assert (ROOT / target).exists(), f"README links to missing {target}"


def test_design_documents_the_analytics_layer():
    text = _read("DESIGN.md")
    assert "repro.analytics" in text
    for term in ("dirty", "incremental", "computed_version", "ComponentsMaintainer"):
        assert term in text, f"DESIGN.md analytics section lost {term!r}"


def test_environment_table_lists_exactly_the_knobs_src_reads():
    read = set()
    for path in (ROOT / "src").rglob("*.py"):
        read |= set(re.findall(r"[\"'](REPRO_[A-Z0-9_]+)[\"']", path.read_text()))
    section = _read("README.md").split("## Environment knobs", 1)[1]
    section = section.split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `REPRO_"):
            documented |= set(re.findall(r"REPRO_[A-Z0-9_]+", line.split("|")[1]))
    assert read == documented, (
        f"undocumented: {sorted(read - documented)}; "
        f"stale rows: {sorted(documented - read)}"
    )
