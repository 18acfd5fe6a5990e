"""No undocumented telemetry: every span and metric name used in src/
must appear (backticked) in DESIGN.md's Observability catalogue."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DESIGN = ROOT / "DESIGN.md"

#: tracer span starts: tracer.span("name"...), span_if(tr, "name"...),
#: and post-hoc tracer.record("name", ...)
SPAN_RE = re.compile(
    r'(?:\.span\(|span_if\([^,]*,\s*|\w\.record\(\s*)"([a-z_]+)"'
)
#: typed metric series (the repro_* namespace is reserved for telemetry)
METRIC_RE = re.compile(r'"(repro_[a-z0-9_]+)"')
#: repro_op_latency_seconds series: the op= label value of each
#: histogram("repro_op_latency_seconds", op=...) instrument; f-string
#: families such as op=f"refresh[{tool}]" come back as refresh[<tool>]
OP_RE = re.compile(r'\bop=f?"([a-z_]+(?:\[\{[a-z_]+\}\])?)"')


def _src_names(pattern: re.Pattern) -> set[str]:
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        names.update(pattern.findall(path.read_text()))
    return names


def _catalogue() -> set[str]:
    """Backticked tokens inside DESIGN.md's Observability section."""
    text = DESIGN.read_text()
    m = re.search(r"^## Observability$(.*?)(?=^## |\Z)", text, re.S | re.M)
    assert m, "DESIGN.md has no '## Observability' section"
    section = re.sub(r"```.*?```", "", m.group(1), flags=re.S)
    return set(re.findall(r"`([^`\n]+)`", section))


class TestNoUndocumentedTelemetry:
    def test_every_span_name_documented(self):
        spans = _src_names(SPAN_RE)
        # regex sanity: the taxonomy's core spans must have been extracted
        assert {"submit", "batch", "wal", "scatter", "shard",
                "refresh", "commit", "query", "recover"} <= spans
        missing = spans - _catalogue()
        assert not missing, f"spans missing from DESIGN.md catalogue: {sorted(missing)}"

    def test_every_metric_name_documented(self):
        metrics = _src_names(METRIC_RE)
        assert {"repro_wal_bytes_total", "repro_batch_size",
                "repro_engine_staleness"} <= metrics
        missing = metrics - _catalogue()
        assert not missing, f"metrics missing from DESIGN.md catalogue: {sorted(missing)}"

    def test_every_latency_op_documented(self):
        ops = {
            re.sub(r"\{(\w+)\}", r"<\1>", op) for op in _src_names(OP_RE)
        }
        assert {"submit", "wal", "apply", "query", "snapshot",
                "refresh[<tool>]", "load[<tool>]"} <= ops
        missing = ops - _catalogue()
        assert not missing, f"ops missing from DESIGN.md catalogue: {sorted(missing)}"

    def test_parameterised_families_documented(self):
        """The two f-string latency families are documented by shape."""
        cat = _catalogue()
        assert "refresh[<tool>]" in cat
        assert "load[<tool>]" in cat
