"""JSON export of profiles, metrics, and span trees.

One stable serialization for everything the observability layer records,
used three ways:

* the ``profile`` / ``stats --json`` CLI subcommands print it;
* the benchmarks write ``BENCH_<name>.json`` files via :func:`write_bench`
  so every recorded timing carries the operation counts that explain it;
* the golden-profile regression suite diffs it (CI uploads the golden
  file as an artifact, so two PRs' profiles can be compared directly).

Everything here is plain :mod:`json` over plain dicts -- the exporter adds
no information, only a canonical layout (sorted keys, stable field order)
so diffs are meaningful.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ..core.labels import Label

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .metrics import MetricsRegistry
    from .profile import QueryProfile
    from .trace import Span

__all__ = [
    "profile_to_dict",
    "span_to_dict",
    "metrics_to_dict",
    "to_json",
    "write_bench",
]


def profile_to_dict(profile: "QueryProfile") -> dict[str, object]:
    """The canonical dict form of a profile (same as ``as_dict``)."""
    return profile.as_dict()


def span_to_dict(span: "Span") -> dict[str, object]:
    """A span tree as nested dicts: interval, attributes, events, children."""
    return {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "attributes": {k: _jsonable(v) for k, v in sorted(span.attributes.items())},
        "events": [
            {"kind": e.kind, "at": e.at, **{k: _jsonable(v) for k, v in e.fields.items()}}
            for e in span.events
        ],
        "children": [span_to_dict(child) for child in span.children],
    }


def metrics_to_dict(registry: "MetricsRegistry") -> dict[str, object]:
    """A registry snapshot (delegates to ``MetricsRegistry.as_dict``)."""
    return registry.as_dict()


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _labels_as_text(value: object) -> object:
    """``value`` with each :class:`Label` in it as its repr: a label is a
    tuple, which :mod:`json` writes as a list without asking ``default``."""
    if isinstance(value, Label):
        return repr(value)
    if isinstance(value, dict):
        return {k: _labels_as_text(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_labels_as_text(v) for v in value]
    return value


def to_json(payload: Mapping[str, object], indent: int = 2) -> str:
    """Canonical JSON text: sorted keys, stable indentation."""
    return json.dumps(_labels_as_text(payload), indent=indent, sort_keys=True, default=_jsonable)


def write_bench(name: str, payload: Mapping[str, object], directory: "str | Path") -> Path:
    """Write one benchmark's record as ``<directory>/BENCH_<name>.json``.

    The payload convention the benchmarks use is ``{"timings": {...},
    "profiles": {label: profile dict}}`` -- wall times next to the
    operation counts that explain them.  Returns the written path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{name}.json"
    path.write_text(to_json(payload) + "\n", encoding="utf-8")
    return path
