"""Observability layer: metrics, tracing spans, and query profiles.

The counterpart to the resilience layer's "degrade, and say so": every
evaluator can now also *say what it did*.  Three coordinated pieces, all
zero-dependency and deterministic under an injected clock:

* :class:`MetricsRegistry` -- counters, gauges, and fixed-bucket
  histograms for always-on accounting (index hits, storage bytes);
* :class:`Tracer` / :class:`Span` -- nested timed spans forming a tree
  per query, with the resilience :class:`~repro.resilience.events.
  EventLog` feeding the same stream via :meth:`Tracer.event_log`;
* :class:`QueryProfile` -- the exact-operation-count accumulator every
  evaluator entry point fills when handed one as ``profile=``, pinned
  by the golden-profile regression suite in ``tests/obs``.

See docs/OBSERVABILITY.md for the model and how to add instrumentation.
"""

from .export import metrics_to_dict, profile_to_dict, span_to_dict, to_json, write_bench
from .metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram, MetricsRegistry
from .profile import QueryProfile
from .trace import Span, Tracer

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    # tracing
    "Span",
    "Tracer",
    # profiles
    "QueryProfile",
    # export
    "profile_to_dict",
    "span_to_dict",
    "metrics_to_dict",
    "to_json",
    "write_bench",
]
