"""SER-as-a-service: one engine API, two front-ends.

* :mod:`repro.service.protocol` — the query schema
  (:class:`QuerySpec`) and its canonicalization onto artifact-cache
  keys, plus the NDJSON wire format.
* :mod:`repro.service.engine` — :func:`build_flow` / :func:`run_query`
  (the orchestration core the CLI now drives) and
  :class:`CampaignEngine` (single-flight coalescing, memoization,
  admission control, per-tenant fair scheduling).
* :mod:`repro.service.daemon` — the asyncio socket server behind
  ``repro-ser serve``.
* :mod:`repro.service.client` — the blocking client behind
  ``repro-ser query``.

Names are imported on first access (PEP 562): a ``repro-ser query``
client loads the protocol and the client, never the engine or the
flow stack behind it.
"""

import importlib

#: Public name -> the module that defines it.
_EXPORTS = {
    "ServiceClient": ".client",
    "ServiceDaemon": ".daemon",
    "AdmissionError": ".engine",
    "CampaignEngine": ".engine",
    "ExecutionOptions": ".engine",
    "build_flow": ".engine",
    "get_service_ledger": ".engine",
    "reset_service_ledger": ".engine",
    "run_query": ".engine",
    "QueryError": ".protocol",
    "QuerySpec": ".protocol",
    "ServiceError": "..errors",
}


def __getattr__(name):
    path = _EXPORTS.get(name)
    if path is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(path, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AdmissionError",
    "CampaignEngine",
    "ExecutionOptions",
    "QueryError",
    "QuerySpec",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "build_flow",
    "get_service_ledger",
    "reset_service_ledger",
    "run_query",
]
