"""Run one ``repro-ser`` command with spans around the flow's entry points.

Usage::

    python3 serbench/tracer.py SPANS.json ROLE REPRO-ARGS...

``ROLE`` is ``client`` for ``repro-ser query`` processes (only
``ServiceClient.query`` is timed, so the client imports nothing more
than it would untraced) or ``flow`` for ``sweep`` and ``serve``.  The
program itself is unchanged: the public entry points are wrapped from
here, spans are kept in memory, and ``SPANS.json`` is written once the
command returns.  Times are ``time.monotonic()`` (one clock for every
process on the host) plus ``time.time()`` to line spans up with the
program's event stream.
"""

import time

T_ENTER = time.monotonic()

import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def _map_attrs(args, kwargs, result):
    tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
    return {"label": kwargs.get("label", "map"), "tasks": len(tasks)}


def _size(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _load_attrs(args, kwargs, result):
    return {"bytes": _size(args[0] if args else kwargs["path"])}


def _store_attrs(args, kwargs, result):
    return {"bytes": _size(args[1] if len(args) > 1 else kwargs["path"])}


def _query_attrs(args, kwargs, result):
    return {"source": (result or {}).get("source")}


#: (module, attribute, layer, attrs) of every timed entry point, by role.
ENTRY_POINTS = {
    "flow": [
        ("repro.core.flow", "SerFlow.yield_luts", "transport", None),
        ("repro.core.flow", "SerFlow.pof_table", "sram", None),
        ("repro.core.flow", "SerFlow.simulator", "ser.build", None),
        ("repro.core.flow", "SerFlow.sweep", "ser.mc", None),
        ("repro.ser.fit", "integrate_fit", "ser.fit", None),
        ("repro.parallel.engine", "parallel_map", "parallel", _map_attrs),
        ("repro.io.lutio", "load_artifact", "io.load", _load_attrs),
        ("repro.io.lutio", "save_artifact", "io.store", _store_attrs),
    ],
    "client": [
        ("repro.service.client", "ServiceClient.query", "service", _query_attrs),
    ],
}


class Recorder:
    """Spans in memory; a per-thread stack gives each span its parent."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def add(self, layer, t0, t1, **attrs):
        self.spans.append(
            {"id": next(self._ids), "parent": None, "layer": layer, "t0": t0, "t1": t1, **attrs}
        )

    def wrap(self, fn, layer, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            t0, w0 = time.monotonic(), time.time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1, w1 = time.monotonic(), time.time()
                stack.pop()
                record = {
                    "id": span_id, "parent": parent, "layer": layer,
                    "t0": t0, "t1": t1, "w0": w0, "w1": w1,
                }
                if attrs is not None:
                    record.update(attrs(args, kwargs, result))
                self.spans.append(record)

        return traced


def _rebind(original, replacement):
    """Point every loaded ``repro`` module's name for ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(recorder, role):
    for module_name, qualname, layer, attrs in ENTRY_POINTS[role]:
        owner = sys.modules[module_name]
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        wrapped = recorder.wrap(original, layer, attrs)
        if isinstance(owner, type):
            setattr(owner, parts[-1], wrapped)
        else:
            _rebind(original, wrapped)


def main(argv):
    out_path, role, command = argv[0], argv[1], argv[2:]
    recorder = Recorder()
    t0 = time.monotonic()
    import repro.cli

    if role == "flow":
        import repro.core.flow  # noqa: F401  (what sweep and serve import anyway)
        import repro.service  # noqa: F401
    recorder.add("import.repro", t0, time.monotonic())
    if role == "client":
        t0 = time.monotonic()
        import repro.service.client  # noqa: F401

        recorder.add("import.client", t0, time.monotonic())
    instrument(recorder, role)
    t_main0 = time.monotonic()
    rc = 1
    try:
        rc = repro.cli.main(command)
    finally:
        record = {
            "pid": os.getpid(),
            "t_enter": T_ENTER,
            "t_main0": t_main0,
            "t_main1": time.monotonic(),
            "spans": recorder.spans,
        }
        with open(out_path, "w") as handle:
            json.dump(record, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
