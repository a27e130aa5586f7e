"""Traced launcher: run a `repro` command with layer spans recorded.

Usage::

    python3 e2ebench/launcher.py SPANS.json -- serve --listen 127.0.0.1:0

Before handing over to the real ``repro.cli.main``, the launcher wraps
the public entry points of each layer (listed in :data:`LAYERS`) with an
in-memory span recorder: layer name, start, end, parent span and op id,
where an op is one HTTP request handled by the daemon.  When the program
exits, the spans are written to ``SPANS.json``.  The program itself is
unchanged; only calls into it are timed, from this file.

Clock: ``time.monotonic()``, which on Linux is shared by every process
on the host, so the benchmark can cut the spans to its timed window.
Processes forked by the program (process-transport workers) inherit the
wrappers but record nothing; their compute is read from the program's
own round traces instead.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (layer, module, attribute path) of every timed entry point.  Spans of
#: ``api.request`` — the HTTP handler's do_* hooks: body read, JSON
#: parse, dispatch, response write — are the roots that open an op.
LAYERS = (
    ("api.request", "repro.service.api.server", "_Handler.do_POST"),
    ("api.request", "repro.service.api.server", "_Handler.do_GET"),
    ("api.request", "repro.service.api.server", "_Handler.do_DELETE"),
    ("api.dispatch", "repro.service.api.routes", "dispatch"),
    ("api.materialize", "repro.service.api.schemas",
     "RoundRequest.materialize"),
    ("api.submit_decode", "repro.service.api.schemas",
     "SubmitUpdateRequest.decode"),
    ("api.encode", "repro.service.api.schemas", "encode_vector"),
    ("api.encode", "repro.service.api.schemas", "encode_real_vector"),
    ("service.run_round", "repro.service.cohort", "Cohort.run_round"),
    ("service.submit", "repro.service.cohort", "Cohort.submit_update"),
    ("session.run_round", "repro.protocols.lightsecagg.session",
     "LightSecAggSession.run_round"),
    ("session.refill", "repro.protocols.lightsecagg.session",
     "LightSecAggSession.refill"),
    ("field.add", "repro.field.arithmetic", "FiniteField.add"),
    ("field.sub", "repro.field.arithmetic", "FiniteField.sub"),
    ("field.sum", "repro.field.arithmetic", "FiniteField.sum"),
    ("field.array", "repro.field.arithmetic", "FiniteField.array"),
    ("field.matmul", "repro.field.arithmetic", "FiniteField.matmul"),
    ("coding.encode_batch", "repro.coding.mask_encoding",
     "MaskEncoder.encode_batch"),
    ("coding.decode_aggregate", "repro.coding.mask_encoding",
     "MaskEncoder.decode_aggregate"),
    ("transport.run_all", "repro.service.transport",
     "ProcessPoolTransport.run_all"),
    ("transport.run_all", "repro.service.socket_transport",
     "SocketTransport.run_all"),
    ("wire.encode", "repro.wire.messages", "encode_segments"),
    ("wire.encode", "repro.wire.messages", "encode_message"),
    ("wire.decode", "repro.wire.messages", "decode_message"),
    ("asyncfl.drain", "repro.asyncfl.pooled", "BufferedShardSession.drain"),
    ("quantization.quantize", "repro.quantization.quantizer",
     "ModelQuantizer.quantize"),
    ("quantization.dequantize", "repro.quantization.quantizer",
     "ModelQuantizer.dequantize"),
)
ROOT_LAYER = "api.request"


class SpanRecorder:
    """Thread-aware span stacks; one op per root span."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list = []
        self._span_ids = itertools.count(1)
        self._op_ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, layer: str, fn):
        root = layer == ROOT_LAYER

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            stack = self._local.__dict__.setdefault("stack", [])
            if stack:
                parent, op = stack[-1]
            else:
                parent, op = 0, (next(self._op_ids) if root else 0)
            span_id = next(self._span_ids)
            stack.append((span_id, op))
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                tag = ""
                if root:
                    tag = f"{args[0].command} {args[0].path}"
                self.spans.append(
                    (span_id, parent, op, layer, start, end, tag)
                )

        return timed

    def install(self) -> None:
        """Wrap every entry point, and rebind aliases other modules hold."""
        replaced = {}
        for layer, module_name, attribute in LAYERS:
            owner = importlib.import_module(module_name)
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            wrapped = self.wrap(layer, original)
            setattr(owner, name, wrapped)
            replaced[id(original)] = (original, wrapped)
        importlib.import_module("repro.cli")
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def write(self, path: Path, program_argv) -> None:
        from repro.field import FiniteField

        payload = {
            "argv": list(program_argv),
            "pid": self.pid,
            "reducer": FiniteField().reducer.kind,
            "reducer_env": os.environ.get("REPRO_FIELD_REDUCER"),
            "spans": list(self.spans),
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, program_argv = Path(argv[0]), argv[2:]
    recorder = SpanRecorder()
    recorder.install()
    atexit.register(recorder.write, spans_path, program_argv)
    from repro.cli import main as repro_main

    return repro_main(program_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
