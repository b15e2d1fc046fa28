"""Spans around the program's public callables, recorded from outside.

A :class:`Recorder` keeps spans in memory (name, start, end, thread, key,
extra) and writes them as JSON lines when asked. ``key`` is the wire nonce of
the request a span belongs to, where there is one. Times are
``time.perf_counter`` seconds, which on Linux is CLOCK_MONOTONIC and so
comparable between the benchmark process and the server process.

The ``install_*`` functions replace module attributes and methods of ``wuw``
with timed wrappers. The program itself is not changed: the wrappers call
the original callables and return their results.
"""

from __future__ import annotations

import json
import struct
import threading
import time
from pathlib import Path

_NONCE = struct.Struct("<Q")
_NONCE_OFFSET = 8 + 3  # frame header, then version, config_id, flags


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()

    @property
    def key(self):
        return getattr(self._local, "key", None)

    @key.setter
    def key(self, value):
        self._local.key = value

    def add(self, name, t0, t1, key=None, extra=None):
        self.spans.append((name, t0, t1, threading.get_ident(), key, extra))

    def wrap(self, name, fn, extra_of=None):
        """Time every call of ``fn`` as a span called ``name``.

        ``extra_of(args, result)`` may add one JSON-able value to the span.
        """
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            extra = extra_of(args, result) if extra_of is not None else None
            self.add(name, t0, t1, self.key, extra)
            return result

        timed.__wrapped__ = fn
        return timed

    def clear(self):
        self.spans.clear()

    def dump(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for name, t0, t1, tid, key, extra in self.spans:
                out.write(json.dumps({"name": name, "t0": t0, "t1": t1,
                                      "thread": tid, "key": key, "extra": extra}))
                out.write("\n")


def load_spans(path) -> list[tuple]:
    spans = []
    with Path(path).open(encoding="utf-8") as src:
        for line in src:
            s = json.loads(line)
            spans.append((s["name"], s["t0"], s["t1"], s["thread"], s["key"], s["extra"]))
    return spans


def _scorer_factory(rec: Recorder, make_scorer, extra_of=None):
    """``make_scorer`` whose Scorers time ``fn`` as ``nnet.forward.<id>``."""
    from wuw.nnet import Scorer

    def make(ws, member_id=None):
        s = make_scorer(ws, member_id)
        fn = rec.wrap("nnet.forward." + s.member_id, s.fn, extra_of)
        return Scorer(s.member_id, s.config_id, fn)

    return make


def install_server(rec: Recorder) -> None:
    """Wrap what ``wuw serve`` runs: member forwards (through ``make_scorer``),
    request decode, fusion, response encode and ``handle_frame``, whose
    spans are keyed by the nonce read from the frame."""
    from wuw import nnet, wire

    nnet.make_scorer = _scorer_factory(rec, nnet.make_scorer)
    wire.decode_request = rec.wrap("wire.decode_request", wire.decode_request)
    wire.encode_response = rec.wrap("wire.encode_response", wire.encode_response)
    wire.fuse = rec.wrap("fusion.fuse", wire.fuse)
    handle_frame = wire.VerificationServer.handle_frame

    def timed_handle(self, frame):
        try:
            rec.key = _NONCE.unpack_from(frame, _NONCE_OFFSET)[0]
        except struct.error:
            rec.key = None
        t0 = time.perf_counter()
        try:
            return handle_frame(self, frame)
        finally:
            rec.add("wire.handle_frame", t0, time.perf_counter(), rec.key)
            rec.key = None

    wire.VerificationServer.handle_frame = timed_handle


def install_client(rec: Recorder) -> None:
    """Wrap what the benchmark process runs: MFCC as bound in ``wire`` and
    ``evaluation``, and in ``features`` for the benchmark's own calls (the
    span's extra is the config id), scorers built by
    ``make_scorer`` (extra: the pair's log-odds), request encode, response
    decode, fusion and the evaluation helpers."""
    from wuw import evaluation, features, fusion, nnet, wire

    def config_of(args, _):
        return args[1].config_id

    def odds_of(_, pair):
        return fusion.log_odds(*nnet.softmax2(pair))

    nnet.make_scorer = _scorer_factory(rec, nnet.make_scorer, odds_of)
    for module in (features, wire, evaluation):
        module.mfcc = rec.wrap("features.mfcc", module.mfcc, config_of)
    wire.encode_request = rec.wrap("wire.encode_request", wire.encode_request)
    wire.decode_response = rec.wrap("wire.decode_response", wire.decode_response)
    evaluation.fuse = rec.wrap("fusion.fuse", evaluation.fuse)
    evaluation.extract_window = rec.wrap("evaluation.extract_window",
                                         evaluation.extract_window)
    evaluation.mix_at_snr = rec.wrap("evaluation.mix_at_snr", evaluation.mix_at_snr)
    evaluation.read_wav = rec.wrap("evaluation.read_wav", evaluation.read_wav,
                                   lambda args, _: str(args[0]))
