"""Two-phase detection fabric: streaming device agent, verification server,
and the feature-transport protocol between them.

Every frame is ``b"WUWP"`` + u32 little-endian body length + body; each end
reads a frame under the largest body it can receive (``read_frame``). A
connection carries one request frame and its response, and then closes.
Request body: u8 version (``PROTOCOL_VERSION``, the only one decoded), u8
config_id, u8 flags (bit 0 = obfuscated payload, the only bit defined), u64
nonce, f32 device log-odds, u16 n_frames, u16 n_coeffs, then the feature
floats row-major. Response body: u8 verdict (0 reject, 1 accept, 2 error),
f32 fused p_pos, u16 member count, member log-odds floats. Only feature
matrices cross the wire; the schema has no field for raw audio.

Precision contract: every number on the wire is float32 (request features
and device log-odds; response p_pos and member log-odds), as are the weight
files. So the server's stacked members compute in float32 as well, and only
the log-odds clamp and the fusion MLP run in float64; every other caller
(the offline loops, the device agent) keeps a float64 core. Against that
float64 core plus ``fuse``, a response's p_pos differs by at most 1e-6 and
its verdict is the same wherever the float64 p_pos lies more than 1e-6 from
theta_cloud. Its member log-odds differ by at most 1e-6 for 2x128 GRU
members and 1e-5 for a trained linear cloud member, whose log-odds are one
float32 sum of 5,920 products. Measured: GRU log-odds within 3.3e-7 and p_pos
within 7.2e-8 (three 2x128 members, 200 synthetic windows, 3 seeds); linear
log-odds within 1.5e-6 and p_pos within 2e-7. The tests hold both bounds.

Obfuscation belongs to the codec and follows the endpoint's key: the sender
sets bit 0 exactly when it has a key (``encode_request(req, key)``), and a
receiver refuses a frame whose bit disagrees with its own key
(``decode_request(frame, key)``). So a keyed server answers a plain frame,
and an unkeyed one a flagged frame, with ERROR, and runs no member. The
obfuscation is a keyed XOR keystream, not cryptography; use a real
transport-security layer in production.
"""

from __future__ import annotations

import contextlib
import logging
import math
import socket
import socketserver
import struct
import threading
import time
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .audio import CANONICAL_RATE_HZ, WINDOW_S, AudioClip
from .errors import DataError, ModelError, ProtocolError
from .features import CLOUD, DEVICE, FeatureConfig, FeatureMatrix, frame_count, mfcc
from .fusion import DEVICE_MEMBER_ID, Ensemble, FusionModel, LogOddsVector, fuse, log_odds
from .nnet import Scorer, softmax2

_log = logging.getLogger(__name__)

PROTOCOL_MAGIC = b"WUWP"
PROTOCOL_VERSION = 1
FLAG_OBFUSCATED = 0x01

_REQ_FIXED = struct.Struct("<BBBQfHH")
_RESP_FIXED = struct.Struct("<BfH")
# The device's read bound: the largest response body, a u16 count of f32s.
_MAX_RESPONSE_BODY = _RESP_FIXED.size + 4 * 0xFFFF

# The device agent scores a WINDOW_S window every this many device hops.
_STRIDE_HOPS = 2

# Seconds ``read_frame`` waits for a frame's first byte, and then for the
# rest of it from that byte, at either end: a half-sent or trickled frame
# holds its reader no longer. It also bounds each connect and write.
READ_TIMEOUT_S = 10.0

# Default seconds after a device trigger in which the agent fires no other,
# for ``DeviceAgent`` and ``wuw detect``: on keywords 3 s apart it fired
# twice per keyword at 1 s, once at 1.5 and 2 s.
REFRACTORY_S = 2.0

# Connections the verification server handles at once, one thread each. A
# connection beyond them is answered with one ERROR frame and closed.
MAX_CONNECTIONS = 64


class Verdict(IntEnum):
    REJECT = 0
    ACCEPT = 1
    ERROR = 2


@dataclass(eq=False)
class VerifyRequest:
    """Device trigger shipped for verification: score plus cloud features."""

    config_id: int
    device_log_odds: float
    features: np.ndarray
    nonce: int = 0
    flags: int = 0

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        if self.features.ndim != 2:
            raise ProtocolError("request features must be 2-D")
        # f32 on the wire; keep the in-memory value identical.
        self.device_log_odds = float(np.float32(self.device_log_odds))

    @property
    def n_frames(self) -> int:
        return self.features.shape[0]

    @property
    def n_coeffs(self) -> int:
        return self.features.shape[1]


@dataclass(eq=False)
class VerifyResponse:
    """Fused verdict sent back to the device."""

    verdict: Verdict
    fused_p_pos: float
    member_log_odds: np.ndarray

    def __post_init__(self):
        self.verdict = Verdict(self.verdict)
        self.fused_p_pos = float(np.float32(self.fused_p_pos))
        self.member_log_odds = np.ascontiguousarray(
            self.member_log_odds, dtype=np.float32
        )
        if self.member_log_odds.ndim != 1:
            raise ProtocolError("member log-odds must be a flat vector")


@dataclass(frozen=True)
class DetectionEvent:
    """A device trigger: where it fired, how strongly, and the threshold."""

    window_start_sample: int
    device_log_odds: float
    threshold: float


# -- Obfuscation -----------------------------------------------------------

_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB


def _keystream(seed: int, nbytes: int) -> bytes:
    """splitmix64 keystream: output i is mix(seed + (i+1) * gamma)."""
    n_words = -(-nbytes // 8)
    with np.errstate(over="ignore"):
        idx = np.arange(1, n_words + 1, dtype=np.uint64)
        z = np.uint64(seed) + idx * np.uint64(_SM_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_MIX2)
        z = z ^ (z >> np.uint64(31))
    return z.astype("<u8").tobytes()[:nbytes]


def obfuscate(payload: bytes, key: int, nonce: int) -> bytes:
    """XOR with a keystream seeded by key XOR nonce, each a u64 (else
    ProtocolError); applying it twice is the identity. This hides payloads
    from casual taps only; it is not encryption."""
    seed = _fit(key, 64, "key") ^ _fit(nonce, 64, "nonce")
    if not payload:
        return payload
    stream = np.frombuffer(_keystream(seed, len(payload)), dtype=np.uint8)
    return (np.frombuffer(payload, dtype=np.uint8) ^ stream).tobytes()


# -- Framing ---------------------------------------------------------------

def _fit(value: int, bits: int, field: str) -> int:
    """``value``, or ProtocolError unless the header's u``bits`` ``field`` holds it."""
    if not 0 <= value < 1 << bits:
        raise ProtocolError(f"{field} {value} does not fit the header's u{bits} field")
    return value


def _frame(body: bytes) -> bytes:
    return PROTOCOL_MAGIC + struct.pack("<I", _fit(len(body), 32, "body length")) + body


def _body_length(header) -> int:
    """The body length an 8-byte frame header declares, after checking its
    magic."""
    if header[:4] != PROTOCOL_MAGIC:
        raise ProtocolError("bad frame magic")
    (body_len,) = struct.unpack_from("<I", header, 4)
    return body_len


def _unframe(frame: bytes) -> bytes:
    if len(frame) < 8:
        raise ProtocolError("frame shorter than header")
    body_len = _body_length(frame)
    if len(frame) != 8 + body_len:
        raise ProtocolError(f"frame has {len(frame) - 8} body bytes, header declares {body_len}")
    return frame[8:]


def encode_request(req: VerifyRequest, key: int | None = None) -> bytes:
    """The request's frame. With a key, the payload is obfuscated and bit 0
    of the flags set; without one, a request already flagged obfuscated is
    refused, as is one with a flag bit that version 1 does not define."""
    payload = req.features.astype("<f4").tobytes()
    flags = req.flags
    if flags & ~FLAG_OBFUSCATED:
        raise ProtocolError(f"undefined flag bits {flags:#04x}")
    if key is not None:
        payload = obfuscate(payload, key, req.nonce)
        flags |= FLAG_OBFUSCATED
    elif flags & FLAG_OBFUSCATED:
        raise ProtocolError("obfuscated request needs a key")
    body = _REQ_FIXED.pack(
        PROTOCOL_VERSION,
        _fit(req.config_id, 8, "config_id"),
        flags,
        _fit(req.nonce, 64, "nonce"),
        req.device_log_odds,
        _fit(req.n_frames, 16, "n_frames"),
        _fit(req.n_coeffs, 16, "n_coeffs"),
    )
    return _frame(body + payload)


def decode_request(frame: bytes, key: int | None = None) -> VerifyRequest:
    """The request a frame carries. ProtocolError unless bit 0 of its flags
    is set exactly when ``key`` is given (a flagged frame needs a key, and
    a receiver with a key takes no plain frame) and no other bit is set."""
    body = _unframe(frame)
    if len(body) < _REQ_FIXED.size:
        raise ProtocolError("request body shorter than its fixed fields")
    version, config_id, flags, nonce, dev_lo, n_frames, n_coeffs = _REQ_FIXED.unpack_from(
        body, 0
    )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unknown protocol version {version}")
    payload = body[_REQ_FIXED.size :]
    expected = 4 * n_frames * n_coeffs
    if len(payload) != expected:
        raise ProtocolError(f"payload of {len(payload)} bytes, header declares {expected}")
    if flags & ~FLAG_OBFUSCATED:
        raise ProtocolError(f"undefined flag bits {flags:#04x}")
    if bool(flags & FLAG_OBFUSCATED) != (key is not None):
        raise ProtocolError("obfuscated request needs a key" if key is None
                            else "plain request refused: the receiver has a key")
    if key is not None:
        payload = obfuscate(payload, key, nonce)
    features = np.frombuffer(payload, dtype="<f4").reshape(n_frames, n_coeffs)
    return VerifyRequest(
        config_id=config_id,
        device_log_odds=dev_lo,
        features=features.copy(),
        nonce=nonce,
        flags=flags,
    )


def encode_response(resp: VerifyResponse) -> bytes:
    n_members = _fit(resp.member_log_odds.size, 16, "member count")
    body = _RESP_FIXED.pack(int(resp.verdict), resp.fused_p_pos, n_members)
    return _frame(body + resp.member_log_odds.astype("<f4").tobytes())


# The server's one answer to a frame or request it refuses, and to a
# connection beyond MAX_CONNECTIONS.
_ERROR_FRAME = encode_response(VerifyResponse(Verdict.ERROR, 0.0, np.zeros(0, dtype=np.float32)))


def decode_response(frame: bytes) -> VerifyResponse:
    body = _unframe(frame)
    if len(body) < _RESP_FIXED.size:
        raise ProtocolError("response body shorter than its fixed fields")
    verdict, p_pos, n_members = _RESP_FIXED.unpack_from(body, 0)
    if verdict not in (0, 1, 2):
        raise ProtocolError(f"unknown verdict byte {verdict}")
    payload = body[_RESP_FIXED.size :]
    if len(payload) != 4 * n_members:
        raise ProtocolError("member log-odds payload length mismatch")
    values = np.frombuffer(payload, dtype="<f4").copy()
    return VerifyResponse(Verdict(verdict), p_pos, values)


def read_frame(sock: socket.socket, max_body: int) -> bytes:
    """Read one complete frame from a connected socket.

    The frame's first byte may take ``READ_TIMEOUT_S`` to arrive, and the
    rest of it must arrive within ``READ_TIMEOUT_S`` of that byte, however
    steadily it comes; past either, TimeoutError. Raises EOFError on a clean
    close before any byte, and ProtocolError on a close inside the frame or
    a malformed header. A header that declares more than ``max_body`` bytes
    is refused before any body byte is read; otherwise the body is read
    into one buffer of the declared length.
    """
    frame, got, deadline = bytearray(8), 0, None
    while got < len(frame):
        left = READ_TIMEOUT_S if deadline is None else deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("frame deadline passed")
        sock.settimeout(left)
        n = sock.recv_into(memoryview(frame)[got:])
        if not n:
            if not got:
                raise EOFError
            part = "header" if got < 8 else "body"
            raise ProtocolError(f"stream ended inside the frame {part}")
        if deadline is None:
            deadline = time.monotonic() + READ_TIMEOUT_S
        got += n
        if got == len(frame) == 8:
            body_len = _body_length(frame)
            if body_len > max_body:
                raise ProtocolError(
                    f"declared body of {body_len} bytes exceeds the bound of {max_body}")
            frame += bytes(body_len)
    return bytes(frame)


# -- Device agent ------------------------------------------------------------

def _check_operating_point(theta: float, refractory_s: float = 0.0) -> None:
    """ValueError unless theta is a probability in [0, 1] and refractory_s
    a finite number of seconds >= 0 (NaN fails both)."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {theta!r}")
    if not 0.0 <= refractory_s < math.inf:
        raise ValueError(f"refractory period must be finite and >= 0 s, got {refractory_s!r}")


def _window_shape(config: FeatureConfig) -> tuple[int, int]:
    """(n_frames, n_coeffs) of the features of one WINDOW_S analysis window."""
    n_samples = int(round(WINDOW_S * CANONICAL_RATE_HZ))
    return frame_count(n_samples, config.window_samples, config.hop_samples), config.n_mfcc


class DeviceAgent:
    """Streaming first-phase detector.

    Scores every ``WINDOW_S`` window that starts on a ``_STRIDE_HOPS``
    device-hop stride, the window whose cloud features the server takes;
    when the score clears the threshold outside the refractory period, it
    emits a DetectionEvent plus a VerifyRequest carrying
    verification-resolution features of the same window. The request's
    flags are 0: the agent holds no key, and whether its frame is obfuscated
    is decided where it is encoded, by the key handed to ``encode_request``
    or ``request_verification``.

    Sample store: the agent owns one float64 array two windows long, and
    the carried samples, those from the next window's start onward, are
    ``_store[_lo:_hi]``: always fewer than one window. ``feed`` copies the
    chunk in after them; when it does not fit, the carried samples first move
    to the front. A chunk longer than one window goes in as pieces of at most
    one window, each scored before the next is copied, so every chunk size
    takes the same path and the store never grows. No window is ever skipped,
    and the events do not depend on how the stream is cut into chunks.
    ``dropped_windows`` stays for callers that read it and is always 0.

    Frame carry: next to the samples, the agent keeps the device MFCC rows
    of the frames that start at ``_lo`` plus a multiple of the device hop.
    Each piece runs one ``mfcc`` call over only the frames its samples
    complete (2 for a 100 ms chunk), a window's device features are the 29
    rows from its start, and the rows from the next window's start onward
    are carried with the samples. So each device frame of the stream is
    computed once, and exactly: a frame's MFCC depends only on its own
    samples (nothing rescales a window, c0 is the frame's own log energy,
    and the mel projection treats each row alone), so a carried row is
    bit-identical to that frame computed inside any window. Cloud features
    are computed only for a window that fires.

    A chunk is checked once, on entry, as an ``AudioClip`` at the agent's
    rate: another rate raises ModelError, and a chunk that is not 1-D or
    holds a non-finite sample raises DataError, before any state changes.
    If scoring raises, the chunk counts as not fed: the carry, the stream
    position and the refractory state are those from before it.

    There is no gain normalization anywhere in the device path: samples are
    scored as fed, and the device and cloud features of a window are both
    computed from the same unscaled samples. Level is the caller's concern
    (training normalizes each source file on load, never a mixture window).
    """

    def __init__(
        self,
        scorer: Scorer,
        theta_device: float = 0.5,
        refractory_s: float = REFRACTORY_S,
    ):
        _check_operating_point(theta_device, refractory_s)
        if scorer.config_id != DEVICE.config_id:
            raise ModelError("device agent needs a scorer over the device config")
        self.theta_device = theta_device
        self._core = Ensemble([scorer])
        self._threshold_lo = log_odds(theta_device, 1.0 - theta_device)
        self._window = int(round(WINDOW_S * CANONICAL_RATE_HZ))
        self._hop, self._frame_len = DEVICE.hop_samples, DEVICE.window_samples
        self._stride = _STRIDE_HOPS * self._hop
        self._window_frames, _ = _window_shape(DEVICE)
        self._refractory = int(round(refractory_s * CANONICAL_RATE_HZ))
        self._store = np.empty(2 * self._window)
        self._lo = self._hi = 0  # the carried samples are _store[_lo:_hi]
        self._buf_start = 0  # absolute index of _store[_lo], the next window's start
        # device MFCC rows of the frames starting at _buf_start + j * hop
        self._frames = np.zeros((0, DEVICE.n_mfcc), dtype=np.float32)
        self._last_event_start: int | None = None
        self.dropped_windows = 0

    def feed(self, chunk) -> list[tuple[DetectionEvent, VerifyRequest]]:
        """Consume an audio chunk; return any (event, request) pairs it fired."""
        clip = chunk if isinstance(chunk, AudioClip) else AudioClip(chunk)
        if clip.sample_rate_hz != CANONICAL_RATE_HZ:
            raise ModelError(f"agent runs at {CANONICAL_RATE_HZ} Hz")
        x, store, window = clip.samples, self._store, self._window
        lo, hi, frames = self._lo, self._hi, self._frames
        # a chunk of more than one piece overwrites the carry: keep it until scored
        saved = store[lo:hi].copy() if x.size > window else None
        last_event = self._last_event_start
        pos, start, fired = 0, self._buf_start, []
        try:
            while True:
                n = min(x.size - pos, window)
                if hi + n > store.size:
                    store[: hi - lo] = store[lo:hi]
                    lo, hi = 0, hi - lo
                    if pos == 0:
                        self._lo, self._hi = lo, hi  # the same carry, moved
                store[hi : hi + n] = x[pos : pos + n]
                hi, pos = hi + n, pos + n
                lo, start, frames = self._scan(lo, hi, start, frames, fired)
                if pos == x.size:
                    break
        except BaseException:
            if saved is not None:
                store[: saved.size] = saved
                self._lo, self._hi = 0, saved.size
            self._last_event_start = last_event
            raise
        self._lo, self._hi, self._buf_start, self._frames = lo, hi, start, frames
        return fired

    def _scan(self, lo, hi, start, frames, fired):
        """Score every complete window of ``_store[lo:hi]``, whose first
        sample is stream sample ``start`` and whose first frames' rows are
        ``frames``; returns (lo, start, frames) from the next window's start."""
        hop, win = self._hop, self._frame_len
        done, total = len(frames), max(0, (hi - lo - win) // hop + 1)
        if total > done:
            piece = AudioClip(self._store[lo + done * hop : lo + (total - 1) * hop + win])
            frames = np.concatenate([frames, mfcc(piece, DEVICE).values])
        w = lo
        while w + self._window <= hi:
            f0 = (w - lo) // hop
            result = self._score_window(self._store[w : w + self._window],
                                        frames[f0 : f0 + self._window_frames],
                                        start + w - lo)
            if result is not None:
                fired.append(result)
            w += self._stride
        return w, start + w - lo, frames[(w - lo) // hop :]

    def _score_window(self, window, device_values, start):
        lo = float(self._core.log_odds({DEVICE.config_id: device_values[None]})[0, 0])
        if lo < self._threshold_lo:
            return None
        if (
            self._last_event_start is not None
            and start - self._last_event_start < self._refractory
        ):
            return None
        self._last_event_start = start
        event = DetectionEvent(start, lo, self.theta_device)
        cloud_fm = mfcc(AudioClip(window), CLOUD)
        request = VerifyRequest(
            config_id=CLOUD.config_id,
            device_log_odds=lo,
            features=cloud_fm.values,
            nonce=start,
        )
        return event, request


# -- Verification server -----------------------------------------------------

def verify_request(
    req: VerifyRequest,
    members: Sequence[Scorer],
    fusion: FusionModel,
    theta_cloud: float = 0.5,
) -> VerifyResponse:
    """One-shot second-phase verification: ``VerificationServer.verify`` on
    a server built for this one call, so it checks the same member, fusion
    and request shape contract."""
    return VerificationServer(members, fusion, theta_cloud).verify(req)


class VerificationServer:
    """Stateless per-request verification, in process or over TCP.

    The ensemble core is built once, here, and shared: scorer and fusion
    weights are immutable, and each connection, which carries one request,
    is handled on its own thread. Its stacked members compute in float32,
    the precision the response carries (the module docstring gives the
    contract and its bounds): three 2x128 GRU members take about 7 ms a
    request in float32 against about 13 ms in float64 (in-process
    ``verify``, 2 vCPUs, numpy 2.4 on OpenBLAS 0.3.31). A Scorer without
    ``weights`` runs its own ``fn``. A request whose features are not
    ``input_shape``, the cloud-config features of one ``WINDOW_S`` window
    (148 x 40), is refused before any member runs; this also bounds the work
    one request can ask for. Every frame gets a response: ACCEPT, REJECT, or
    ERROR for a malformed or refused request or a member that fails.
    A connection's one frame is read with ``read_frame`` under ``max_body``,
    the one request size that ``input_shape`` admits (23,699 bytes for
    148 x 40), so it buffers at most one such body; once it is answered, the
    connection is closed. It is closed without a response once, for
    ``READ_TIMEOUT_S``, its frame's first byte has not come after the accept,
    the begun frame has not ended (however steadily its bytes come), or a
    write has waited; a header that declares more than ``max_body`` gets one
    ERROR frame, and the connection is closed without its body being read.
    At most ``MAX_CONNECTIONS`` connections are handled at once; one more
    gets a single ERROR frame and is closed without being read.
    """

    def __init__(
        self,
        members: Sequence[Scorer],
        fusion: FusionModel,
        theta_cloud: float = 0.5,
        key: int | None = None,
    ):
        _check_operating_point(theta_cloud)
        expected = (DEVICE_MEMBER_ID,) + tuple(m.member_id for m in members)
        if fusion.member_ids != expected:
            raise ModelError(
                f"fusion members {fusion.member_ids} do not match {expected}"
            )
        for member in members:
            if member.config_id != CLOUD.config_id:
                raise ModelError(
                    f"member {member.member_id!r} must consume the cloud config"
                )
        self.members = tuple(members)
        self.fusion = fusion
        self.theta_cloud = theta_cloud
        self.key = key if key is None else _fit(key, 64, "key")
        self.input_shape = _window_shape(CLOUD)
        self.max_body = _REQ_FIXED.size + 4 * self.input_shape[0] * self.input_shape[1]
        self._core = Ensemble(self.members, dtype=np.float32)
        self._tcp: socketserver.ThreadingTCPServer | None = None
        self._thread: threading.Thread | None = None

    def handle_frame(self, frame: bytes) -> bytes:
        """The response to one request frame: ACCEPT or REJECT, or the ERROR
        frame for a malformed or refused request or a member that fails."""
        try:
            req = decode_request(frame, key=self.key)
            resp = self.verify(req)
        except (ProtocolError, ModelError, DataError):
            return _ERROR_FRAME
        except Exception:
            # A member is outside code; its failure is this request's only.
            _log.exception("verification failed")
            return _ERROR_FRAME
        return encode_response(resp)

    def verify(self, req: VerifyRequest) -> VerifyResponse:
        """Run every member on the shipped features, stack the device score
        first, fuse, and threshold."""
        if (req.n_frames, req.n_coeffs) != self.input_shape:
            raise DataError(
                f"request features are {req.n_frames} x {req.n_coeffs}, "
                f"the server takes {self.input_shape[0]} x {self.input_shape[1]}"
            )
        if req.config_id != CLOUD.config_id:
            raise ModelError(
                f"members expect config {CLOUD.config_id}, request carries {req.config_id}"
            )
        fm = FeatureMatrix(req.features, req.config_id)
        values = self._core.log_odds({fm.config_id: fm.values[None]})[0]
        z = LogOddsVector(np.concatenate(([req.device_log_odds], values)),
                          (DEVICE_MEMBER_ID,) + self._core.member_ids)
        p_pos, _ = softmax2(fuse(z, self.fusion))
        verdict = Verdict.ACCEPT if np.float32(p_pos) >= self.theta_cloud else Verdict.REJECT
        return VerifyResponse(verdict, p_pos, z.values.astype(np.float32))

    # TCP wiring

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Serve on a background thread; returns the bound (host, port)."""
        if self._tcp is not None:
            raise RuntimeError("server already started")
        logic = self
        slots = threading.BoundedSemaphore(MAX_CONNECTIONS)

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

            def process_request(self, request, client_address):
                if not slots.acquire(blocking=False):
                    with contextlib.suppress(OSError):
                        request.sendall(_ERROR_FRAME)
                    self.shutdown_request(request)
                    return
                try:
                    super().process_request(request, client_address)
                except BaseException:
                    slots.release()  # no request thread started to release it
                    raise

            def finish_request(self, request, client_address):
                # In place of a handler class: answer the connection's one
                # frame, and the caller then closes it. A clean close, a read
                # past its bound and a reset end it quietly (TimeoutError is
                # an OSError).
                try:
                    with contextlib.suppress(EOFError, OSError):
                        try:
                            response = logic.handle_frame(read_frame(request, logic.max_body))
                        except ProtocolError:  # refused by read_frame
                            response = _ERROR_FRAME
                        request.settimeout(READ_TIMEOUT_S)
                        request.sendall(response)
                finally:
                    slots.release()

        self._tcp = Server((host, port), None)
        self._thread = threading.Thread(target=self._tcp.serve_forever, daemon=True)
        self._thread.start()
        return self._tcp.server_address

    def serve_forever(self, host: str = "127.0.0.1", port: int = 0) -> None:
        addr = self.start(host, port)
        try:
            print(f"verification server listening on {addr[0]}:{addr[1]}", flush=True)
            self._thread.join()
        except KeyboardInterrupt:
            self.shutdown()

    def shutdown(self) -> None:
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
            self._tcp = None
            self._thread = None


def request_verification(
    addr: tuple[str, int],
    req: VerifyRequest,
    key: int | None = None,
) -> VerifyResponse:
    """Send one request over TCP and wait for the verdict, read by
    ``read_frame`` under its deadline and the largest body a response can
    carry (``_MAX_RESPONSE_BODY``, 262,147 bytes)."""
    with socket.create_connection(addr, timeout=READ_TIMEOUT_S) as sock:
        sock.sendall(encode_request(req, key=key))
        return decode_response(read_frame(sock, _MAX_RESPONSE_BODY))
