import contextlib
import dataclasses
import inspect
import socket
import struct
import sys
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wuw import wire
from wuw.audio import WINDOW_S, AudioClip, mix_at_snr, peak_normalize
from wuw.errors import DataError, ModelError, ProtocolError
from wuw.evaluation import _row_core
from wuw.features import CLOUD, DEVICE, FeatureMatrix, frame_count, mfcc
from wuw.fusion import (
    Ensemble,
    FusionModel,
    LogOddsVector,
    fuse,
    log_odds,
    synth_score_task,
    train_fusion,
)
from wuw.nnet import (
    GRUStack,
    LinearStack,
    ScorePair,
    Scorer,
    TrainSpec,
    WeightStore,
    init_gru_scorer,
    make_scorer,
    softmax2,
    train_classifier,
)
from wuw.synth import make_negative_clip, make_noise_clip, make_positive_clip, make_stream
from wuw.wire import (
    FLAG_OBFUSCATED,
    DeviceAgent,
    Verdict,
    VerificationServer,
    VerifyRequest,
    VerifyResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    obfuscate,
    read_frame,
    request_verification,
    verify_request,
)


def random_request(rng, obfuscated=False):
    frames = int(rng.integers(1, 20))
    coeffs = int(rng.integers(1, 12))
    return VerifyRequest(
        config_id=int(rng.integers(0, 256)),
        device_log_odds=float(rng.normal()),
        features=rng.normal(size=(frames, coeffs)).astype(np.float32),
        nonce=int(rng.integers(0, 2**63)),
        flags=FLAG_OBFUSCATED if obfuscated else 0,
    )


def zero_weight_member(member_id="m0"):
    """A cloud-config scorer that always answers (0, 0)."""
    return Scorer(member_id, CLOUD.config_id, lambda fm: ScorePair(0.0, 0.0))


def passthrough_fusion(member_ids, weight_on=0):
    """Hand-built fusion whose logit_pos tracks one member's log-odds."""
    n = len(member_ids)
    w1 = np.zeros((2, n))
    w1[0, weight_on] = 1.0
    w1[1, weight_on] = -1.0
    w2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
    ws = WeightStore(
        {"fc1.w": w1, "fc1.b": np.zeros(2), "fc2.w": w2, "fc2.b": np.zeros(2)},
        {"kind": "fusion", "member_ids": list(member_ids)},
    )
    return FusionModel(ws)


class FakeSocket:
    """The read side of a connected socket over ``data``: each ``recv_into``
    hands out at most ``step`` bytes, then b"" (a clean close). It records
    each buffer size asked for and each timeout set. With a ``clock`` (a
    one-item list), each recv advances it by ``delay``, or raises
    TimeoutError if that exceeds the timeout set."""

    def __init__(self, data: bytes, step: int = 1 << 30, clock=None, delay=0.0):
        self.data, self.pos, self.step = data, 0, step
        self.clock, self.delay = clock, delay
        self.asked, self.timeouts = [], []

    def settimeout(self, timeout):
        self.timeouts.append(timeout)

    def recv_into(self, buf):
        self.asked.append(len(buf))
        if self.clock is not None:
            if self.delay > self.timeouts[-1]:
                self.clock[0] += self.timeouts[-1]
                raise TimeoutError("timed out")
            self.clock[0] += self.delay
        n = min(len(buf), self.step, len(self.data) - self.pos)
        buf[:n] = self.data[self.pos : self.pos + n]
        self.pos += n
        return n


def read_response(sock):
    """The next response on a client socket, read as ``request_verification``
    reads it."""
    return decode_response(read_frame(sock, wire._MAX_RESPONSE_BODY))


def recv_exactly(conn, n):
    data = b""
    while len(data) < n:
        chunk = conn.recv(n - len(data))
        assert chunk, "closed early"
        data += chunk
    return data


@contextlib.contextmanager
def scripted_server(respond):
    """A listener whose one connection is read for one request frame, with
    plain recv calls, and then handed to ``respond``; yields the listener's
    address. The serving thread is joined, with a bound, on exit."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(5)
                header = recv_exactly(conn, 8)
                recv_exactly(conn, struct.unpack_from("<I", header, 4)[0])
                try:
                    respond(conn)
                except OSError:
                    pass  # the client has closed

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield listener.getsockname()
        thread.join(timeout=5)
        assert not thread.is_alive(), "the scripted server never finished"


def bounded_call(fn, timeout):
    """Run ``fn`` on a daemon thread, joined for at most ``timeout`` s, and
    return what it raised (None if nothing). Fails if it is still running."""
    raised = []

    def run():
        try:
            fn()
            raised.append(None)
        except Exception as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    return raised[0]


class HugeBody(bytes):
    """An empty body that claims one byte more than a u32 can count."""

    def __len__(self):
        return 1 << 32


class TestRequestCodec:
    def test_roundtrip_minimal(self):
        req = VerifyRequest(config_id=2, device_log_odds=0.0,
                            features=np.array([[1.0]], dtype=np.float32))
        frame = encode_request(req)
        back = decode_request(frame)
        assert encode_request(back) == frame
        assert back.features.tobytes() == req.features.tobytes()

    def test_hand_assembled_frame(self):
        # layout: magic, u32 len, u8 version, u8 config, u8 flags, u64 nonce,
        # f32 log-odds, u16 frames, u16 coeffs, payload floats
        body = struct.pack("<BBBQfHH", 1, 2, 0, 0, 0.0, 1, 1) + struct.pack("<f", 1.0)
        frame = b"WUWP" + struct.pack("<I", len(body)) + body
        assert len(body) == 23
        req = decode_request(frame)
        assert req.config_id == 2
        assert req.flags == 0
        assert req.nonce == 0
        assert req.device_log_odds == 0.0
        np.testing.assert_array_equal(req.features, [[1.0]])
        assert encode_request(req) == frame

    def test_roundtrip_random_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            req = random_request(rng)
            frame = encode_request(req)
            back = decode_request(frame)
            assert encode_request(back) == frame
            assert back.nonce == req.nonce
            assert back.device_log_odds == req.device_log_odds

    def test_obfuscated_roundtrip(self):
        rng = np.random.default_rng(1)
        req = random_request(rng, obfuscated=True)
        with pytest.raises(ProtocolError, match="needs a key"):
            encode_request(req)
        frame = encode_request(req, key=0xC0FFEE)
        with pytest.raises(ProtocolError):
            decode_request(frame)  # key required
        back = decode_request(frame, key=0xC0FFEE)
        assert back.features.tobytes() == req.features.tobytes()
        assert encode_request(back, key=0xC0FFEE) == frame

    def test_the_key_alone_sets_and_checks_bit_0(self):
        rng = np.random.default_rng(3)
        plain = random_request(rng)
        flagged = dataclasses.replace(plain, flags=FLAG_OBFUSCATED)
        frame = encode_request(plain, key=0xC0FFEE)
        assert frame[10] == FLAG_OBFUSCATED  # the flags byte follows version, config
        assert frame == encode_request(flagged, key=0xC0FFEE)
        with pytest.raises(ProtocolError, match="receiver has a key"):
            decode_request(encode_request(plain), key=0xC0FFEE)

    def test_wrong_key_scrambles_payload(self):
        rng = np.random.default_rng(2)
        req = random_request(rng, obfuscated=True)
        frame = encode_request(req, key=1)
        try:
            back = decode_request(frame, key=2)
        except Exception:
            return  # scrambled floats may be non-finite; any clean error is fine
        assert back.features.tobytes() != req.features.tobytes()

    def test_giant_declared_length_rejected_before_allocation(self):
        frame = b"WUWP" + struct.pack("<I", 10**9) + b"\x00" * 16
        sock = FakeSocket(frame)
        with pytest.raises(ProtocolError, match="declared body of 1000000000 bytes exceeds"):
            read_frame(sock, 23699)
        assert sock.asked == [8]  # no buffer of the declared length
        with pytest.raises(ProtocolError, match="frame has 16 body bytes, header declares 10"):
            decode_request(frame)

    @pytest.mark.parametrize("encode,refusal", [
        (lambda: encode_request(VerifyRequest(2, 0.0, np.zeros((70000, 1)))), "n_frames 70000"),
        (lambda: encode_request(VerifyRequest(2, 0.0, np.zeros((1, 70000)))), "n_coeffs 70000"),
        (lambda: encode_request(VerifyRequest(300, 0.0, np.zeros((1, 1)))), "config_id 300"),
        (lambda: encode_request(VerifyRequest(2, 0.0, np.zeros((1, 1)), nonce=2**64)),
         f"nonce {2**64}"),
        (lambda: encode_request(VerifyRequest(2, 0.0, np.zeros((1, 1)), nonce=-1)), "nonce -1"),
        (lambda: encode_response(VerifyResponse(Verdict.ACCEPT, 0.5, np.zeros(65536))),
         "member count 65536"),
        (lambda: wire._frame(HugeBody()), f"body length {2**32}"),
    ], ids=["n_frames", "n_coeffs", "config_id", "nonce-2**64", "nonce-1", "members",
            "body-length"])
    def test_a_field_its_header_cannot_hold_is_refused(self, encode, refusal):
        with pytest.raises(ProtocolError, match=f"^{refusal} does not fit the header's u"):
            encode()

    def test_bad_magic(self):
        with pytest.raises(ProtocolError, match="bad frame magic"):
            decode_request(b"NOPE" + b"\x00" * 30)

    def test_unknown_version(self):
        body = struct.pack("<BBBQfHH", 9, 2, 0, 0, 0.0, 0, 0)
        frame = b"WUWP" + struct.pack("<I", len(body)) + body
        with pytest.raises(ProtocolError, match="unknown protocol version 9"):
            decode_request(frame)

    def test_payload_length_mismatch(self):
        body = struct.pack("<BBBQfHH", 1, 2, 0, 0, 0.0, 2, 2)  # declares 16 bytes
        frame = b"WUWP" + struct.pack("<I", len(body)) + body
        with pytest.raises(ProtocolError, match="payload of 0 bytes, header declares 16"):
            decode_request(frame)

    def test_truncated_body(self):
        req = VerifyRequest(config_id=2, device_log_odds=0.0,
                            features=np.ones((2, 2), dtype=np.float32))
        frame = encode_request(req)
        with pytest.raises(ProtocolError, match="frame has 34 body bytes, header declares 35"):
            decode_request(frame[:-1])
        body = frame[8 : 8 + wire._REQ_FIXED.size - 1]  # one byte short of the fixed fields
        with pytest.raises(ProtocolError, match="request body shorter than its fixed fields"):
            decode_request(b"WUWP" + struct.pack("<I", len(body)) + body)

    def test_fuzz_random_prefixes_never_crash(self):
        rng = np.random.default_rng(3)
        good = encode_request(random_request(rng))
        for _ in range(100_000):
            n = int(rng.integers(0, 40))
            blob = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            if rng.uniform() < 0.3:
                blob = good[: int(rng.integers(0, len(good)))] + blob
            try:
                decode_request(blob)
            except ProtocolError:
                pass

    def test_no_raw_audio_field_in_schema(self):
        names = {f.name for f in dataclasses.fields(VerifyRequest)}
        assert names == {"config_id", "device_log_odds", "features",
                         "nonce", "flags"}


class TestResponseCodec:
    def test_roundtrip(self):
        resp = VerifyResponse(Verdict.ACCEPT, 0.75,
                              np.array([1.5, -0.5], dtype=np.float32))
        frame = encode_response(resp)
        back = decode_response(frame)
        assert back.verdict is Verdict.ACCEPT
        assert back.fused_p_pos == resp.fused_p_pos
        assert back.member_log_odds.tobytes() == resp.member_log_odds.tobytes()
        assert encode_response(back) == frame

    def test_unknown_verdict_byte(self):
        body = struct.pack("<BfH", 7, 0.0, 0)
        frame = b"WUWP" + struct.pack("<I", len(body)) + body
        with pytest.raises(ProtocolError):
            decode_response(frame)

    def test_error_frame_is_the_encoded_error_verdict(self):
        golden = b"WUWP" + struct.pack("<I", 7) + struct.pack("<BfH", 2, 0.0, 0)
        assert wire._ERROR_FRAME == golden
        assert encode_response(VerifyResponse(Verdict.ERROR, 0.0, np.zeros(0))) == golden

    @pytest.mark.parametrize("body,refusal", [
        (struct.pack("<BfH", 1, 0.5, 0)[:6], "response body shorter than its fixed fields"),
        (struct.pack("<BfH", 1, 0.5, 2) + bytes(4), "member log-odds payload length mismatch"),
    ], ids=["short-body", "payload-length"])
    def test_malformed_body_refused(self, body, refusal):
        with pytest.raises(ProtocolError, match=refusal):
            decode_response(b"WUWP" + struct.pack("<I", len(body)) + body)


class TestObfuscate:
    def test_involution(self):
        rng = np.random.default_rng(4)
        payload = rng.integers(0, 256, size=333, dtype=np.uint8).tobytes()
        once = obfuscate(payload, key=123, nonce=456)
        assert obfuscate(once, key=123, nonce=456) == payload
        assert once != payload

    def test_zero_key_and_nonce_nonzero_stream(self):
        out = obfuscate(b"\x00" * 64, key=0, nonce=0)
        assert out == obfuscate(b"\x00" * 64, key=0, nonce=0)
        assert any(b != 0 for b in out)

    def test_nonces_decorrelate_keystreams(self):
        a = obfuscate(b"\x00" * 1024, key=5, nonce=1)
        b = obfuscate(b"\x00" * 1024, key=5, nonce=2)
        differing = sum(x != y for x, y in zip(a, b))
        assert differing > 0.4 * 1024

    @given(st.binary(max_size=200), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_involution_property(self, payload, key, nonce):
        assert obfuscate(obfuscate(payload, key, nonce), key, nonce) == payload


def mean_log_energy(fm: FeatureMatrix) -> float:
    """Window mean of coefficient 0, the frames' raw log energy."""
    return float(np.mean(fm.values[:, 0]))


def oracle_device_scorer(stream, gap_s=3.0, margin=1.0):
    """Fires on windows whose mean frame log-energy clears a floor.

    c0 is ln(sum of x^2) over a frame, so its level follows the stream's
    gain and no absolute floor fits every stream. ``make_stream`` leaves
    its first ``gap_s`` seconds pure background; the floor is the median
    ``mean_log_energy`` of the agent-sized windows (1.5 s at a 100 ms
    stride) inside that warmup gap, plus ``margin`` nats. It is fixed
    before the agent sees any audio.
    """
    rate = stream.sample_rate_hz
    gap, window = int(gap_s * rate), int(WINDOW_S * rate)
    stride = 2 * DEVICE.hop_samples
    background = [
        mean_log_energy(mfcc(AudioClip(stream.samples[s : s + window]), DEVICE))
        for s in range(0, gap - window + 1, stride)
    ]
    threshold = float(np.median(background)) + margin

    def fn(fm: FeatureMatrix) -> ScorePair:
        loud = mean_log_energy(fm)
        return ScorePair(50.0, 0.0) if loud > threshold else ScorePair(-50.0, 0.0)

    return Scorer("oracle", DEVICE.config_id, fn)


def agent_state(agent):
    """Everything a feed may change: the carried samples and frame rows,
    where they sit, the stream position and the refractory state."""
    return (agent._store[agent._lo : agent._hi].tobytes(), agent._lo, agent._hi,
            agent._buf_start, agent._frames.tobytes(), agent._last_event_start)


class TestDeviceAgent:
    def test_silent_stream_no_events(self):
        quiet = Scorer("zero", DEVICE.config_id, lambda fm: ScorePair(0.0, 0.0))
        agent = DeviceAgent(quiet, theta_device=0.73)  # log-odds ~ 1.0
        fired = agent.feed(np.zeros(16000 * 5))
        assert fired == []

    def test_one_event_per_injection(self):
        rng = np.random.default_rng(5)
        stream, starts = make_stream(rng, n_keywords=20, gap_s=3.0, snr_db=20.0)
        agent = DeviceAgent(oracle_device_scorer(stream), theta_device=0.5,
                            refractory_s=1.5)
        events = []
        chunk = 1600
        for i in range(0, len(stream), chunk):
            events.extend(e for e, _ in agent.feed(stream.samples[i : i + chunk]))
        assert len(events) == len(starts)
        for event, start in zip(events, starts):
            # the firing window must overlap its keyword
            assert event.window_start_sample <= start + 9600
            assert event.window_start_sample + 24000 >= start

    def test_default_refractory_gives_one_event_per_keyword(self):
        assert (inspect.signature(DeviceAgent).parameters["refractory_s"].default
                == wire.REFRACTORY_S)
        for seed in (5, 6, 7):
            stream, starts = make_stream(np.random.default_rng(seed), n_keywords=20,
                                         gap_s=3.0, snr_db=20.0)
            events = DeviceAgent(oracle_device_scorer(stream)).feed(stream.samples)
            assert len(events) == len(starts)

    def test_refractory_spacing(self):
        rng = np.random.default_rng(6)
        stream, _ = make_stream(rng, n_keywords=10, gap_s=3.0, snr_db=30.0)
        agent = DeviceAgent(oracle_device_scorer(stream), refractory_s=1.5)
        events = [e for e, _ in agent.feed(stream.samples)]
        starts = [e.window_start_sample for e in events]
        for a, b in zip(starts, starts[1:]):
            assert b - a >= int(1.5 * 16000)

    def test_request_payload_shape_is_cloud(self):
        rng = np.random.default_rng(7)
        stream, _ = make_stream(rng, n_keywords=1, gap_s=3.0, snr_db=30.0)
        agent = DeviceAgent(oracle_device_scorer(stream))
        requests = [r for _, r in agent.feed(stream.samples)]
        assert requests
        for req in requests:
            assert req.features.shape == (148, 40)
            assert req.config_id == CLOUD.config_id

    def test_chunking_does_not_change_events(self):
        rng = np.random.default_rng(8)
        stream, _ = make_stream(rng, n_keywords=5, gap_s=3.0, snr_db=25.0)
        results = []
        for chunk in (400, 1600, 7777, len(stream)):
            agent = DeviceAgent(oracle_device_scorer(stream), refractory_s=1.5)
            events = []
            for i in range(0, len(stream), chunk):
                events.extend(
                    e.window_start_sample
                    for e, _ in agent.feed(stream.samples[i : i + chunk])
                )
            results.append(events)
        assert len(results[0]) == 5
        assert results[0] == results[1] == results[2] == results[3]

    @pytest.mark.parametrize("chunk", [799, 1600, 7777, None])
    def test_window_features_equal_mfcc_of_the_window(self, chunk):
        # frame carry: each window's device rows are bit-equal to the MFCC
        # of that window's own samples, whatever the chunk size
        rng = np.random.default_rng(8)
        stream, _ = make_stream(rng, n_keywords=2, gap_s=3.0, snr_db=25.0)
        seen = []

        def recording(fm: FeatureMatrix) -> ScorePair:
            seen.append(fm.values)
            return ScorePair(0.0, 0.0)

        agent = DeviceAgent(Scorer("rec", DEVICE.config_id, recording), theta_device=0.73)
        chunk = chunk or len(stream)
        for i in range(0, len(stream), chunk):
            assert agent.feed(stream.samples[i : i + chunk]) == []
        window = int(WINDOW_S * stream.sample_rate_hz)
        stride = 2 * DEVICE.hop_samples
        assert len(seen) == (len(stream) - window) // stride + 1
        for k, values in enumerate(seen):
            raw = AudioClip(stream.samples[k * stride : k * stride + window])
            assert np.array_equal(values, mfcc(raw, DEVICE).values)

    # 7 and 799 move the carry to the front of the store many times, 24000
    # is one window, and 100000 and the whole stream go in as pieces
    @pytest.mark.parametrize("chunk", [7, 799, 1600, 24000, 100000, None])
    def test_each_device_frame_is_computed_once(self, chunk, monkeypatch):
        rng = np.random.default_rng(8)
        stream, _ = make_stream(rng, n_keywords=3, gap_s=3.0, snr_db=25.0)
        scorer = oracle_device_scorer(stream)

        def run(size):
            agent = DeviceAgent(scorer, refractory_s=1.5)
            return [(e, encode_request(r, key=3))
                    for i in range(0, len(stream), size)
                    for e, r in agent.feed(stream.samples[i : i + size])]

        # events and request frames do not depend on the chunk size either
        expected = run(len(stream))
        device_rows = []

        def spy(clip, config):
            fm = mfcc(clip, config)
            if config.config_id == DEVICE.config_id:
                device_rows.append(fm.n_frames)
            return fm

        monkeypatch.setattr(wire, "mfcc", spy)
        fired = run(chunk or len(stream))
        assert len(fired) == 3 and fired == expected
        hop, win = DEVICE.hop_samples, DEVICE.window_samples
        assert sum(device_rows) == frame_count(len(stream), win, hop)

    @pytest.mark.parametrize("bad", ["nan", "2-d"])
    def test_bad_chunk_is_refused_before_any_state_changes(self, bad):
        rng = np.random.default_rng(8)
        stream, _ = make_stream(rng, n_keywords=5, gap_s=3.0, snr_db=25.0)
        scorer = oracle_device_scorer(stream)

        def run(agent, samples, chunk=1600):
            out = []
            for i in range(0, len(samples), chunk):
                out.extend((e.window_start_sample, e.device_log_odds,
                            encode_request(r, key=3))
                           for e, r in agent.feed(samples[i : i + chunk]))
            return out

        expected = run(DeviceAgent(scorer, refractory_s=1.5), stream.samples)
        assert len(expected) == 5
        cut = 7 * 16000 + 333  # mid-frame, with a window scored and one pending
        agent = DeviceAgent(scorer, refractory_s=1.5)
        events = run(agent, stream.samples[:cut])
        chunk = stream.samples[cut : cut + 1600].copy()
        if bad == "nan":
            chunk[-1] = np.nan  # in no complete frame yet: only the entry check sees it
        else:
            chunk = chunk.reshape(2, 800)
        state = agent_state(agent)
        with pytest.raises(DataError):
            agent.feed(chunk)
        assert agent_state(agent) == state
        events += run(agent, stream.samples[cut:])
        assert events == expected

    def test_carries_less_than_one_window_between_feeds(self):
        quiet = Scorer("zero", DEVICE.config_id, lambda fm: ScorePair(0.0, 0.0))
        agent = DeviceAgent(quiet)
        window = int(WINDOW_S * 16000)
        store = agent._store
        for size in (16000 * 20, 100, window, 7, window + 1, 2 * window):
            chunk = np.zeros(size)
            agent.feed(chunk)
            assert agent._hi - agent._lo < window
            assert agent._store is store and store.size <= 2 * window
            assert store.base is None and not np.shares_memory(store, chunk)
        assert agent.dropped_windows == 0

    def test_windows_are_scored_and_shipped_as_fed(self):
        rng = np.random.default_rng(10)
        stream, _ = make_stream(rng, n_keywords=2, gap_s=3.0, snr_db=20.0)
        oracle = oracle_device_scorer(stream)
        seen = []

        def recording(fm: FeatureMatrix) -> ScorePair:
            seen.append(fm.values)
            return oracle.fn(fm)

        agent = DeviceAgent(Scorer("rec", DEVICE.config_id, recording),
                            refractory_s=1.5)
        fired = agent.feed(stream.samples)
        window = int(WINDOW_S * stream.sample_rate_hz)
        stride = 2 * DEVICE.hop_samples
        assert len(seen) == (len(stream) - window) // stride + 1
        for k, values in enumerate(seen):
            raw = AudioClip(stream.samples[k * stride : k * stride + window])
            assert values.tobytes() == mfcc(raw, DEVICE).values.tobytes()
        assert fired
        for event, req in fired:
            s = event.window_start_sample
            raw = AudioClip(stream.samples[s : s + window])
            assert req.features.tobytes() == mfcc(raw, CLOUD).values.tobytes()

    def test_wrong_config_scorer_rejected(self):
        # the cloud preset, and an id that is no preset at all (a DataError
        # from the preset lookup until the agent compared ids directly)
        for config_id in (CLOUD.config_id, 99):
            other = Scorer("c", config_id, lambda fm: ScorePair(0.0, 0.0))
            with pytest.raises(ModelError, match="device config"):
                DeviceAgent(other)

    def test_operating_point_is_validated(self):
        quiet = Scorer("zero", DEVICE.config_id, lambda fm: ScorePair(0.0, 0.0))
        for theta in (np.nan, -0.1, 1.5, np.inf):
            with pytest.raises(ValueError):
                DeviceAgent(quiet, theta_device=theta)
        for refractory in (np.nan, -1.0, np.inf):
            with pytest.raises(ValueError):
                DeviceAgent(quiet, refractory_s=refractory)
        DeviceAgent(quiet, theta_device=0.0, refractory_s=0.0)
        DeviceAgent(quiet, theta_device=1.0)

    # 1600 fails in a feed of one window, 24000 in one that moves the carry
    # to the front of the store, 100000 in its second piece
    @pytest.mark.parametrize("chunk", [1600, 24000, 100000])
    def test_a_failed_feed_leaves_the_agent_as_before(self, chunk):
        rng = np.random.default_rng(8)
        stream, _ = make_stream(rng, n_keywords=5, gap_s=3.0, snr_db=25.0)
        oracle = oracle_device_scorer(stream)
        calls = {"n": 0, "fail_at": None}

        def flaky(fm: FeatureMatrix) -> ScorePair:
            calls["n"] += 1
            if calls["n"] == calls["fail_at"]:
                raise RuntimeError("scorer failed")
            return oracle.fn(fm)

        def run(agent, samples):
            return [(e, encode_request(r)) for i in range(0, len(samples), chunk)
                    for e, r in agent.feed(samples[i : i + chunk])]

        scorer = Scorer("flaky", DEVICE.config_id, flaky)
        expected = run(DeviceAgent(scorer, refractory_s=1.5), stream.samples)
        assert len(expected) == 5
        cut = 5 * 16000
        agent = DeviceAgent(scorer, refractory_s=1.5)
        events = run(agent, stream.samples[:cut])
        state = agent_state(agent)
        # the long chunk fails mid-way, after pieces were scored and moved
        calls["fail_at"] = calls["n"] + {1600: 1, 24000: 10, 100000: 40}[chunk]
        with pytest.raises(RuntimeError):
            agent.feed(stream.samples[cut : cut + chunk])
        after = agent_state(agent)  # the carry may sit elsewhere in the store
        assert after[0] == state[0] and after[3:] == state[3:]
        assert (after[1] != state[1]) == (chunk > 1600)
        events += run(agent, stream.samples[cut:])
        assert events == expected


class TestVerification:
    def make_server(self, key=None, theta=0.5):
        members = [zero_weight_member("m0")]
        fusion = passthrough_fusion(["device", "m0"], weight_on=0)
        return VerificationServer(members, fusion, theta_cloud=theta, key=key)

    def test_device_conditioned_accept(self):
        server = self.make_server()
        req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=10.0,
                            features=np.zeros((148, 40), dtype=np.float32))
        resp = server.verify(req)
        assert resp.verdict is Verdict.ACCEPT
        assert resp.member_log_odds.shape == (2,)
        assert resp.member_log_odds[0] == np.float32(10.0)

    def test_device_conditioned_reject(self):
        server = self.make_server()
        req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=-10.0,
                            features=np.zeros((148, 40), dtype=np.float32))
        assert server.verify(req).verdict is Verdict.REJECT

    def test_member_fusion_mismatch_refused_at_startup(self):
        members = [zero_weight_member("m0")]
        wrong = passthrough_fusion(["device", "other"], weight_on=0)
        with pytest.raises(ModelError):
            VerificationServer(members, wrong)

    def test_cloud_threshold_is_validated(self):
        for theta in (np.nan, -0.5, 1.01, np.inf):
            with pytest.raises(ValueError):
                self.make_server(theta=theta)
        assert self.make_server(theta=0.0).verify(VerifyRequest(
            config_id=CLOUD.config_id, device_log_odds=-10.0,
            features=np.zeros((148, 40), dtype=np.float32))).verdict is Verdict.ACCEPT

    def test_member_with_non_cloud_config_refused(self):
        bad = Scorer("m0", DEVICE.config_id, lambda fm: ScorePair(0.0, 0.0))
        fusion = passthrough_fusion(["device", "m0"])
        with pytest.raises(ModelError):
            VerificationServer([bad], fusion)

    def test_handle_frame_corrupt_magic_gives_error_response(self):
        server = self.make_server()
        response, keep = server.handle_frame(b"XXXX" + b"\x00" * 30)
        assert not keep
        assert decode_response(response).verdict is Verdict.ERROR

    def test_same_request_same_response(self):
        server = self.make_server()
        req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=3.0,
                            features=np.zeros((148, 40), dtype=np.float32))
        frame = encode_request(req)
        a, _ = server.handle_frame(frame)
        b, _ = server.handle_frame(frame)
        assert a == b

    def test_tcp_roundtrip_matches_offline(self):
        server = self.make_server(key=0xBEEF)
        addr = server.start()
        try:
            rng = np.random.default_rng(9)
            for _ in range(5):
                req = VerifyRequest(
                    config_id=CLOUD.config_id,
                    device_log_odds=float(rng.normal() * 5),
                    features=rng.normal(size=(148, 40)).astype(np.float32),
                    nonce=int(rng.integers(0, 2**32)),
                    flags=FLAG_OBFUSCATED,
                )
                wire_resp = request_verification(addr, req, key=0xBEEF)
                frame = encode_request(req, key=0xBEEF)
                offline = server.verify(decode_request(frame, key=0xBEEF))
                assert wire_resp.verdict is offline.verdict
                assert wire_resp.fused_p_pos == offline.fused_p_pos
                assert (wire_resp.member_log_odds.tobytes()
                        == offline.member_log_odds.tobytes())
        finally:
            server.shutdown()

    def test_tcp_survives_corrupt_frame(self):
        import socket

        server = self.make_server()
        addr = server.start()
        try:
            with socket.create_connection(addr, timeout=5) as sock:
                sock.sendall(b"GARBAGEGARBAGE")
                data = sock.recv(4096)
                assert decode_response(data).verdict is Verdict.ERROR
            # the server must still answer fresh connections
            req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=10.0,
                                features=np.zeros((148, 40), dtype=np.float32))
            resp = request_verification(addr, req)
            assert resp.verdict is Verdict.ACCEPT
        finally:
            server.shutdown()

    def test_half_sent_header_times_out_quietly(self, monkeypatch, capsys):
        import socket
        import time

        monkeypatch.setattr(wire, "READ_TIMEOUT_S", 0.2)
        server = self.make_server()
        addr = server.start()
        try:
            with socket.create_connection(addr, timeout=5) as sock:
                sock.sendall(b"WUWP\x10")
                t0 = time.monotonic()
                assert sock.recv(4096) == b""  # closed, with no response
                assert time.monotonic() - t0 < 1.0
            req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=10.0,
                                features=np.zeros((148, 40), dtype=np.float32))
            assert request_verification(addr, req).verdict is Verdict.ACCEPT
        finally:
            server.shutdown()
        assert "Traceback" not in capsys.readouterr().err

    def test_trickling_clients_are_closed_at_the_frame_deadline(self, monkeypatch):
        # Two clients hold both slots and send one byte of a frame every
        # 0.3 s, inside the per-read bound of 0.5 s. The whole frame is due
        # 0.5 s after its first byte, so both are closed then, unanswered,
        # and an honest request gets its verdict once their slots free.
        import socket
        import time

        monkeypatch.setattr(wire, "MAX_CONNECTIONS", 2)
        monkeypatch.setattr(wire, "READ_TIMEOUT_S", 0.5)
        server = self.make_server()
        addr = server.start()
        frame = self.good_frame()
        closed_at = {}
        try:
            socks = [socket.create_connection(addr, timeout=5) for _ in range(2)]
            t0 = time.monotonic()
            try:
                for i in range(10):  # 3 s at most; never a whole frame
                    for j, sock in enumerate(socks):
                        if j in closed_at:
                            continue
                        try:
                            sock.sendall(frame[i : i + 1])
                            sock.settimeout(0.15)
                            data = sock.recv(4096)
                        except TimeoutError:
                            continue  # still open: the next byte follows
                        except ConnectionError:  # a byte sent after the close
                            data = b""
                        assert data == b""  # closed, with no response
                        closed_at[j] = time.monotonic() - t0
                    if len(closed_at) == 2:
                        break
            finally:
                for sock in socks:
                    sock.close()
            assert sorted(closed_at) == [0, 1], "a trickling client was never closed"
            assert max(closed_at.values()) < 1.5
            deadline = time.monotonic() + 5.0
            while (verdict := request_verification(addr, self.good_request()).verdict) \
                    is Verdict.ERROR:
                assert time.monotonic() < deadline, "a slot was never released"
                time.sleep(0.01)
            assert verdict in (Verdict.ACCEPT, Verdict.REJECT)
        finally:
            server.shutdown()

    def test_connection_over_the_limit_gets_error_until_a_slot_frees(self, monkeypatch):
        import socket
        import time

        monkeypatch.setattr(wire, "MAX_CONNECTIONS", 1)
        server = self.make_server()
        addr = server.start()
        req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=10.0,
                            features=np.zeros((148, 40), dtype=np.float32))
        try:
            # Accepted first, the idle connection takes the only slot.
            with socket.create_connection(addr, timeout=5):
                assert request_verification(addr, req).verdict is Verdict.ERROR
            # Its handler reads EOF and frees the slot, soon but not at once.
            deadline = time.monotonic() + 5.0
            while (verdict := request_verification(addr, req).verdict) is Verdict.ERROR:
                assert time.monotonic() < deadline, "the slot was never released"
                time.sleep(0.01)
            assert verdict in (Verdict.ACCEPT, Verdict.REJECT)
        finally:
            server.shutdown()

    def good_request(self, device_log_odds=10.0):
        return VerifyRequest(config_id=CLOUD.config_id, device_log_odds=device_log_odds,
                             features=np.zeros((148, 40), dtype=np.float32))

    def good_frame(self, device_log_odds=10.0):
        return encode_request(self.good_request(device_log_odds))

    @pytest.mark.parametrize("server_key,sender_key", [(0x5EED, None), (None, 0x5EED)],
                             ids=["keyed-server-plain-frame", "plain-server-keyed-frame"])
    def test_frame_whose_bit_disagrees_with_the_key_gets_error_and_closes(
            self, server_key, sender_key):
        import socket

        calls = []

        def counted(fm):
            calls.append(fm)
            return ScorePair(0.0, 0.0)

        server = VerificationServer([Scorer("m0", CLOUD.config_id, counted)],
                                    passthrough_fusion(["device", "m0"]), key=server_key)
        addr = server.start()
        try:
            with socket.create_connection(addr, timeout=5) as sock:
                req = dataclasses.replace(self.good_request(50.0),
                                          flags=FLAG_OBFUSCATED if sender_key else 0)
                sock.sendall(encode_request(req, key=sender_key))
                assert read_response(sock).verdict is Verdict.ERROR
                with pytest.raises(EOFError):  # closed by the server
                    read_response(sock)
        finally:
            server.shutdown()
        assert calls == []

    def test_two_frames_on_one_connection_get_two_answers_in_order(self):
        import socket

        server = self.make_server()
        addr = server.start()
        try:
            with socket.create_connection(addr, timeout=5) as sock:
                sock.sendall(self.good_frame(10.0) + self.good_frame(-10.0))
                first = read_response(sock)
                second = read_response(sock)
                assert (first.verdict, second.verdict) == (Verdict.ACCEPT, Verdict.REJECT)
                assert first.member_log_odds[0] == np.float32(10.0)
                assert second.member_log_odds[0] == np.float32(-10.0)
                # the connection stays open for a third
                sock.sendall(self.good_frame(10.0))
                assert read_response(sock).verdict is Verdict.ACCEPT
        finally:
            server.shutdown()

    @pytest.mark.parametrize("bad", ["magic", "version"])
    def test_malformed_second_frame_gets_error_and_closes(self, bad, monkeypatch):
        import socket
        import time

        monkeypatch.setattr(wire, "MAX_CONNECTIONS", 1)
        server = self.make_server()
        addr = server.start()
        if bad == "magic":  # refused by the frame reader
            second = b"GARBAGE!"  # a whole header, so nothing is left unread
        else:  # read whole, then refused by the request decoder
            frame = bytearray(self.good_frame())
            frame[8] = wire.PROTOCOL_VERSION + 1
            second = bytes(frame)
        try:
            with socket.create_connection(addr, timeout=5) as sock:
                sock.sendall(self.good_frame() + second)
                assert read_response(sock).verdict is Verdict.ACCEPT
                assert read_response(sock).verdict is Verdict.ERROR
                with pytest.raises(EOFError):  # closed by the server
                    read_response(sock)
            # the only slot frees once the handler returns
            deadline = time.monotonic() + 5.0
            while (verdict := request_verification(addr, self.good_request()).verdict) \
                    is Verdict.ERROR:
                assert time.monotonic() < deadline, "the slot was never released"
                time.sleep(0.01)
            assert verdict is Verdict.ACCEPT
        finally:
            server.shutdown()

    def test_read_bound_is_the_one_request_size(self):
        server = self.make_server()
        assert server.max_body == len(self.good_frame()) - 8 == 23699

    @pytest.mark.parametrize("over", ["bound", "cap"])
    def test_header_over_the_read_bound_gets_error_unread(self, over):
        import socket
        import time

        server = self.make_server()
        # "cap": the largest length a header can declare
        declared = server.max_body + 1 if over == "bound" else 0xFFFFFFFF
        addr = server.start()
        try:
            with socket.create_connection(addr, timeout=5) as sock:
                t0 = time.monotonic()
                sock.sendall(b"WUWP" + struct.pack("<I", declared))
                assert read_response(sock).verdict is Verdict.ERROR
                assert time.monotonic() - t0 < wire.READ_TIMEOUT_S / 5
                with pytest.raises(EOFError):  # closed, body never awaited
                    read_response(sock)
            assert request_verification(addr, self.good_request()).verdict is Verdict.ACCEPT
        finally:
            server.shutdown()

    def test_interrupt_while_announcing_shuts_down(self, monkeypatch):
        server = self.make_server()

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("builtins.print", interrupted)
        server.serve_forever()
        assert server._tcp is None and server._thread is None

    def test_body_over_cap_never_allocated(self):
        # The device's bound is the largest response the format can carry:
        # such a response is read whole, and a header declaring one byte
        # more is refused with only the header read.
        largest = encode_response(VerifyResponse(Verdict.ACCEPT, 0.5, np.zeros(0xFFFF)))
        assert len(largest) - 8 == wire._MAX_RESPONSE_BODY == 262147
        assert read_frame(FakeSocket(largest), wire._MAX_RESPONSE_BODY) == largest
        over = b"WUWP" + struct.pack("<I", wire._MAX_RESPONSE_BODY + 1) + largest[8:] + b"\0"
        sock = FakeSocket(over)
        with pytest.raises(ProtocolError, match="declared body of 262148 bytes exceeds the bound"):
            read_frame(sock, wire._MAX_RESPONSE_BODY)
        assert sock.asked == [8]

    def test_trickled_response_times_out_at_the_frame_deadline(self, monkeypatch):
        # The server sends an honest 23-byte verdict one byte every 0.3 s,
        # inside a per-read bound of 0.5 s. The whole frame is due 0.5 s
        # after its first byte, so the device gives up then.
        monkeypatch.setattr(wire, "READ_TIMEOUT_S", 0.5)
        response = encode_response(VerifyResponse(Verdict.ACCEPT, 0.9, np.zeros(2)))
        assert len(response) == 23
        first_byte = []

        def trickle(conn):
            first_byte.append(time.monotonic())
            for i in range(len(response)):
                conn.sendall(response[i : i + 1])
                time.sleep(0.3)

        with scripted_server(trickle) as addr:
            raised = bounded_call(lambda: request_verification(addr, self.good_request()), 3.0)
            gave_up = time.monotonic()
        assert isinstance(raised, TimeoutError)
        assert 0.45 < gave_up - first_byte[0] < 1.2

    def test_response_header_over_the_format_bound_is_refused_unread(self):
        # The header declares one byte more than any response can carry and
        # a body byte follows; the server then holds the connection open.
        # The device refuses at the header and closes with the body byte
        # still unread, which TCP reports to the server as a reset.
        header = b"WUWP" + struct.pack("<I", 262148)  # 7 + 4 * 0xFFFF + 1
        seen = []

        def oversize(conn):
            conn.sendall(header + b"\0")
            try:
                seen.append(conn.recv(1))
            except ConnectionResetError:
                seen.append("reset")

        with scripted_server(oversize) as addr:
            t0 = time.monotonic()
            raised = bounded_call(lambda: request_verification(addr, self.good_request()), 3.0)
            took = time.monotonic() - t0
        assert isinstance(raised, ProtocolError)
        assert "declared body of 262148 bytes exceeds the bound of 262147" in str(raised)
        assert took < wire.READ_TIMEOUT_S / 5
        assert seen == ["reset"]

    def test_verify_request_function_standalone(self):
        members = [zero_weight_member("m0")]
        fusion = passthrough_fusion(["device", "m0"])
        req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=2.5,
                            features=np.zeros((148, 40), dtype=np.float32))
        resp = verify_request(req, members, fusion, theta_cloud=0.5)
        assert resp.verdict is Verdict.ACCEPT


def old_verify_response(req, members, fusion, theta_cloud=0.5):
    """The per-member verification path that the ensemble core replaced:
    each member's fn, clamped log-odds, fused one vector at a time."""
    fm = FeatureMatrix(req.features, req.config_id)
    values = [req.device_log_odds] + [log_odds(*softmax2(m.fn(fm))) for m in members]
    z = LogOddsVector(np.array(values), ("device",) + tuple(m.member_id for m in members))
    p_pos, _ = softmax2(fuse(z, fusion))
    verdict = Verdict.ACCEPT if np.float32(p_pos) >= theta_cloud else Verdict.REJECT
    return VerifyResponse(verdict, p_pos, z.values.astype(np.float32))


def small_gru_server(**kwargs):
    """A server with one real (small) GRU member that passes the device score through."""
    member = make_scorer(init_gru_scorer(CLOUD, hidden=8, layers=1, seed=0), "g")
    return VerificationServer([member], passthrough_fusion(["device", "g"]), **kwargs)


class TestEnsembleCoreOnTheWire:
    def test_zero_weight_responses_bit_identical(self):
        members = [zero_weight_member("m0"), zero_weight_member("m1")]
        rng = np.random.default_rng(12)
        for weight_on in (0, 1):
            fusion = passthrough_fusion(["device", "m0", "m1"], weight_on=weight_on)
            server = VerificationServer(members, fusion)
            for _ in range(20):
                req = VerifyRequest(config_id=CLOUD.config_id,
                                    device_log_odds=float(rng.normal() * 5),
                                    features=rng.normal(size=(148, 40)))
                want = encode_response(old_verify_response(req, members, fusion))
                assert encode_response(verify_request(req, members, fusion)) == want
                assert server.handle_frame(encode_request(req)) == (want, True)

    def test_gru_member_matches_per_member_path(self):
        server = small_gru_server()
        rng = np.random.default_rng(13)
        req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=0.7,
                            features=rng.normal(size=(148, 40)))
        got = server.verify(req)
        want = old_verify_response(req, server.members, server.fusion)
        assert got.verdict is want.verdict
        assert abs(got.fused_p_pos - want.fused_p_pos) <= 1e-6
        np.testing.assert_allclose(got.member_log_odds, want.member_log_odds, atol=1e-6)

    @pytest.mark.parametrize("shape", [(148, 13), (1480, 40), (147, 40), (0, 40)])
    def test_wrong_request_shape_gets_error(self, shape):
        server = small_gru_server()
        assert server.input_shape == (148, 40)
        req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=1.0,
                            features=np.zeros(shape, dtype=np.float32))
        response, keep = server.handle_frame(encode_request(req))
        assert not keep
        assert decode_response(response).verdict is Verdict.ERROR

    def test_request_at_another_config_gets_error_before_any_member(self):
        calls = []

        def counted(fm):
            calls.append(fm)
            return ScorePair(0.0, 0.0)

        server = VerificationServer([Scorer("m0", CLOUD.config_id, counted)],
                                    passthrough_fusion(["device", "m0"]))
        good = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=1.0,
                             features=np.zeros((148, 40), dtype=np.float32))
        response, keep = server.handle_frame(encode_request(good))
        assert keep and decode_response(response).verdict is Verdict.ACCEPT and len(calls) == 1
        for config_id in (DEVICE.config_id, 3, 255):
            req = VerifyRequest(config_id=config_id, device_log_odds=1.0,
                                features=np.zeros((148, 40), dtype=np.float32))
            with pytest.raises(ModelError, match=f"request carries {config_id}"):
                server.verify(req)
            response, keep = server.handle_frame(encode_request(req))
            assert not keep
            assert decode_response(response).verdict is Verdict.ERROR
        assert len(calls) == 1

    @pytest.mark.parametrize("flags,key", [(0x06, None), (0x80, None), (0x03, 0x5EED)],
                             ids=["bits-1-2", "bit-7", "bit-1-and-bit-0-keyed"])
    def test_undefined_flag_bits_get_error_before_any_member(self, flags, key):
        # version 1 defines bit 0 of the flags byte only
        calls = []

        def counted(fm):
            calls.append(fm)
            return ScorePair(0.0, 0.0)

        server = VerificationServer([Scorer("m0", CLOUD.config_id, counted)],
                                    passthrough_fusion(["device", "m0"]), key=key)
        good = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=1.0,
                             features=np.zeros((148, 40), dtype=np.float32))
        with pytest.raises(ProtocolError, match=f"undefined flag bits {flags:#04x}"):
            encode_request(dataclasses.replace(good, flags=flags), key=key)
        frame = bytearray(encode_request(good, key=key))
        frame[10] = flags  # the flags byte follows magic, length, version and config
        with pytest.raises(ProtocolError, match=f"undefined flag bits {flags:#04x}"):
            decode_request(bytes(frame), key=key)
        assert server.handle_frame(bytes(frame)) == (wire._ERROR_FRAME, False)
        assert calls == []

    def test_failing_member_gets_error(self):
        def broken(fm):
            raise RuntimeError("member crashed")

        members = [Scorer("m0", CLOUD.config_id, broken)]
        server = VerificationServer(members, passthrough_fusion(["device", "m0"]))
        req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=1.0,
                            features=np.zeros((148, 40), dtype=np.float32))
        response, keep = server.handle_frame(encode_request(req))
        assert not keep
        assert decode_response(response).verdict is Verdict.ERROR

    def test_concurrent_requests_share_the_core(self):
        server = small_gru_server()
        rng = np.random.default_rng(14)
        reqs = [VerifyRequest(config_id=CLOUD.config_id, device_log_odds=float(i),
                              features=rng.normal(size=(148, 40))) for i in range(8)]
        want = [encode_response(server.verify(r)) for r in reqs]
        got = [[] for _ in reqs]

        def worker(k):
            for _ in range(3):
                got[k].append(server.handle_frame(encode_request(reqs[k]))[0])

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(reqs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 3 for w in want]

    def test_loopback_wrong_shapes_then_good_request(self):
        server = small_gru_server()
        addr = server.start()
        try:
            for shape in ((148, 13), (1480, 40)):
                bad = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=1.0,
                                    features=np.zeros(shape, dtype=np.float32))
                assert request_verification(addr, bad).verdict is Verdict.ERROR
            good = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=10.0,
                                 features=np.zeros((148, 40), dtype=np.float32))
            assert request_verification(addr, good).verdict is Verdict.ACCEPT
        finally:
            server.shutdown()


def cloud_windows(n, seed):
    """Cloud features (n, 148, 40) of noise-mixed synthetic windows, keyword
    and not in turn, with labels (n,)."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for i in range(n):
        if i % 2 == 0:
            clip = make_positive_clip(rng, clip_s=WINDOW_S)[0]
        else:
            clip = make_negative_clip(rng, clip_s=WINDOW_S)
        noise = peak_normalize(make_noise_clip(rng))
        mixed = mix_at_snr(peak_normalize(clip), noise, float(rng.uniform(0.0, 20.0)))
        feats.append(mfcc(mixed, CLOUD).values)
        labels.append(1 - i % 2)
    return np.stack(feats), np.array(labels)


class TestFloat32Server:
    """The server's stacked members run in float32 (its answer goes out as
    float32); every other caller keeps the float64 core. Against the float64
    ``Ensemble`` plus ``fuse``, each response's p_pos stays within 1e-6, its
    verdict is the float64 one wherever that p_pos lies more than 1e-6 from
    theta_cloud, and its member log-odds stay within ``z_tol``: 1e-6 for GRU
    members, 1e-5 for a trained linear one (see its test)."""

    N_WINDOWS = 50
    TOL = 1e-6

    def check_against_float64(self, members, windows, z_tol=TOL, theta=0.5):
        feats, labels = windows
        ids = ("device",) + tuple(m.member_id for m in members)
        rows = synth_score_task(len(ids), [1.0] * len(ids), 400, np.random.default_rng(1),
                                member_ids=ids)
        fusion = train_fusion(rows, TrainSpec(seed=1, max_epochs=20))
        server = VerificationServer(members, fusion, theta_cloud=theta)
        want_z = Ensemble(members).log_odds({CLOUD.config_id: feats})
        assert want_z.shape == (len(feats), len(members))
        device = np.random.default_rng(2).normal(scale=3.0, size=len(feats))
        for k in range(len(feats)):
            req = VerifyRequest(config_id=CLOUD.config_id, device_log_odds=device[k],
                                features=feats[k])
            z = np.concatenate(([req.device_log_odds], want_z[k]))
            want_p = softmax2(fuse(LogOddsVector(z, ids), fusion))[0]
            got = decode_response(server.handle_frame(encode_request(req))[0])
            assert np.max(np.abs(got.member_log_odds - z)) <= z_tol
            assert abs(got.fused_p_pos - want_p) <= self.TOL
            if abs(want_p - theta) > self.TOL:
                assert (got.verdict is Verdict.ACCEPT) == (want_p >= theta)
        return server

    def test_gru_members_of_both_kinds(self):
        members = [make_scorer(init_gru_scorer(CLOUD, kind=kind, seed=i), name)
                   for i, (name, kind) in enumerate(
                       [("sgru", "sgru"), ("gru-max", "gru-max"), ("sgru2", "sgru")])]
        server = self.check_against_float64(members, cloud_windows(self.N_WINDOWS, 3))
        (_, stack), = server._core._stacks
        assert isinstance(stack, GRUStack) and stack.dtype == np.float32

    def test_linear_cloud_member(self):
        train = cloud_windows(self.N_WINDOWS, 4)
        data = [(FeatureMatrix(x, CLOUD.config_id), int(y)) for x, y in zip(*train)]
        weights = train_classifier(data[:40], data[40:], TrainSpec(seed=0, max_epochs=5))
        member = make_scorer(weights, "lin")
        # Its log-odds are one sum of 5,920 products whose magnitudes add up to
        # about 40, so float32 rounding alone moves them by about 1e-6
        # (measured 1.5e-6); the fused p_pos still stays within 1e-6.
        server = self.check_against_float64([member], cloud_windows(self.N_WINDOWS, 5),
                                            z_tol=1e-5)
        (_, stack), = server._core._stacks
        assert isinstance(stack, LinearStack) and stack.dtype == np.float32

    def test_other_callers_keep_float64(self):
        device = make_scorer(init_gru_scorer(DEVICE, hidden=8, layers=1), "d")
        member = make_scorer(init_gru_scorer(CLOUD, hidden=8, layers=1, seed=0), "g")
        row_core = _row_core(device, [member])[0]
        for core in (Ensemble([member]), DeviceAgent(device)._core, row_core):
            assert all(stack.dtype == np.float64 for _, stack in core._stacks)


class TestReadFrame:
    def frame(self):
        req = VerifyRequest(config_id=2, device_log_odds=0.5,
                            features=np.arange(12, dtype=np.float32).reshape(3, 4))
        return encode_request(req)

    @pytest.mark.parametrize("step", [1, 3, 1000])
    def test_short_reads_assemble_the_frame(self, step):
        frame = self.frame()
        sock = FakeSocket(frame + frame, step)
        assert read_frame(sock, len(frame) - 8) == frame
        assert read_frame(sock, len(frame) - 8) == frame
        with pytest.raises(EOFError):
            read_frame(sock, len(frame) - 8)

    def test_truncated_body(self):
        frame = self.frame()
        with pytest.raises(ProtocolError, match="stream ended inside the frame body"):
            read_frame(FakeSocket(frame[:-1]), len(frame))
        with pytest.raises(ProtocolError, match="stream ended inside the frame body"):
            read_frame(FakeSocket(frame[:-5], 2), len(frame))

    def test_truncated_header_and_bad_magic(self):
        with pytest.raises(ProtocolError, match="stream ended inside the frame header"):
            read_frame(FakeSocket(b"WUWP\x01"), 64)
        with pytest.raises(ProtocolError, match="bad frame magic"):
            read_frame(FakeSocket(b"XXXX" + struct.pack("<I", 0)), 64)

    def test_declared_length_over_cap(self):
        # the largest length a header can declare, at each end's bound
        for bound in (23699, wire._MAX_RESPONSE_BODY):
            sock = FakeSocket(b"WUWP" + struct.pack("<I", 0xFFFFFFFF))
            refusal = f"declared body of 4294967295 bytes exceeds the bound of {bound}"
            with pytest.raises(ProtocolError, match=refusal):
                read_frame(sock, bound)
            assert sock.asked == [8]

    def test_declared_length_one_byte_over_the_bound(self):
        frame = self.frame()
        sock = FakeSocket(frame)
        with pytest.raises(ProtocolError, match=f"declared body of {len(frame) - 8} bytes"):
            read_frame(sock, len(frame) - 9)
        assert sock.pos == 8  # no body byte read
        assert read_frame(FakeSocket(frame), len(frame) - 8) == frame

    def test_the_first_byte_starts_the_frame_deadline(self, monkeypatch):
        # One byte a recv, each 0.3 s after the last on a fake clock: the
        # first read may wait READ_TIMEOUT_S, each later one only what is
        # left of READ_TIMEOUT_S after the first byte, and the frame's fifth
        # byte would come after that deadline.
        clock = [0.0]
        monkeypatch.setattr(wire, "READ_TIMEOUT_S", 1.0)
        monkeypatch.setattr(wire, "time", types.SimpleNamespace(monotonic=lambda: clock[0]))
        sock = FakeSocket(self.frame(), 1, clock=clock, delay=0.3)
        with pytest.raises(TimeoutError):
            read_frame(sock, 64)
        assert sock.pos == 4
        assert sock.timeouts == pytest.approx([1.0, 1.0, 0.7, 0.4, 0.1])
