"""Audio ingestion, fixed-window extraction, and noise/reverb augmentation.

All operations are pure functions of their inputs plus an explicit
``numpy.random.Generator``, so they are safe to call from many threads.
Samples are float64 in nominal range [-1, 1]. Noise mixtures are not
rescaled, so a mixture at low SNR can exceed that range; nothing downstream
clips. ``CANONICAL_RATE_HZ`` is the one rate that MFCC extraction accepts.

This module, like every ``wuw`` module, imports no scipy: numpy is the only
runtime dependency.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, WavChannelError, WavEncodingError, WavFormatError

CANONICAL_RATE_HZ = 16000

# Detection/training analysis window, in seconds.
WINDOW_S = 1.5

# Mixing SNR range used for augmentation, in dB.
SNR_RANGE_DB = (-10.0, 50.0)

_WAV_FMT_PCM = 1
_WAV_FMT_FLOAT = 3


@dataclass(eq=False)
class AudioClip:
    """Mono sample buffer plus its sample rate. Treat as immutable."""

    samples: np.ndarray
    sample_rate_hz: int = CANONICAL_RATE_HZ

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise DataError(f"clip must be mono 1-D, got shape {self.samples.shape}")
        if self.samples.size and not np.isfinite(self.samples).all():
            raise DataError("clip contains non-finite samples")
        if self.sample_rate_hz <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate_hz}")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class AlignmentSpan:
    """Keyword interval inside a clip, in seconds: 0 <= start_s < end_s < inf."""

    start_s: float
    end_s: float

    def __post_init__(self):
        # a NaN bound fails every comparison, an infinite one the outer ones
        if not 0 <= self.start_s < self.end_s < math.inf:
            raise DataError(f"invalid span [{self.start_s}, {self.end_s}]")


def read_wav(path) -> AudioClip:
    """Read a mono RIFF/WAVE file (PCM16 or IEEE float32).

    PCM16 samples are scaled by 1/32768 into [-1, 1). Any sample rate is
    accepted here; downstream feature extraction enforces its own rate.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    # Chunk bodies are views into the file bytes, not copies of them.
    view = memoryview(data)
    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavFormatError(f"{path}: truncated '{chunk_id!r}' chunk")
        if chunk_id == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")

    format_code, channels, rate, _byte_rate, _block_align, bits = fmt
    if channels != 1:
        raise WavChannelError(f"{path}: expected mono, got {channels} channels")

    if format_code == _WAV_FMT_PCM and bits == 16:
        if len(payload) % 2:
            raise WavFormatError(f"{path}: PCM16 data chunk has odd byte length")
        samples = np.frombuffer(payload, dtype="<i2").astype(np.float64)
        samples /= 32768.0
    elif format_code == _WAV_FMT_FLOAT and bits == 32:
        if len(payload) % 4:
            raise WavFormatError(f"{path}: float32 data chunk length not a multiple of 4")
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    else:
        raise WavEncodingError(
            f"{path}: unsupported encoding (format {format_code}, {bits} bits)"
        )
    return AudioClip(samples, rate)


def write_wav(clip: AudioClip, path) -> None:
    """Write a mono IEEE float32 WAV file. ``read_wav`` gives back each
    sample rounded to float32; PCM16 is read, never written."""
    payload = clip.samples.astype("<f4").tobytes()
    rate = clip.sample_rate_hz
    fmt = struct.pack("<HHIIHH", _WAV_FMT_FLOAT, 1, rate, rate * 4, 4, 32)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    Path(path).write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def peak_normalize(clip: AudioClip) -> AudioClip:
    """Scale so the largest absolute sample is 1.0; silence passes through."""
    if len(clip) == 0:
        return clip
    peak = float(np.max(np.abs(clip.samples)))
    if peak == 0.0:
        return clip
    return AudioClip(clip.samples / peak, clip.sample_rate_hz)


def measure_power(clip: AudioClip) -> float:
    """Mean-square power of the clip."""
    if len(clip) == 0:
        raise DataError("cannot measure power of an empty clip")
    return float(np.mean(np.square(clip.samples)))


def extract_window(
    clip: AudioClip,
    span: AlignmentSpan | None = None,
    rng: np.random.Generator | None = None,
) -> AudioClip:
    """Cut a ``WINDOW_S`` window out of a clip, as many samples as that is
    at the clip's own rate.

    With a span, the window is placed uniformly at random among positions
    that fully contain the span; a span longer than the window centers the
    window on the span midpoint. Without a span, placement is uniform.
    Clips shorter than the window are zero-padded symmetrically.

    A random placement draws from ``rng`` and raises ValueError when it is
    None, so no call draws hidden entropy. The placements that draw nothing
    need no ``rng``: a clip of exactly the window's length, a padded clip,
    a span longer than the window, and a single valid start.
    """
    if len(clip) == 0:
        raise DataError("cannot extract a window from an empty clip")

    rate = clip.sample_rate_hz
    target = int(round(WINDOW_S * rate))
    n = len(clip)

    s0 = s1 = None
    if span is not None:
        s0 = int(round(span.start_s * rate))
        s1 = int(round(span.end_s * rate))
        if s0 < 0 or s1 > n or s1 <= s0:
            raise DataError(f"span [{span.start_s}, {span.end_s}] s outside clip")
        if s1 - s0 > target:
            # Keyword longer than the window: center on the span midpoint.
            start = (s0 + s1 - target) // 2
            start = min(max(start, 0), n - target)
            return AudioClip(clip.samples[start : start + target], rate)

    if n == target:
        return clip
    if n < target:
        pad = target - n
        left = pad // 2
        out = np.zeros(target, dtype=np.float64)
        out[left : left + n] = clip.samples
        return AudioClip(out, rate)

    if span is not None:
        lo = max(0, s1 - target)
        hi = min(s0, n - target)
    else:
        lo, hi = 0, n - target
    if hi > lo:
        if rng is None:
            raise ValueError("a random window placement needs an rng")
        start = int(rng.integers(lo, hi + 1))
    else:
        start = lo
    return AudioClip(clip.samples[start : start + target], rate)


def mix_at_snr(
    signal: AudioClip, noise: AudioClip, snr_db: float, signal_power: float | None = None
) -> AudioClip:
    """Add noise to the signal at an exact signal-to-noise ratio.

    The noise is tiled (wrapped) or cropped to the signal length first, so
    the realized SNR of the two addends equals ``snr_db``. Noise at least as
    long as the signal is cropped without a copy. A caller that has already
    measured the signal's power passes it as ``signal_power``
    (``measure_power(signal)``), and the signal is not squared again.
    """
    if signal.sample_rate_hz != noise.sample_rate_hz:
        raise DataError("signal and noise sample rates differ")
    if len(signal) == 0 or len(noise) == 0:
        raise DataError("signal and noise must be non-empty")

    reps = -(-len(signal) // len(noise))
    tiled = (noise.samples if reps == 1 else np.tile(noise.samples, reps))[: len(signal)]

    p_signal = measure_power(signal) if signal_power is None else signal_power
    p_noise = float(np.mean(np.square(tiled)))
    if p_signal == 0.0 or p_noise == 0.0:
        raise DataError("SNR undefined for zero-power signal or noise")

    gain = np.sqrt(p_signal / (p_noise * 10.0 ** (snr_db / 10.0)))
    return AudioClip(signal.samples + gain * tiled, signal.sample_rate_hz)


def _fast_rfft_len(n: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= n, the length that
    ``scipy.fft.next_fast_len(n, real=True)`` picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2**a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def convolve_rir(clip: AudioClip, rir: AudioClip) -> AudioClip:
    """Convolve with a room impulse response, keep the original length, renormalize."""
    if clip.sample_rate_hz != rir.sample_rate_hz:
        raise DataError("clip and RIR sample rates differ")
    if len(clip) == 0 or len(rir) == 0:
        raise DataError("clip and RIR must be non-empty")
    x, h = clip.samples, rir.samples
    if len(x) == 1 or len(h) == 1:
        # A length-1 operand is a scaling, which scipy.signal.fftconvolve
        # multiplies directly; the first len(x) samples are x * h[0].
        wet = x * h[0]
    else:
        # The FFT length and the calls that scipy.signal.fftconvolve makes
        # for two real 1-D inputs. numpy.fft (numpy >= 2) runs the same
        # pocketfft code as scipy.fft, so the wet samples are bit-identical.
        n = _fast_rfft_len(len(x) + len(h) - 1)
        wet = np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(h, n), n)
    return peak_normalize(AudioClip(wet[: len(x)], clip.sample_rate_hz))


def draw_snr(rng: np.random.Generator) -> float:
    """Draw a mixing SNR uniformly from the augmentation range."""
    return float(rng.uniform(*SNR_RANGE_DB))
