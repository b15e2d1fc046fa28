"""Lightweight parametric MFCC extraction.

Per frame: rectangular window, zero-padded FFT power spectrum, triangular
mel filterbank, log with a small floor, orthonormal DCT-II, keep the first
``n_mfcc`` coefficients, then overwrite coefficient 0 with the frame's raw
log energy. No pre-emphasis and no feature normalization happen here;
standardization is the classifier's concern.

Coefficient 0 is ln(sum of x^2 over the frame's samples + LOG_FLOOR): a
sum, not a mean, so it depends on the frame length (a 100 ms frame sits
ln(100/30) above a 30 ms frame of the same signal) and moves by 2 ln g when
the samples are scaled by g. Callers that want a fixed level must set it on
the samples before extraction.

The mel projection (frames x bins @ bins x filters) is issued in row blocks
of at most ``_GEMM_MAX_MNK`` multiply-adds each. One 1.5 s window is above
that at both presets (device 29 x 1025 x 40, cloud 148 x 257 x 40), and
OpenBLAS would run such a gemm on every core and leave its workers spinning
after it. A row's sums run over the bins in the same order whichever block
it sits in, so the features are bit-identical to one whole-matrix product
(the tests check this), and a frame's row does not depend on the clip it
was cut from.

Frames are a read-only strided view of the clip's samples (frame i starts
at sample i * hop); nothing is copied to cut them.

The DCT is one product with the first ``n_mfcc`` columns of the cached
orthonormal DCT-II matrix, issued through the same row blocks, so a row's
coefficients do not depend on how many rows share the call either. Each
coefficient is the same sum over the same filters as in the full transform,
and the features are bit-identical to slicing it (the tests check this);
``dct2_ortho`` stays the full transform. A product that fits in one block
is a single ``np.matmul``, so the few frames of a streaming feed pay no
blocking overhead. This module, like every ``wuw`` module, imports no
scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .audio import CANONICAL_RATE_HZ, AudioClip
from .errors import DataError

# Floor added before every log so zero-energy frames stay finite.
LOG_FLOOR = 1e-10

# OpenBLAS, the BLAS numpy ships with, runs a gemm on every core once
# m * n * k exceeds 2**18, and its idle workers then spin for tens of
# milliseconds. A verification server sharing a two-core machine with a
# scanning device would lose a core to that spin after every request, so the
# MFCC mel projection and the GRU kernel in ``nnet`` issue each matmul below
# this size. Measured on two cores, three 2x128 members over one 148-frame
# window: 16.2 ms this way, 15.4 ms with threaded projections, whose CPU time
# is then twice their wall time.
_GEMM_MAX_MNK = 1 << 18

_MEL_SCALE = 1127.0
_MEL_BREAK_HZ = 700.0


def hz_to_mel(f):
    return _MEL_SCALE * np.log1p(np.asarray(f, dtype=np.float64) / _MEL_BREAK_HZ)


def mel_to_hz(m):
    return _MEL_BREAK_HZ * np.expm1(np.asarray(m, dtype=np.float64) / _MEL_SCALE)


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


@dataclass(frozen=True)
class FeatureConfig:
    """A parametric MFCC recipe; ``config_id`` tags its outputs."""

    config_id: int
    n_mfcc: int
    window_ms: int
    hop_ms: int
    n_filters: int = 40
    sample_rate_hz: int = CANONICAL_RATE_HZ

    def __post_init__(self):
        if not (1 <= self.n_mfcc <= self.n_filters):
            raise ValueError("need n_filters >= n_mfcc >= 1")
        if self.hop_ms > self.window_ms or self.hop_ms <= 0:
            raise ValueError("need 0 < hop_ms <= window_ms")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms * self.sample_rate_hz / 1000))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_ms * self.sample_rate_hz / 1000))

    @property
    def fft_len(self) -> int:
        """The FFT length: the smallest power of two that holds a window."""
        return _next_pow2(self.window_samples)


# On-device detection preset and server-side verification preset, plus the
# alternative resolutions kept for benchmarking.
DEVICE = FeatureConfig(config_id=1, n_mfcc=13, window_ms=100, hop_ms=50)
CLOUD = FeatureConfig(config_id=2, n_mfcc=40, window_ms=30, hop_ms=10)

PRESETS: dict[int, FeatureConfig] = {
    cfg.config_id: cfg
    for cfg in (
        DEVICE,
        CLOUD,
        FeatureConfig(config_id=3, n_mfcc=13, window_ms=100, hop_ms=20),
        FeatureConfig(config_id=4, n_mfcc=13, window_ms=30, hop_ms=10),
        FeatureConfig(config_id=5, n_mfcc=13, window_ms=20, hop_ms=10),
    )
}


def preset(config_id: int) -> FeatureConfig:
    try:
        return PRESETS[config_id]
    except KeyError:
        raise DataError(f"unknown feature config id {config_id}") from None


@dataclass(eq=False)
class FeatureMatrix:
    """frames x coeffs float32 grid, tagged with the producing config."""

    values: np.ndarray
    config_id: int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise DataError(f"feature matrix must be 2-D, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise DataError("feature matrix contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]

    @property
    def n_coeffs(self) -> int:
        return self.values.shape[1]


def frame_count(n_samples: int, window: int, hop: int) -> int:
    """Number of full analysis frames: floor((n - window) / hop) + 1."""
    if hop < 1:
        raise ValueError("hop must be >= 1")
    if n_samples < window:
        raise DataError(f"clip too short: {n_samples} samples < window {window}")
    return (n_samples - window) // hop + 1


def power_spectrum(frame: np.ndarray, fft_len: int) -> np.ndarray:
    """Magnitude-squared of the first fft_len/2 + 1 FFT bins (rectangular window)."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 1 or frame.size > fft_len:
        raise ValueError("frame must be 1-D and no longer than fft_len")
    return np.square(np.abs(np.fft.rfft(frame, n=fft_len)))


@lru_cache(maxsize=None)
def mel_filterbank(config: FeatureConfig) -> np.ndarray:
    """Triangular filters with peaks equally mel-spaced between 0 Hz and Nyquist.

    Peak positions are converted to FFT bins with floor(f / rate * fft_len);
    every row's maximum is exactly 1.0. The matrix is cached per config and
    safe to share read-only.
    """
    nyquist = config.sample_rate_hz / 2.0
    points_mel = np.linspace(0.0, float(hz_to_mel(nyquist)), config.n_filters + 2)
    points_hz = mel_to_hz(points_mel)
    bins = np.floor(points_hz / config.sample_rate_hz * config.fft_len).astype(int)

    fb = np.zeros((config.n_filters, config.fft_len // 2 + 1))
    for i in range(config.n_filters):
        left, mid, right = bins[i], bins[i + 1], bins[i + 2]
        if mid > left:
            fb[i, left:mid] = np.arange(mid - left) / (mid - left)
        if right > mid:
            fb[i, mid:right] = (right - np.arange(mid, right)) / (right - mid)
        else:
            fb[i, mid] = 1.0
    fb.flags.writeable = False
    return fb


@lru_cache(maxsize=None)
def _dct_matrix(n: int) -> np.ndarray:
    """The orthonormal DCT-II as an (n, n) matrix D, so that ``x @ D`` is
    the transform of rows x: D[i, k] = s_k cos(pi k (2i + 1) / 2n), with
    s_0 = sqrt(1/n) and s_k = sqrt(2/n) otherwise. The angle is reduced
    modulo 2 pi in integers before the cosine. Cached per length and safe
    to share read-only.
    """
    i = np.arange(n)
    turns = np.outer(2 * i + 1, i) % (4 * n)  # angle / (pi / 2n), mod 2 pi
    d = np.cos(np.pi * turns / (2 * n)) * np.sqrt(2.0 / n)
    d[:, 0] = np.sqrt(1.0 / n)
    d.flags.writeable = False
    return d


@lru_cache(maxsize=None)
def _dct_columns(n: int, m: int) -> np.ndarray:
    """The first m columns of ``_dct_matrix(n)``, (n, m) C-contiguous: the
    coefficients mfcc() keeps. Cached and safe to share read-only."""
    d = np.ascontiguousarray(_dct_matrix(n)[:, :m])
    d.flags.writeable = False
    return d


def dct2_ortho(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II over the last axis, the decorrelating transform
    used by mfcc(). Each row is one product with ``_dct_matrix``, so its
    coefficients do not depend on the other rows of the call."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    return _matmul_rows(x.reshape(-1, n), _dct_matrix(n)).reshape(x.shape)


def _gemm_block_rows(k: int, n: int) -> int:
    """Rows m of an (m, k) @ (k, n) product that keep m * k * n at most
    ``_GEMM_MAX_MNK`` (at least 1)."""
    return max(1, _GEMM_MAX_MNK // (k * n))


def _matmul_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a (..., R, K) @ w (..., K, N) -> (..., R, N), float64, issued in row
    blocks of at most ``_GEMM_MAX_MNK`` multiply-adds each. Rows that fit in
    one block are one plain ``np.matmul``, the same call the loop makes."""
    k, n = w.shape[-2:]
    rows = a.shape[-2]
    block = _gemm_block_rows(k, n)
    if rows <= block:
        return np.matmul(a, w)
    out = np.empty(np.broadcast_shapes(a.shape[:-2], w.shape[:-2]) + (rows, n))
    for s in range(0, rows, block):
        np.matmul(a[..., s : s + block, :], w, out=out[..., s : s + block, :])
    return out


def mfcc(clip: AudioClip, config: FeatureConfig) -> FeatureMatrix:
    """Extract an MFCC matrix of shape (frame_count, n_mfcc)."""
    if clip.sample_rate_hz != config.sample_rate_hz:
        raise DataError(
            f"clip rate {clip.sample_rate_hz} != config rate {config.sample_rate_hz}"
        )
    window, hop = config.window_samples, config.hop_samples
    n_frames = frame_count(len(clip), window, hop)

    x = clip.samples
    step = x.strides[0]
    frames = np.lib.stride_tricks.as_strided(
        x, (n_frames, window), (hop * step, step), writeable=False
    )

    spectra = np.square(np.abs(np.fft.rfft(frames, n=config.fft_len, axis=1)))
    energies = _matmul_rows(spectra, mel_filterbank(config).T)
    energies += LOG_FLOOR
    log_energies = np.log(energies, out=energies)
    cepstra = _matmul_rows(log_energies, _dct_columns(config.n_filters, config.n_mfcc))
    cepstra[:, 0] = np.log(np.add.reduce(np.square(frames), axis=1) + LOG_FLOOR)
    return FeatureMatrix(cepstra.astype(np.float32), config.config_id)
