"""Lightweight parametric MFCC extraction.

Per frame: rectangular window, zero-padded FFT power spectrum, triangular
mel filterbank, log with a small floor, orthonormal DCT-II, keep the first
``n_mfcc`` coefficients, then overwrite coefficient 0 with the frame's raw
log energy. No pre-emphasis and no feature normalization happen here;
standardization is the classifier's concern.

Every config reads ``CANONICAL_RATE_HZ`` audio (``mfcc`` refuses another
rate) through the same ``N_FILTERS`` mel filters up to Nyquist; configs
differ only in ``n_mfcc``, ``window_ms`` and ``hop_ms``.

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

Frames are one strided ``np.ndarray`` view of the clip's samples (frame i
starts at sample i * hop); nothing is copied to cut them, unless the
samples themselves are not contiguous, in which case they are copied once.

Coefficient 0 squares each sample that a frame covers once, not once per
frame that covers it: one ``np.square`` pass over those samples, viewed as
the same frames, then ``np.add.reduce`` along each row. Each row holds the
same squares in the same order as the squared frame would, and the row sum
is the same pairwise summation over them, so c0 is bit-identical to summing
``np.square(frame)`` frame by frame (the tests check this).

The window and hop lengths, the FFT length, the transposed filterbank and
the DCT columns are looked up once per config (``_plan``), so a call of a
few frames, as each streaming feed makes, pays for its arithmetic and not
for recomputing them.

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

# Triangular mel filters of every config; no config keeps more coefficients.
N_FILTERS = 40

_MEL_SCALE = 1127.0
_MEL_BREAK_HZ = 700.0


def hz_to_mel(f):
    return _MEL_SCALE * np.log1p(np.asarray(f, dtype=np.float64) / _MEL_BREAK_HZ)


def mel_to_hz(m):
    return _MEL_BREAK_HZ * np.expm1(np.asarray(m, dtype=np.float64) / _MEL_SCALE)


@dataclass(frozen=True)
class FeatureConfig:
    """A parametric MFCC recipe; ``config_id`` tags its outputs."""

    config_id: int
    n_mfcc: int
    window_ms: int
    hop_ms: int

    def __post_init__(self):
        if not (1 <= self.n_mfcc <= N_FILTERS):
            raise ValueError(f"need {N_FILTERS} >= n_mfcc >= 1")
        if self.hop_ms > self.window_ms or self.hop_ms <= 0:
            raise ValueError("need 0 < hop_ms <= window_ms")

    @property
    def window_samples(self) -> int:
        return int(round(self.window_ms * CANONICAL_RATE_HZ / 1000))

    @property
    def hop_samples(self) -> int:
        return int(round(self.hop_ms * CANONICAL_RATE_HZ / 1000))

    @property
    def fft_len(self) -> int:
        """The FFT length: the smallest power of two that holds a window."""
        return 1 << (self.window_samples - 1).bit_length()


# On-device detection preset and server-side verification preset. Presets
# 3-5 are further resolutions: a weight store may name one by its config id,
# and the offline loops then extract it, but ``wuw train`` and the benchmark
# use only the first two.
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
    nyquist = CANONICAL_RATE_HZ / 2.0
    points_mel = np.linspace(0.0, float(hz_to_mel(nyquist)), N_FILTERS + 2)
    points_hz = mel_to_hz(points_mel)
    bins = np.floor(points_hz / CANONICAL_RATE_HZ * config.fft_len).astype(int)

    fb = np.zeros((N_FILTERS, config.fft_len // 2 + 1))
    for i in range(N_FILTERS):
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
    """a (..., R, K) @ w (..., K, N) -> (..., R, N) in ``np.matmul``'s result
    type, issued in row blocks of at most ``_GEMM_MAX_MNK`` multiply-adds
    each. Rows that fit in one block are one plain ``np.matmul``, the same
    call the loop makes."""
    k, n = w.shape[-2:]
    rows = a.shape[-2]
    block = _gemm_block_rows(k, n)
    if rows <= block:
        return np.matmul(a, w)
    out = np.empty(np.broadcast_shapes(a.shape[:-2], w.shape[:-2]) + (rows, n),
                   dtype=np.result_type(a, w))
    for s in range(0, rows, block):
        np.matmul(a[..., s : s + block, :], w, out=out[..., s : s + block, :])
    return out


@lru_cache(maxsize=None)
def _plan(config: FeatureConfig) -> tuple:
    """What ``mfcc`` reads of a config on every call, worked out once:
    (window, hop, fft_len, filterbank transposed, DCT columns). The DCT
    columns are the first ``n_mfcc`` columns of ``_dct_matrix(N_FILTERS)``,
    copied once into a C-contiguous array. Both arrays are read-only."""
    dct = np.ascontiguousarray(_dct_matrix(N_FILTERS)[:, : config.n_mfcc])
    dct.flags.writeable = False
    return (config.window_samples, config.hop_samples, config.fft_len,
            mel_filterbank(config).T, dct)


def _frames(x: np.ndarray, n_frames: int, window: int, hop: int) -> np.ndarray:
    """The (n_frames, window) view of C-contiguous samples x whose row i
    starts at sample i * hop."""
    return np.ndarray((n_frames, window), x.dtype, x, 0, (hop * x.itemsize, x.itemsize))


def mfcc(clip: AudioClip, config: FeatureConfig) -> FeatureMatrix:
    """Extract an MFCC matrix of shape (frame_count, n_mfcc)."""
    if clip.sample_rate_hz != CANONICAL_RATE_HZ:
        raise DataError(f"clip rate {clip.sample_rate_hz} != feature rate {CANONICAL_RATE_HZ}")
    window, hop, fft_len, mel_t, dct = _plan(config)
    x = np.ascontiguousarray(clip.samples)
    n_frames = frame_count(x.size, window, hop)
    frames = _frames(x, n_frames, window, hop)

    spectra = np.square(np.abs(np.fft.rfft(frames, n=fft_len, axis=1)))
    energies = _matmul_rows(spectra, mel_t)
    energies += LOG_FLOOR
    log_energies = np.log(energies, out=energies)
    cepstra = _matmul_rows(log_energies, dct)
    squares = np.square(x[: (n_frames - 1) * hop + window])
    c0 = np.add.reduce(_frames(squares, n_frames, window, hop), axis=1)
    c0 += LOG_FLOOR
    cepstra[:, 0] = np.log(c0, out=c0)
    return FeatureMatrix(cepstra.astype(np.float32), config.config_id)
