"""Synthetic keyword-spotting task: chirp keywords against shaped noise.

Generates WAV files plus a JSONL manifest so the full pipeline (training,
evaluation, streaming detection, verification) can run without a speech
corpus. Everything is driven by one seed and fully reproducible. The command
line entry is ``wuw synth`` (``cli.cmd_synth``); this module has none of its
own. All audio is made at ``CANONICAL_RATE_HZ``, the one rate that feature
extraction accepts. Like every ``wuw`` module, this one imports no scipy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .audio import CANONICAL_RATE_HZ, AudioClip, write_wav
from .features import _matmul_rows

CHIRP_F0_HZ = 1000.0
CHIRP_F1_HZ = 4000.0

# Length of a keyword, and of the negative clips' noise burst, in seconds.
KEYWORD_S = 0.6

# Length of a mixing-noise clip, in seconds.
NOISE_CLIP_S = 3.0

# Samples per block of the one-pole filter's in-block GEMM.
_POLE_BLOCK = 16


def _one_pole(x: np.ndarray, a: float) -> np.ndarray:
    """y[n] = x[n] + a * y[n - 1] from y[-1] = 0, for 1-D x.

    The samples are cut into rows of ``_POLE_BLOCK``. The last output of
    each row, from a zero state, is one product with the filter's step row;
    those outputs obey the same recursion with pole a**_POLE_BLOCK, solved
    the same way, which gives every row's true last output. Each row then
    gets its outputs from one GEMM over [previous row's last output, row].
    Sums run in another order than a sequential loop, so outputs differ
    from it by a few ulp of the peak.
    """
    n = x.size
    full, rem = divmod(n, _POLE_BLOCK)
    rows = np.zeros((full + (rem > 0), 1 + _POLE_BLOCK))
    rows[:full, 1:] = x[: full * _POLE_BLOCK].reshape(full, _POLE_BLOCK)
    rows[full:, 1 : 1 + rem] = x[full * _POLE_BLOCK :]
    lag = np.subtract.outer(np.arange(_POLE_BLOCK), np.arange(_POLE_BLOCK))
    step = np.tril(a ** np.abs(lag))  # step[i, j] = a**(i - j) for j <= i
    if len(rows) > 1:
        last = _matmul_rows(rows[:, 1:], step[-1:].T)[:, 0]
        rows[1:, 0] = _one_pole(last, a**_POLE_BLOCK)[:-1]
    gains = np.vstack([a ** np.arange(1, _POLE_BLOCK + 1), step.T])
    return _matmul_rows(rows, gains).reshape(-1)[:n]


def _shaped_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    """Low-frequency-weighted noise; the negative/background texture."""
    colored = _one_pole(rng.standard_normal(n), 0.9)
    return colored / np.max(np.abs(colored))


def chirp_keyword(rng: np.random.Generator, duration_s: float = KEYWORD_S) -> np.ndarray:
    """The synthetic wake word: a rising sweep under a Hann envelope."""
    t = np.arange(int(duration_s * CANONICAL_RATE_HZ)) / CANONICAL_RATE_HZ
    # A linear sweep from f0 at t = 0 to f1 at duration_s. The phase is
    # written term for term as scipy.signal.chirp writes it, so the samples
    # are bit-identical to that function's.
    beta = (CHIRP_F1_HZ - CHIRP_F0_HZ) / duration_s
    tone = np.cos(2 * np.pi * (CHIRP_F0_HZ * t + 0.5 * beta * t * t))
    envelope = np.hanning(t.size)
    return tone * envelope * rng.uniform(0.6, 0.9)


def make_positive_clip(
    rng: np.random.Generator, clip_s: float = 2.0
) -> tuple[AudioClip, float, float]:
    """A clip holding one keyword at a random position over a quiet floor.

    Returns (clip, start_s, end_s) of the keyword span.
    """
    n = int(clip_s * CANONICAL_RATE_HZ)
    floor = 0.01 * _shaped_noise(rng, n)
    keyword = chirp_keyword(rng)
    start = int(rng.integers(0, n - keyword.size + 1))
    samples = floor.copy()
    samples[start : start + keyword.size] += keyword
    return (
        AudioClip(samples),
        start / CANONICAL_RATE_HZ,
        (start + keyword.size) / CANONICAL_RATE_HZ,
    )


def make_negative_clip(rng: np.random.Generator, clip_s: float = 2.0) -> AudioClip:
    """A keyword-free clip: a shaped-noise burst over the same quiet floor."""
    n = int(clip_s * CANONICAL_RATE_HZ)
    floor = 0.01 * _shaped_noise(rng, n)
    burst = 0.7 * _shaped_noise(rng, int(KEYWORD_S * CANONICAL_RATE_HZ))
    start = int(rng.integers(0, n - burst.size + 1))
    samples = floor.copy()
    samples[start : start + burst.size] += burst * np.hanning(burst.size)
    return AudioClip(samples)


def make_noise_clip(rng: np.random.Generator) -> AudioClip:
    """A mixing-noise clip, ``NOISE_CLIP_S`` long."""
    return AudioClip(0.8 * _shaped_noise(rng, int(NOISE_CLIP_S * CANONICAL_RATE_HZ)))


def make_chirp_task(
    out_dir,
    n_train: int = 500,
    n_valid: int = 100,
    n_test: int = 100,
    seed: int = 0,
) -> Path:
    """Write the synthetic corpus and return the manifest path.

    Each split is roughly 40% keyword clips (with spans), 40% negative
    bursts, and 20% mixing-noise clips. A negative count is a ValueError
    that names its split, raised before anything is written.
    """
    counts = (("train", n_train), ("valid", n_valid), ("test", n_test))
    for split, count in counts:
        if count < 0:
            raise ValueError(f"{split} clip count must be at least 0, got {count}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lines = []
    for split, count in counts:
        for i in range(count):
            kind = i % 5
            name = f"{split}_{i:04d}.wav"
            record: dict = {"path": name, "split": split}
            if kind < 2:
                clip, start_s, end_s = make_positive_clip(rng)
                record.update(label="wuw", start_s=round(start_s, 6),
                              end_s=round(end_s, 6))
            elif kind < 4:
                clip = make_negative_clip(rng)
                record.update(label="other")
            else:
                clip = make_noise_clip(rng)
                record.update(label="noise")
            write_wav(clip, out / name)
            lines.append(json.dumps(record, sort_keys=True))
    manifest = out / "manifest.jsonl"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def make_stream(
    rng: np.random.Generator,
    n_keywords: int = 20,
    gap_s: float = 3.0,
    snr_db: float = 20.0,
) -> tuple[AudioClip, list[int]]:
    """A long background-noise stream with keywords injected ``gap_s`` apart
    at a fixed SNR. Returns the stream and each keyword's start sample.

    The first keyword starts after one full gap, so detectors with a warmup
    window see pure background first.
    """
    gap = int(gap_s * CANONICAL_RATE_HZ)
    total = gap * (n_keywords + 1)
    background = 0.05 * _shaped_noise(rng, total)
    stream = background.copy()
    starts = []
    noise_power = float(np.mean(np.square(background)))
    for k in range(n_keywords):
        keyword = chirp_keyword(rng)
        start = gap * (k + 1)
        kw_power = float(np.mean(np.square(keyword)))
        gain = np.sqrt(noise_power * 10.0 ** (snr_db / 10.0) / kw_power)
        stream[start : start + keyword.size] += gain * keyword
        starts.append(start)
    peak = np.max(np.abs(stream))
    return AudioClip(stream / peak), starts
