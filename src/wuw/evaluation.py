"""Dataset manifests, per-SNR-bucket F1 evaluation, threshold sweeps, and
real-time-factor benchmarking.

Manifests are UTF-8 JSONL, one entry per line:
``{"path": ..., "label": "wuw|other|noise|rir", "split": "train|valid|test",
"start_s": ..., "end_s": ...}`` with the span fields optional.

Evaluation mixes every test sample against a randomly chosen noise entry at
an SNR drawn inside each bucket, so each bucket scores the full test set at
its own noise level. Reports are plain dicts underneath and serialize to
stable JSON for reproducibility checks.

Level contract, shared with the streaming agent: every source file is
peak-normalized once on load; windows cut from it, reverberated copies and
noise mixtures are then scored as they are, with no per-window rescale. The
agent likewise scores its samples as fed.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .audio import (
    SNR_RANGE_DB,
    WINDOW_S,
    AlignmentSpan,
    AudioClip,
    convolve_rir,
    extract_window,
    measure_power,
    mix_at_snr,
    peak_normalize,
    read_wav,
)
from .errors import DataError, ManifestError
from .features import FeatureMatrix, mfcc, preset
from .fusion import Ensemble, FusionModel, LogOddsVector, ScoreDataset, fuse
from .nnet import Scorer, softmax2

LABELS = ("wuw", "other", "noise", "rir")
SPLITS = ("train", "valid", "test")

ScoreFn = Callable[[AudioClip], float]

# build_score_dataset holds the features of at most this many windows at a
# time; the GRU kernel splits a batch further by its own memory budget.
_SCORE_BATCH = 32


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    split: str
    span: AlignmentSpan | None = None


def load_manifest(path, require_alignments: bool = True) -> list[ManifestEntry]:
    """Parse and validate a JSONL manifest; errors name the offending line.

    With ``require_alignments``, keyword entries in the train and valid
    splits must carry a start/end span.
    """
    entries = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise ManifestError(f"{path}:{lineno}: entry must be an object")
        label = obj.get("label")
        if label not in LABELS:
            raise ManifestError(f"{path}:{lineno}: unknown label {label!r}")
        split = obj.get("split")
        if split not in SPLITS:
            raise ManifestError(f"{path}:{lineno}: unknown split {split!r}")
        entry_path = obj.get("path")
        if not entry_path:
            raise ManifestError(f"{path}:{lineno}: missing path")
        span = None
        if obj.get("start_s") is not None or obj.get("end_s") is not None:
            try:
                span = AlignmentSpan(float(obj["start_s"]), float(obj["end_s"]))
            except (KeyError, TypeError, ValueError, DataError):
                raise ManifestError(
                    f"{path}:{lineno}: invalid span "
                    f"[{obj.get('start_s')}, {obj.get('end_s')}]"
                ) from None
        if (
            require_alignments
            and label == "wuw"
            and split in ("train", "valid")
            and span is None
        ):
            raise ManifestError(f"{path}:{lineno}: wuw entry lacks an alignment span")
        entries.append(ManifestEntry(entry_path, label, split, span))
    return entries


def f1(tp: int, fp: int, fn: int) -> float:
    """2tp / (2tp + fp + fn); zero when the denominator vanishes."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be non-negative")
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def macro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean of the positive-class and negative-class F1 scores."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    scores = []
    for cls in (1, 0):
        tp = int(np.sum((y_pred == cls) & (y_true == cls)))
        fp = int(np.sum((y_pred == cls) & (y_true != cls)))
        fn = int(np.sum((y_pred != cls) & (y_true == cls)))
        scores.append(f1(tp, fp, fn))
    return float(np.mean(scores))


def default_buckets(n: int = 6) -> list[tuple[float, float]]:
    """Partition the mixing SNR range into n equal buckets."""
    lo, hi = SNR_RANGE_DB
    edges = np.linspace(lo, hi, n + 1)
    return [(float(edges[i]), float(edges[i + 1])) for i in range(n)]


@dataclass(frozen=True)
class BucketResult:
    snr_lo: float
    snr_hi: float
    tp: int
    fp: int
    fn: int
    f1: float | None  # None marks a bucket with no samples

    def to_dict(self) -> dict:
        return {
            "snr_lo": self.snr_lo,
            "snr_hi": self.snr_hi,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "f1": self.f1,
        }


@dataclass(frozen=True)
class EvalReport:
    buckets: tuple[BucketResult, ...]
    overall_f1: float
    theta: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "seed": self.seed,
            "overall_f1": self.overall_f1,
            "buckets": [b.to_dict() for b in self.buckets],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        rows = [f"{'SNR range':>14}  {'tp':>5} {'fp':>5} {'fn':>5}  {'F1':>7}"]
        for b in self.buckets:
            shown = "absent" if b.f1 is None else f"{b.f1:7.4f}"
            rows.append(
                f"[{b.snr_lo:5.1f},{b.snr_hi:5.1f})  {b.tp:>5} {b.fp:>5} {b.fn:>5}  {shown}"
            )
        rows.append(f"{'overall':>14}  {'':>17}  {self.overall_f1:7.4f}")
        return "\n".join(rows)


class _ClipCache:
    """Loads, peak-normalizes per file, and memoizes manifest audio."""

    def __init__(self, base_dir=None):
        self.base = Path(base_dir) if base_dir else None
        self._clips: dict[str, AudioClip] = {}

    def get(self, path: str) -> AudioClip:
        if path not in self._clips:
            full = self.base / path if self.base else Path(path)
            self._clips[path] = peak_normalize(read_wav(full))
        return self._clips[path]


def _mixed_window(
    entry: ManifestEntry,
    cache: _ClipCache,
    noise_pool: Sequence[ManifestEntry],
    snr_db: float,
    rng: np.random.Generator,
) -> AudioClip:
    clip = cache.get(entry.path)
    span = entry.span if entry.label == "wuw" else None
    window = extract_window(clip, WINDOW_S, span=span, rng=rng)
    noise = cache.get(noise_pool[int(rng.integers(len(noise_pool)))].path)
    # Degenerate silence cannot be mixed at a defined SNR; pass it through.
    if measure_power(window) == 0.0 or measure_power(noise) == 0.0:
        return window
    return mix_at_snr(window, noise, snr_db)


def _split_samples(
    entries: Sequence[ManifestEntry], split: str
) -> tuple[list[ManifestEntry], list[ManifestEntry], list[ManifestEntry]]:
    chosen = [e for e in entries if e.split == split]
    positives = [e for e in chosen if e.label == "wuw"]
    negatives = [e for e in chosen if e.label in ("other", "noise")]
    noise_pool = [e for e in chosen if e.label == "noise"]
    return positives, negatives, noise_pool


def evaluate(
    entries: Sequence[ManifestEntry],
    score_fn: ScoreFn,
    theta: float,
    buckets: Sequence[tuple[float, float]] | None = None,
    seed: int = 0,
    base_dir=None,
) -> EvalReport:
    """Per-SNR-bucket F1 of a pipeline over a manifest's test split."""
    if buckets is None:
        buckets = default_buckets()
    positives, negatives, noise_pool = _split_samples(entries, "test")
    if (positives or negatives) and not noise_pool:
        raise DataError("evaluation needs noise entries in the test split")

    cache = _ClipCache(base_dir)
    rng = np.random.default_rng(seed)
    results = []
    total = np.zeros(3, dtype=int)  # tp, fp, fn
    for lo, hi in buckets:
        tp = fp = fn = 0
        for entry in positives + negatives:
            is_pos = entry.label == "wuw"
            snr = float(rng.uniform(lo, hi))
            window = _mixed_window(entry, cache, noise_pool, snr, rng)
            accepted = score_fn(window) >= theta
            if accepted and is_pos:
                tp += 1
            elif accepted and not is_pos:
                fp += 1
            elif not accepted and is_pos:
                fn += 1
        empty = not (positives or negatives)
        results.append(
            BucketResult(lo, hi, tp, fp, fn, None if empty else f1(tp, fp, fn))
        )
        total += (tp, fp, fn)
    return EvalReport(
        tuple(results), f1(*(int(c) for c in total)), theta, seed
    )


def collect_scores(
    entries: Sequence[ManifestEntry],
    score_fn: ScoreFn,
    seed: int = 0,
    snr_range: tuple[float, float] = SNR_RANGE_DB,
    base_dir=None,
) -> tuple[np.ndarray, np.ndarray]:
    """One scoring pass over the test split at SNRs drawn across the full
    range; returns (scores, labels) for threshold work."""
    positives, negatives, noise_pool = _split_samples(entries, "test")
    if (positives or negatives) and not noise_pool:
        raise DataError("scoring needs noise entries in the test split")
    cache = _ClipCache(base_dir)
    rng = np.random.default_rng(seed)
    scores, labels = [], []
    for entry in positives + negatives:
        snr = float(rng.uniform(*snr_range))
        window = _mixed_window(entry, cache, noise_pool, snr, rng)
        scores.append(score_fn(window))
        labels.append(1 if entry.label == "wuw" else 0)
    return np.array(scores), np.array(labels)


@dataclass(frozen=True)
class SweepPoint:
    theta: float
    precision: float
    recall: float
    f1: float
    best: bool

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "best": self.best,
        }


def threshold_sweep(
    entries: Sequence[ManifestEntry],
    score_fn: ScoreFn,
    thetas: Sequence[float],
    seed: int = 0,
    base_dir=None,
) -> list[SweepPoint]:
    """Score once, then compute precision/recall/F1 for every threshold.

    The F1-maximizing threshold is flagged (first one on ties).
    """
    if not len(thetas):
        raise ValueError("threshold grid must be non-empty")
    scores, labels = collect_scores(entries, score_fn, seed=seed, base_dir=base_dir)
    points = []
    for theta in thetas:
        accepted = scores >= theta
        tp = int(np.sum(accepted & (labels == 1)))
        fp = int(np.sum(accepted & (labels == 0)))
        fn = int(np.sum(~accepted & (labels == 1)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        points.append(SweepPoint(float(theta), precision, recall, f1(tp, fp, fn), False))
    best = max(range(len(points)), key=lambda i: points[i].f1)
    points[best] = SweepPoint(
        points[best].theta, points[best].precision, points[best].recall,
        points[best].f1, True,
    )
    return points


# -- Pipelines ---------------------------------------------------------------

def scorer_pipeline(scorer: Scorer) -> ScoreFn:
    """Window-level p_pos from a single scorer over its own feature config."""
    config = preset(scorer.config_id)

    def score(clip: AudioClip) -> float:
        return softmax2(scorer.fn(mfcc(clip, config)))[0]

    return score


def ensemble_pipeline(
    device_scorer: Scorer,
    members: Sequence[Scorer],
    fusion: FusionModel,
    device_member_id: str = "device",
) -> ScoreFn:
    """Offline two-phase pipeline: device log-odds stacked with the members'
    verification-config log-odds, fused to one p_pos.

    Each window's MFCC is computed once per feature config, whatever the
    number of scorers on it.
    """
    core = Ensemble([device_scorer, *members])
    configs = [preset(c) for c in core.config_ids]
    ids = (device_member_id,) + core.member_ids[1:]

    def score(clip: AudioClip) -> float:
        feats = {cfg.config_id: mfcc(clip, cfg).values[None] for cfg in configs}
        fused = fuse(LogOddsVector(core.log_odds(feats)[0], ids), fusion)
        return softmax2(fused)[0]

    return score


# -- Dataset assembly --------------------------------------------------------

def build_feature_dataset(
    entries: Sequence[ManifestEntry],
    config,
    split: str,
    seed: int = 0,
    copies: int = 1,
    snr_range: tuple[float, float] = SNR_RANGE_DB,
    rir_prob: float = 0.5,
    base_dir=None,
) -> list[tuple[FeatureMatrix, int]]:
    """Windowed, noise-mixed features for one manifest split.

    Each wuw/other/noise sample yields ``copies`` windows mixed at SNRs drawn
    uniformly from ``snr_range``; speech windows pass through a random room
    impulse response with probability ``rir_prob`` when RIR entries exist.
    Sources are normalized on load; the mixture itself is not rescaled.
    """
    chosen = [e for e in entries if e.split == split]
    samples = [e for e in chosen if e.label in ("wuw", "other", "noise")]
    noise_pool = [e for e in chosen if e.label == "noise"]
    rir_pool = [e for e in chosen if e.label == "rir"]
    if not samples:
        raise DataError(f"no usable entries in split {split!r}")
    if not noise_pool:
        raise DataError(f"no noise entries in split {split!r}")

    cache = _ClipCache(base_dir)
    rng = np.random.default_rng(seed)
    dataset = []
    for entry in samples:
        clip = cache.get(entry.path)
        for _ in range(copies):
            span = entry.span if entry.label == "wuw" else None
            window = extract_window(clip, WINDOW_S, span=span, rng=rng)
            if (
                rir_pool
                and entry.label in ("wuw", "other")
                and rng.uniform() < rir_prob
            ):
                rir = cache.get(rir_pool[int(rng.integers(len(rir_pool)))].path)
                window = convolve_rir(window, rir)
            noise = cache.get(noise_pool[int(rng.integers(len(noise_pool)))].path)
            if measure_power(window) > 0.0 and measure_power(noise) > 0.0:
                window = mix_at_snr(window, noise, float(rng.uniform(*snr_range)))
            label = 1 if entry.label == "wuw" else 0
            dataset.append((mfcc(window, config), label))
    return dataset


def build_score_dataset(
    entries: Sequence[ManifestEntry],
    device_scorer: Scorer,
    members: Sequence[Scorer],
    split: str,
    seed: int = 0,
    copies: int = 1,
    device_member_id: str = "device",
    base_dir=None,
) -> ScoreDataset:
    """Member log-odds rows for fusion training, device column first.

    Windows are scored as a batch, in chunks; each window's MFCC is computed
    once per feature config.
    """
    core = Ensemble([device_scorer, *members])
    configs = [preset(c) for c in core.config_ids]
    ids = (device_member_id,) + core.member_ids[1:]

    chosen = [e for e in entries if e.split == split]
    samples = [e for e in chosen if e.label in ("wuw", "other", "noise")]
    noise_pool = [e for e in chosen if e.label == "noise"]
    if not samples or not noise_pool:
        raise DataError(f"split {split!r} lacks samples or noise entries")

    cache = _ClipCache(base_dir)
    rng = np.random.default_rng(seed)
    rows, labels, pending = [], [], []

    def score_pending():
        feats = {cfg.config_id: np.stack([w[i] for w in pending])
                 for i, cfg in enumerate(configs)}
        rows.append(core.log_odds(feats))
        pending.clear()

    for entry in samples:
        for _ in range(copies):
            snr = float(rng.uniform(*SNR_RANGE_DB))
            window = _mixed_window(entry, cache, noise_pool, snr, rng)
            pending.append([mfcc(window, cfg).values for cfg in configs])
            labels.append(1 if entry.label == "wuw" else 0)
            if len(pending) == _SCORE_BATCH:
                score_pending()
    if pending:
        score_pending()
    log_odds = np.concatenate(rows) if rows else np.empty((0, len(ids)))
    return ScoreDataset(log_odds, np.array(labels), ids)


# -- Benchmarking ------------------------------------------------------------

@dataclass(frozen=True)
class RtfReport:
    """Real-time factor statistics for one scorer over the analysis window."""

    median_rtf: float
    p95_rtf: float
    median_feature_ms: float
    median_forward_ms: float
    n_runs: int
    window_s: float

    def to_dict(self) -> dict:
        return {
            "median_rtf": self.median_rtf,
            "p95_rtf": self.p95_rtf,
            "median_feature_ms": self.median_feature_ms,
            "median_forward_ms": self.median_forward_ms,
            "n_runs": self.n_runs,
            "window_s": self.window_s,
        }


def rtf(elapsed_s: float, window_s: float = WINDOW_S) -> float:
    """Real-time factor: processing time over audio duration."""
    return elapsed_s / window_s


def bench_rtf(
    scorer: Scorer,
    n_runs: int = 50,
    warmup: int = 3,
    clip: AudioClip | None = None,
    seed: int = 0,
) -> RtfReport:
    """Time feature extraction plus one forward pass on a single window.

    The timed region is strictly single-threaded; feature and forward times
    are reported separately as well as combined.
    """
    if n_runs < 10:
        raise ValueError("need at least 10 runs")
    config = preset(scorer.config_id)
    if clip is None:
        rng = np.random.default_rng(seed)
        clip = AudioClip(
            rng.uniform(-0.5, 0.5, int(WINDOW_S * config.sample_rate_hz)),
            config.sample_rate_hz,
        )
    for _ in range(warmup):
        scorer.fn(mfcc(clip, config))

    rtfs, feature_ms, forward_ms = [], [], []
    for _ in range(n_runs):
        t0 = time.perf_counter()
        fm = mfcc(clip, config)
        t1 = time.perf_counter()
        scorer.fn(fm)
        t2 = time.perf_counter()
        rtfs.append(rtf(t2 - t0, clip.duration_s))
        feature_ms.append((t1 - t0) * 1e3)
        forward_ms.append((t2 - t1) * 1e3)
    return RtfReport(
        median_rtf=statistics.median(rtfs),
        p95_rtf=float(np.percentile(rtfs, 95)),
        median_feature_ms=statistics.median(feature_ms),
        median_forward_ms=statistics.median(forward_ms),
        n_runs=n_runs,
        window_s=clip.duration_s,
    )
