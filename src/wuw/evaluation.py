"""Dataset manifests, per-SNR-bucket F1 evaluation and threshold sweeps.

Manifests are UTF-8 JSONL, one entry per line:
``{"path": ..., "label": "wuw|other|noise|rir", "split": "train|valid|test",
"start_s": ..., "end_s": ...}`` with the span fields optional.

Evaluation mixes every test sample against a randomly chosen noise entry at
an SNR drawn inside each bucket, so each bucket scores the full test set at
its own noise level. Reports are dataclasses; ``dataclasses.asdict`` with
sorted keys gives their stable JSON for reproducibility checks.

Every loop selects its split through ``_split_pools``. Two samplers cut and
mix windows, and their draw orders from the seeded generator differ:
``_mixed_windows`` (``evaluate``, ``collect_scores``, ``build_score_dataset``)
draws the SNR, the cut, then the noise index; ``build_feature_dataset`` draws
the cut, the RIR coin and index, the noise index, then an SNR only for a
window it can mix. They stay two because each order fixes what a seed gives:
merging them would change the training windows, and so the device model.

Level contract, shared with the streaming agent: every source file is
peak-normalized once on load; windows cut from it, reverberated copies and
noise mixtures are then scored as they are, with no per-window rescale. The
agent likewise scores its samples as fed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .audio import (
    SNR_RANGE_DB,
    AlignmentSpan,
    AudioClip,
    convolve_rir,
    draw_snr,
    extract_window,
    measure_power,
    mix_at_snr,
    read_wav,
)
from .errors import DataError, ManifestError
from .features import FeatureMatrix, mfcc, preset
from .fusion import DEVICE_MEMBER_ID, Ensemble, FusionModel, LogOddsVector, ScoreDataset, fuse
from .nnet import Scorer, softmax2

LABELS = ("wuw", "other", "noise", "rir")
SPLITS = ("train", "valid", "test")

ScoreFn = Callable[[AudioClip], float]

# build_score_dataset holds the features of at most this many windows at a
# time; the GRU kernel splits a batch further by its own memory budget.
_SCORE_BATCH = 32

# build_feature_dataset reverberates a speech window with this probability
# when the split has RIR entries.
_RIR_PROB = 0.5


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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # also an integer past Python's digit limit
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
        if not isinstance(entry_path, str) or not entry_path:
            raise ManifestError(f"{path}:{lineno}: path must be a non-empty string, "
                                f"got {entry_path!r}")
        span = None
        bounds = obj.get("start_s"), obj.get("end_s")
        if bounds != (None, None):
            try:
                # a bound is a JSON number, so neither a string nor a bool
                if not all(type(b) in (int, float) for b in bounds):
                    raise DataError("span bounds must be numbers")
                span = AlignmentSpan(float(bounds[0]), float(bounds[1]))
            except (OverflowError, DataError):  # OverflowError: an int past float
                raise ManifestError(
                    f"{path}:{lineno}: invalid span [{bounds[0]}, {bounds[1]}]"
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


def _confusion(accepted: np.ndarray, is_pos: np.ndarray) -> tuple[int, int, int]:
    """(tp, fp, fn) of boolean decision arrays against boolean truth arrays."""
    return (int(np.sum(accepted & is_pos)), int(np.sum(accepted & ~is_pos)),
            int(np.sum(~accepted & is_pos)))


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


@dataclass(frozen=True)
class EvalReport:
    buckets: tuple[BucketResult, ...]
    overall_f1: float
    theta: float
    seed: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

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
    """Loads and peak-normalizes manifest audio, memoizing only the entries in
    ``keep``. Every other path is read again on each ``get``, so a caller that
    reads a sample once holds it only while it uses it.

    Every read is held at file precision: its samples as float32, which
    PCM16 and float32 WAVs are exactly, plus their peak and rate; a kept
    entry stays held. Each ``get`` builds from them the float64 clip that
    ``peak_normalize(read_wav(path))`` gives, bit for bit, so a kept entry
    costs half the memory of holding that clip."""

    def __init__(self, base_dir, keep: Iterable[ManifestEntry]):
        self.base = Path(base_dir) if base_dir else None
        self._keep = {e.path for e in keep}
        self._clips: dict[str, tuple[np.ndarray, float, int]] = {}

    def get(self, path: str) -> AudioClip:
        held = self._clips.get(path)
        if held is None:
            clip = read_wav(self.base / path if self.base else Path(path))
            peak = float(np.max(np.abs(clip.samples))) if len(clip) else 0.0
            held = (clip.samples.astype(np.float32), peak, clip.sample_rate_hz)
            if path in self._keep:
                self._clips[path] = held
        samples, peak, rate = held
        samples = samples.astype(np.float64)
        if peak:
            samples /= peak
        return AudioClip(samples, rate)

    def silent(self, path: str) -> bool:
        """Whether the kept clip at ``path``, loaded by ``get``, is silence.
        Peak-normalized, its power is 0 exactly when its peak is, so this
        is ``measure_power(clip) == 0`` without squaring the clip."""
        return self._clips[path][1] == 0.0


def _mixed_window(
    entry: ManifestEntry,
    clip: AudioClip,
    cache: _ClipCache,
    noise_pool: Sequence[ManifestEntry],
    snr_db: float,
    rng: np.random.Generator,
) -> AudioClip:
    """One window of ``entry``, whose audio is ``clip``, mixed at ``snr_db``
    with a noise entry drawn after the cut."""
    span = entry.span if entry.label == "wuw" else None
    window = extract_window(clip, span=span, rng=rng)
    noise_path = noise_pool[int(rng.integers(len(noise_pool)))].path
    noise = cache.get(noise_path)
    # Degenerate silence cannot be mixed at a defined SNR; pass it through.
    power = measure_power(window)
    if power == 0.0 or cache.silent(noise_path):
        return window
    return mix_at_snr(window, noise, snr_db, signal_power=power)


def _mixed_windows(
    samples: Sequence[ManifestEntry],
    cache: _ClipCache,
    noise_pool: Sequence[ManifestEntry],
    rng: np.random.Generator,
    snr_range: tuple[float, float],
    copies: int = 1,
):
    """Yield (window, label) for each sample, ``copies`` times in a row: the
    SNR is drawn from ``snr_range`` first, then ``_mixed_window`` cuts and
    mixes. Each sample is read once for all its copies. Label 1 marks a
    keyword."""
    for entry in samples:
        clip = cache.get(entry.path)
        label = int(entry.label == "wuw")
        for _ in range(copies):
            snr = float(rng.uniform(*snr_range))
            yield _mixed_window(entry, clip, cache, noise_pool, snr, rng), label


def _split_pools(
    entries: Sequence[ManifestEntry], split: str
) -> tuple[list[ManifestEntry], list[ManifestEntry], list[ManifestEntry]]:
    """(samples, noise pool, RIR pool) of one split, each in manifest order.

    The samples are the wuw, other and noise entries. A split with samples
    but nothing to mix them with is refused.
    """
    chosen = [e for e in entries if e.split == split]
    samples = [e for e in chosen if e.label in ("wuw", "other", "noise")]
    noise_pool = [e for e in chosen if e.label == "noise"]
    rir_pool = [e for e in chosen if e.label == "rir"]
    if samples and not noise_pool:
        raise DataError(f"no noise entries in split {split!r}")
    return samples, noise_pool, rir_pool


def _test_scores(
    entries: Sequence[ManifestEntry],
    score_fn: ScoreFn,
    snr_ranges: Sequence[tuple[float, float]],
    seed: int,
    base_dir,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(scores, labels) of the whole test split once per SNR range.

    Positives come first, each group in manifest order; one generator runs
    across all ranges.
    """
    samples, noise_pool, _ = _split_pools(entries, "test")
    samples.sort(key=lambda e: e.label != "wuw")
    # Every range mixes every sample again, so the whole split is kept.
    cache = _ClipCache(base_dir, samples + noise_pool)
    rng = np.random.default_rng(seed)
    out = []
    for snr_range in snr_ranges:
        scored = [(score_fn(window), label) for window, label
                  in _mixed_windows(samples, cache, noise_pool, rng, snr_range)]
        out.append((np.array([s for s, _ in scored]), np.array([y for _, y in scored])))
    return out


def evaluate(
    entries: Sequence[ManifestEntry],
    score_fn: ScoreFn,
    theta: float,
    buckets: Sequence[tuple[float, float]] | None = None,
    seed: int = 0,
    base_dir=None,
) -> EvalReport:
    """Per-SNR-bucket F1 of a pipeline over a manifest's test split.

    Every bucket mixes every test sample again, so the whole test split (its
    samples and noise pool) stays in memory for the call, each clip read
    once; ``collect_scores`` and ``threshold_sweep`` hold the same.
    """
    if buckets is None:
        buckets = default_buckets()
    results = []
    total = np.zeros(3, dtype=int)  # tp, fp, fn
    for (lo, hi), (scores, labels) in zip(
        buckets, _test_scores(entries, score_fn, buckets, seed, base_dir)
    ):
        counts = _confusion(scores >= theta, labels == 1)
        results.append(BucketResult(lo, hi, *counts, f1(*counts) if len(labels) else None))
        total += counts
    return EvalReport(tuple(results), f1(*(int(c) for c in total)), theta, seed)


def collect_scores(
    entries: Sequence[ManifestEntry],
    score_fn: ScoreFn,
    seed: int = 0,
    base_dir=None,
) -> tuple[np.ndarray, np.ndarray]:
    """One scoring pass over the test split at SNRs drawn across the full
    range; returns (scores, labels) for threshold work."""
    return _test_scores(entries, score_fn, [SNR_RANGE_DB], seed, base_dir)[0]


@dataclass(frozen=True)
class SweepPoint:
    theta: float
    precision: float
    recall: float
    f1: float
    best: bool


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
        tp, fp, fn = _confusion(scores >= theta, labels == 1)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        points.append(SweepPoint(float(theta), precision, recall, f1(tp, fp, fn), False))
    best = max(range(len(points)), key=lambda i: points[i].f1)
    points[best] = replace(points[best], best=True)
    return points


# -- Pipelines ---------------------------------------------------------------

def scorer_pipeline(scorer: Scorer) -> ScoreFn:
    """Window-level p_pos from a single scorer over its own feature config."""
    config = preset(scorer.config_id)

    def score(clip: AudioClip) -> float:
        return softmax2(scorer.fn(mfcc(clip, config)))[0]

    return score


def _row_core(device_scorer: Scorer, members: Sequence[Scorer]):
    """(core, feature configs, row ids) of the stacked fusion row: the core
    scores the device and then the members, and the row names the device
    column ``DEVICE_MEMBER_ID`` whatever its scorer's own id."""
    core = Ensemble([device_scorer, *members])
    return core, [preset(c) for c in core.config_ids], (DEVICE_MEMBER_ID,) + core.member_ids[1:]


def ensemble_pipeline(
    device_scorer: Scorer,
    members: Sequence[Scorer],
    fusion: FusionModel,
) -> ScoreFn:
    """Offline two-phase pipeline: device log-odds stacked with the members'
    verification-config log-odds, fused to one p_pos.

    Each window's MFCC is computed once per feature config, whatever the
    number of scorers on it.
    """
    core, configs, ids = _row_core(device_scorer, members)

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
    base_dir=None,
) -> list[tuple[FeatureMatrix, int]]:
    """Windowed, noise-mixed features for one manifest split.

    Each wuw/other/noise sample yields ``copies`` windows. Draws per window:
    the cut; for speech, when the split has RIR entries, a coin that
    reverberates with probability ``_RIR_PROB`` and on heads the RIR index;
    the noise index; and the SNR (``draw_snr``) only when neither window nor
    noise is silent. Unlike ``_mixed_windows`` the SNR comes last; the order
    is kept because it fixes which training windows a seed gives. Sources
    are normalized on load; the mixture itself is not rescaled.

    Memory: the split's noise and RIR pools stay loaded for the call. Each
    sample is read once, cut into its ``copies`` windows and dropped, so
    besides the pools only one sample clip and the features are held.
    """
    samples, noise_pool, rir_pool = _split_pools(entries, split)
    if not samples:
        raise DataError(f"no usable entries in split {split!r}")

    cache = _ClipCache(base_dir, noise_pool + rir_pool)
    rng = np.random.default_rng(seed)
    dataset = []
    for entry in samples:
        clip = cache.get(entry.path)
        span = entry.span if entry.label == "wuw" else None
        label = int(entry.label == "wuw")
        for _ in range(copies):
            window = extract_window(clip, span=span, rng=rng)
            if (
                rir_pool
                and entry.label in ("wuw", "other")
                and rng.uniform() < _RIR_PROB
            ):
                rir = cache.get(rir_pool[int(rng.integers(len(rir_pool)))].path)
                window = convolve_rir(window, rir)
            noise_path = noise_pool[int(rng.integers(len(noise_pool)))].path
            noise = cache.get(noise_path)
            power = measure_power(window)
            if power > 0.0 and not cache.silent(noise_path):
                window = mix_at_snr(window, noise, draw_snr(rng), signal_power=power)
            dataset.append((mfcc(window, config), label))
    return dataset


def build_score_dataset(
    entries: Sequence[ManifestEntry],
    device_scorer: Scorer,
    members: Sequence[Scorer],
    split: str,
    seed: int = 0,
    copies: int = 1,
    base_dir=None,
) -> ScoreDataset:
    """Member log-odds rows for fusion training, device column first.

    Windows come from ``_mixed_windows`` over the full SNR range and are
    scored in batches of ``_SCORE_BATCH``; each window's MFCC is computed
    once per feature config, as the window is drawn, so a batch holds
    features and not audio. Only the split's noise pool stays loaded; each
    sample is read once for all its ``copies`` windows and then dropped.
    """
    core, configs, ids = _row_core(device_scorer, members)
    samples, noise_pool, _ = _split_pools(entries, split)
    if not samples:
        raise DataError(f"no usable entries in split {split!r}")

    windows = _mixed_windows(samples, _ClipCache(base_dir, noise_pool), noise_pool,
                             np.random.default_rng(seed), SNR_RANGE_DB, copies)
    rows, labels = [], []
    while batch := [([mfcc(window, cfg).values for cfg in configs], label)
                    for window, label in islice(windows, _SCORE_BATCH)]:
        rows.append(core.log_odds({cfg.config_id: np.stack([f[i] for f, _ in batch])
                                   for i, cfg in enumerate(configs)}))
        labels.extend(label for _, label in batch)
    log_odds = np.concatenate(rows) if rows else np.empty((0, len(ids)))
    return ScoreDataset(log_odds, np.array(labels), ids)

