"""Score stacking: log-odds transform of member scores, the ensemble core
that computes them for a batch of windows, and the trainable
FC -> ReLU -> FC(2) meta-classifier that fuses them.

Member order is contractual: a fusion model only accepts log-odds vectors
whose member ids match its own, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, ModelError
from .features import FeatureMatrix
from .nnet import (
    Scorer,
    ScorePair,
    TrainSpec,
    WeightStore,
    _ce_batch,
    _softmax_pairs,
    _uniform,
    fit,
    load_weights,
    make_stack,
    stack_key,
)

# Probabilities are clamped here before the quotient, so log-odds stay finite
# even for saturated softmax outputs.
PROB_CLAMP = 1e-7

FUSION_HIDDEN = 16

# The id of the device's column in every stacked log-odds row: the device
# score is always the first fusion input.
DEVICE_MEMBER_ID = "device"


@dataclass(eq=False)
class LogOddsVector:
    """One log-odds value per ensemble member, in contract order."""

    values: np.ndarray
    member_ids: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.member_ids = tuple(self.member_ids)
        if self.values.shape != (len(self.member_ids),):
            raise DataError(
                f"{self.values.shape[0] if self.values.ndim == 1 else self.values.shape} "
                f"values for {len(self.member_ids)} member ids"
            )
        if len(self.member_ids) < 1:
            raise DataError("need at least one ensemble member")
        if not np.all(np.isfinite(self.values)):
            raise DataError("log-odds must be finite")


def _clamped_log_odds(p: np.ndarray) -> np.ndarray:
    """ln(p_pos / p_neg) of probability pairs p (..., 2), each probability
    first clamped, in place, into [PROB_CLAMP, 1 - PROB_CLAMP]. The one
    log-odds clamp: ``log_odds`` and ``logits_log_odds`` both read it."""
    np.maximum(p, PROB_CLAMP, out=p)
    np.minimum(p, 1.0 - PROB_CLAMP, out=p)
    return np.log(p[..., 0] / p[..., 1])


def log_odds(p_pos: float, p_neg: float) -> float:
    """ln(p_pos / p_neg), with both probabilities clamped away from 0 and 1:
    the one-pair view of ``_clamped_log_odds``."""
    if abs(p_pos + p_neg - 1.0) > 1e-6:
        raise DataError(f"probabilities must sum to 1, got {p_pos + p_neg}")
    return float(_clamped_log_odds(np.array([p_pos, p_neg], dtype=np.float64)))


def logits_log_odds(logits) -> np.ndarray:
    """(pos, neg) logit pairs (..., 2) -> log-odds (...): ``log_odds`` of
    ``softmax2`` of each pair, for a whole array."""
    return _clamped_log_odds(_softmax_pairs(np.asarray(logits, dtype=np.float64)))


def _column_index(cols: list[int]) -> slice | list[int]:
    """Ascending columns as a basic slice when they are evenly spaced, as one
    or two columns always are, so that writing them is a strided copy and
    not a gather; otherwise the list itself."""
    step = cols[1] - cols[0] if len(cols) > 1 else 1
    return (slice(cols[0], cols[-1] + 1, step)
            if cols == list(range(cols[0], cols[-1] + 1, step)) else cols)


class Ensemble:
    """The scoring core: every scorer's log-odds for a batch of windows.

    ``log_odds`` takes the windows' features per config id, each (B, T, C),
    and returns (B, N) log-odds, column j from scorer j: the rows that are
    stacked for the fusion model (Wolpert, 1992, "Stacked generalization").
    Scorers whose ``weights`` share one ``nnet.stack_key`` are run together,
    in one call per batch, by the kernel ``nnet.make_stack`` builds for them.
    Any other Scorer, such as a plug-in or a wrapped ``fn`` without
    ``weights``, is called through ``fn``, one window at a time, into its
    own column.

    The stacked members compute in ``dtype``: weights, input projection,
    recurrence, pooling and head. The log-odds transform and its clamp run in
    float64 whatever it is, and a Scorer called through ``fn`` computes in
    whatever its ``fn`` does. Weights are cast and stacked by ``make_stack``,
    once for every core over the same scorers and dtype. The core keeps no
    per-call state, so threads may share one.
    """

    def __init__(self, scorers: Sequence[Scorer], dtype=np.float64):
        self.scorers = tuple(scorers)
        self.member_ids = tuple(s.member_id for s in self.scorers)
        self.config_ids = tuple(dict.fromkeys(s.config_id for s in self.scorers))
        groups: dict[tuple, list[int]] = {}
        self._singles: list[tuple[int, Scorer]] = []
        for col, s in enumerate(self.scorers):
            key = None if s.weights is None else stack_key(s.weights)
            if key is None or s.weights.config_id != s.config_id:
                self._singles.append((col, s))
            else:
                groups.setdefault(key, []).append(col)
        self._stacks = [
            (_column_index(cols), make_stack([self.scorers[c].weights for c in cols], dtype))
            for cols in groups.values()
        ]

    def log_odds(self, features: Mapping[int, np.ndarray]) -> np.ndarray:
        """Features per config id, each (B, T, C) -> log-odds (B, N).

        Features are float32 grids, as in a FeatureMatrix; other dtypes are
        rounded to float32 first, so stacked and ``fn`` members see the same
        values.
        """
        missing = [c for c in self.config_ids if c not in features]
        if missing:
            raise ModelError(f"no features for config ids {missing}")
        sizes = {len(x) for x in features.values()}
        if len(sizes) != 1:
            raise DataError(f"feature batches of different sizes {sorted(sizes)}")
        n = sizes.pop()
        features = {c: np.asarray(features[c], dtype=np.float32) for c in self.config_ids}
        logits = np.empty((n, len(self.scorers), 2))
        for index, stack in self._stacks:
            logits[:, index] = stack.logits(features[stack.config_id]).transpose(1, 0, 2)
        for col, s in self._singles:
            x = features[s.config_id]
            for b in range(n):
                logits[b, col] = s.fn(FeatureMatrix(x[b], s.config_id))
        return logits_log_odds(logits)


@dataclass(eq=False)
class FusionModel:
    """FC(N -> hidden) -> ReLU -> FC(hidden -> 2) over member log-odds.

    ``params`` holds the four tensors cast to float64, once, in
    ``mlp_forward`` order. A store whose ``member_ids`` is not a non-empty
    list of strings, or whose tensors are missing or do not agree with
    ``fc1.w`` (hidden, N) for N member ids, is a ModelError.
    """

    weights: WeightStore
    params: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.weights.kind != "fusion":
            raise ModelError(f"expected a fusion store, got kind {self.weights.kind!r}")
        ids = self.weights.metadata.get("member_ids")
        if not isinstance(ids, (list, tuple)) or not ids or not all(
            isinstance(i, str) for i in ids
        ):
            raise ModelError(f"fusion member_ids must be a non-empty list of strings, got {ids!r}")
        try:
            self.params = tuple(
                self.weights[name].astype(np.float64)
                for name in ("fc1.w", "fc1.b", "fc2.w", "fc2.b")
            )
        except KeyError as exc:
            raise ModelError(f"fusion store has no tensor {exc}") from None
        w1, b1, w2, b2 = self.params
        hidden = w1.shape[:1]  # () for a 0-d fc1.w, which then fails the check
        if (w1.shape, b1.shape, w2.shape, b2.shape) != (
            hidden + (len(ids),), hidden, (2,) + hidden, (2,)
        ):
            raise ModelError(
                f"fusion tensors fc1.w {w1.shape}, fc1.b {b1.shape}, fc2.w {w2.shape} and "
                f"fc2.b {b2.shape} do not agree with {len(ids)} member_ids"
            )

    @property
    def member_ids(self) -> tuple[str, ...]:
        return tuple(self.weights.metadata["member_ids"])


def mlp_forward(params: Sequence[np.ndarray], z: np.ndarray) -> np.ndarray:
    """Batched fusion forward: z (n, N) -> logits (n, 2)."""
    w1, b1, w2, b2 = params
    hidden = np.maximum(z @ w1.T + b1, 0.0)
    return hidden @ w2.T + b2


def mlp_grads(
    params: Sequence[np.ndarray], z: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy on a batch plus analytic gradients for all four
    fusion parameters."""
    w1, b1, w2, b2 = params
    pre = z @ w1.T + b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ w2.T + b2
    loss, dlogits = _ce_batch(logits, y)
    dw2 = dlogits.T @ hidden
    db2 = dlogits.sum(axis=0)
    dhidden = dlogits @ w2
    dhidden = np.where(pre > 0.0, dhidden, 0.0)
    dw1 = dhidden.T @ z
    db1 = dhidden.sum(axis=0)
    return loss, [dw1, db1, dw2, db2]


def fuse(z: LogOddsVector, model: FusionModel) -> ScorePair:
    """Run the meta-classifier on one log-odds vector."""
    if z.member_ids != model.member_ids:
        raise ModelError(
            f"member ids {z.member_ids} do not match model {model.member_ids}"
        )
    logits = mlp_forward(model.params, z.values[None, :])[0]
    return ScorePair(float(logits[0]), float(logits[1]))


@dataclass(eq=False)
class ScoreDataset:
    """Labeled log-odds rows for fusion training and evaluation."""

    log_odds: np.ndarray
    labels: np.ndarray
    member_ids: tuple[str, ...]

    def __post_init__(self):
        self.log_odds = np.asarray(self.log_odds, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.member_ids = tuple(self.member_ids)
        if (
            self.log_odds.ndim != 2
            or self.log_odds.shape[0] != self.labels.shape[0]
            or self.log_odds.shape[1] != len(self.member_ids)
        ):
            raise DataError("inconsistent score dataset shapes")

    def __len__(self) -> int:
        return self.labels.shape[0]

    def subset(self, idx) -> "ScoreDataset":
        return ScoreDataset(self.log_odds[idx], self.labels[idx], self.member_ids)


def synth_score_task(
    n_members: int,
    sigmas: Sequence[float],
    n_samples: int,
    rng: np.random.Generator,
    mu: float = 1.0,
    member_ids: Sequence[str] | None = None,
) -> ScoreDataset:
    """Synthetic ensemble benchmark: balanced labels; member i emits
    mu * (+-1) plus Gaussian noise sigma_i, so members have heterogeneous
    error patterns."""
    if n_members < 1 or len(sigmas) != n_members:
        raise ValueError("need one sigma per member")
    if member_ids is None:
        member_ids = tuple(f"m{i}" for i in range(n_members))
    labels = rng.integers(0, 2, size=n_samples)
    signs = 2.0 * labels - 1.0
    z = np.empty((n_samples, n_members))
    for i, sigma in enumerate(sigmas):
        z[:, i] = mu * signs + rng.normal(0.0, sigma, size=n_samples)
    return ScoreDataset(z, labels, tuple(member_ids))


def train_fusion(
    dataset: ScoreDataset,
    spec: TrainSpec,
    valid: ScoreDataset | None = None,
    hidden: int = FUSION_HIDDEN,
) -> FusionModel:
    """Fit the stacking MLP; when no validation split is given, a seeded
    10% slice of the dataset is held out for the plateau schedule."""
    if len(set(dataset.labels.tolist())) < 2:
        raise DataError("fusion training data must contain both classes")
    if valid is None:
        rng_split = np.random.default_rng(spec.seed)
        order = rng_split.permutation(len(dataset))
        n_valid = max(1, len(dataset) // 10)
        valid = dataset.subset(order[:n_valid])
        dataset = dataset.subset(order[n_valid:])
    if valid.member_ids != dataset.member_ids:
        raise ModelError("train and valid member ids differ")

    n_members = dataset.log_odds.shape[1]
    rng = np.random.default_rng(spec.seed)
    params = [
        _uniform(rng, (hidden, n_members), n_members),
        _uniform(rng, hidden, n_members),
        _uniform(rng, (2, hidden), hidden),
        _uniform(rng, 2, hidden),
    ]
    best = fit(
        params,
        lambda idx: mlp_grads(params, dataset.log_odds[idx], dataset.labels[idx])[1],
        lambda: _ce_batch(mlp_forward(params, valid.log_odds), valid.labels)[0],
        len(dataset), spec, rng,
    )

    tensors = {"fc1.w": best[0], "fc1.b": best[1], "fc2.w": best[2], "fc2.b": best[3]}
    meta = {
        "kind": "fusion",
        "member_ids": list(dataset.member_ids),
        "hparams": {"hidden": hidden, "seed": spec.seed},
    }
    return FusionModel(WeightStore(tensors, meta))


def load_fusion(path) -> FusionModel:
    return FusionModel(load_weights(path))
