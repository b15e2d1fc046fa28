"""Minimal neural kernel: GRU scorers, a trainable linear baseline, the
training loop ``fit`` (Adam under a plateau schedule), and the binary
weight-file format.

Weight tensors are stored as float32 (the file format is float32). Training
(the linear classifier's and the fusion's gradients) runs in float64. A stack
kernel computes in the element type it is built with: float64 by default, which
every offline loop, the device agent and ``Scorer.fn`` use, or float32, which
the verification server asks for (``fusion.Ensemble``'s ``dtype``), since its
answer goes out as float32. GRU scorers are inference-only; the trainable
baseline is the linear classifier.

Each built-in model kind has exactly one forward pass, a batched stack
kernel: :class:`GRUStack` for ``sgru`` and ``gru-max``, :class:`LinearStack`
for ``linear``. A kernel runs M scorers of one shape over a window batch
(B, T, C) and returns logits (M, B, 2). ``make_stack`` picks the kernel from
the kind, and ``stack_key`` says which scorers may share one. Weights are
cast to the stack's dtype, transposed and stacked once per tuple of stores
and dtype: ``make_stack`` hands every caller (the ensemble cores in
``fusion``, a Scorer's ``fn``) the one stack that is alive for those stores
at that precision, and never casts per call.
``Scorer.fn`` of a built-in kind is a one-window view of its own stack. In
the GRU kernel, which stores each gate of each member as its own contiguous
block, per layer, the input projection ``x @ W_ih.T`` is computed for all
time steps before the recurrence; only ``h @ W_hh.T`` stays inside the time
loop. Every layer returns its states at every step, written over
the previous layer's states when the widths match, and the stack pools the
last layer's per member.
``gru_cell`` and ``gru_outputs`` are the step-by-step oracle it is tested
against.
"""

from __future__ import annotations

import json
import math
import re
import struct
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DataError, ModelError
from .features import PRESETS, FeatureMatrix, _gemm_block_rows, _matmul_rows

WEIGHT_MAGIC = b"WUWM"
WEIGHT_VERSION = 1

# Binary label convention used across the toolkit: 1 is the wake word, 0 not.
LABEL_POS = 1


class ScorePair(NamedTuple):
    """A classifier's two raw outputs: positive (wake word) and negative."""

    logit_pos: float
    logit_neg: float


def _softmax_pairs(logits: np.ndarray) -> np.ndarray:
    """Two-way softmax of (pos, neg) logit pairs (..., 2) -> (p_pos, p_neg)
    pairs, shifted by each pair's larger logit so no exponent overflows.
    The one two-way softmax: ``softmax2``, ``_ce_batch`` and
    ``fusion.logits_log_odds`` all read it."""
    e = np.exp(logits - np.maximum(logits[..., :1], logits[..., 1:]))
    return e / (e[..., :1] + e[..., 1:])


def softmax2(s: ScorePair) -> tuple[float, float]:
    """Numerically stable two-way softmax of one score pair, the one-pair
    view of ``_softmax_pairs``; returns (p_pos, p_neg)."""
    p = _softmax_pairs(np.array([s[0], s[1]], dtype=np.float64))
    return float(p[0]), float(p[1])


def _ce_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch of (pos, neg) logit rows.

    Returns (loss, d loss / d logits); the gradient already carries the 1/n
    of the mean. A row's loss is within 1e-12 of the log-sum-exp form for
    |pos - neg| <= 40; beyond a margin of about 690 against the label it
    saturates near 690.
    """
    n = logits.shape[0]
    probs = _softmax_pairs(logits)
    target_col = np.where(labels == LABEL_POS, 0, 1)
    picked = probs[np.arange(n), target_col]
    # fully saturated inputs would otherwise produce log(0)
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    dlogits = probs.copy()
    dlogits[np.arange(n), target_col] -= 1.0
    return loss, dlogits / n


# -- GRU -------------------------------------------------------------------

@dataclass
class GRUParams:
    """One GRU layer's parameters, gates stacked in (update, reset, candidate)
    order: w_ih (3H, I), w_hh (3H, H), b_ih (3H,), b_hh (3H,), with H >= 1."""

    w_ih: np.ndarray
    w_hh: np.ndarray
    b_ih: np.ndarray
    b_hh: np.ndarray

    def __post_init__(self):
        h3 = self.w_ih.shape[0] if self.w_ih.ndim == 2 else 0
        if (
            not h3
            or h3 % 3
            or self.w_hh.shape != (h3, h3 // 3)
            or self.b_ih.shape != (h3,)
            or self.b_hh.shape != (h3,)
        ):
            raise ValueError("inconsistent GRU parameter shapes")

    @property
    def hidden_size(self) -> int:
        return self.w_ih.shape[0] // 3

    @property
    def input_size(self) -> int:
        return self.w_ih.shape[1]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_cell(x: np.ndarray, h: np.ndarray, params: GRUParams) -> np.ndarray:
    """One GRU step: h' = (1 - z) * n + z * h, with the candidate gated as
    n = tanh(W_n x + b_in + r * (U_n h + b_hn))."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    hs = params.hidden_size
    if x.shape != (params.input_size,) or h.shape != (hs,):
        raise ValueError(
            f"expected x ({params.input_size},) and h ({hs},), "
            f"got {x.shape} and {h.shape}"
        )
    gi = params.w_ih @ x + params.b_ih
    gh = params.w_hh @ h + params.b_hh
    z = _sigmoid(gi[:hs] + gh[:hs])
    r = _sigmoid(gi[hs : 2 * hs] + gh[hs : 2 * hs])
    n = np.tanh(gi[2 * hs :] + r * gh[2 * hs :])
    return (1.0 - z) * n + z * h


def gru_outputs(frames: np.ndarray, params: GRUParams) -> np.ndarray:
    """Hidden state after every frame, shape (T, H); h starts at zero."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] == 0:
        raise DataError("gru needs a non-empty (T, I) sequence")
    h = np.zeros(params.hidden_size)
    out = np.empty((frames.shape[0], params.hidden_size))
    for t in range(frames.shape[0]):
        h = gru_cell(frames[t], h, params)
        out[t] = h
    return out


# -- Weight store ----------------------------------------------------------

@dataclass(eq=False)
class WeightStore:
    """Ordered name -> float32 tensor map plus model metadata."""

    tensors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        coerced = {}
        for name, t in self.tensors.items():
            arr = np.ascontiguousarray(t, dtype=np.float32)
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"tensor {name!r} contains non-finite values")
            coerced[name] = arr
        self.tensors = coerced

    @property
    def kind(self) -> str:
        return self.metadata.get("kind", "")

    @property
    def config_id(self) -> int | None:
        return self.metadata.get("config_id")

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


def param_count(ws: WeightStore) -> int:
    return int(sum(t.size for t in ws.tensors.values()))


def save_weights(ws: WeightStore, path) -> None:
    """Write the store: magic, u8 version, u32 JSON length, JSON metadata
    (kind, config_id, tensor names + shapes, hyperparameters), then raw
    little-endian float32 payloads in declared order."""
    meta = dict(ws.metadata)
    meta["tensors"] = [
        {"name": name, "shape": list(t.shape)} for name, t in ws.tensors.items()
    ]
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += WEIGHT_MAGIC
    out += struct.pack("<BI", WEIGHT_VERSION, len(blob))
    out += blob
    for t in ws.tensors.values():
        out += t.astype("<f4").tobytes()
    Path(path).write_bytes(bytes(out))


def _tensor_entry(declared) -> tuple[str, tuple[int, ...]]:
    """(name, shape) of one metadata tensor declaration; ValueError unless
    the name is a string and the shape a list of ints >= 0."""
    name, shape = declared["name"], declared["shape"]
    if not isinstance(name, str) or not isinstance(shape, list) or not all(
        type(d) is int and d >= 0 for d in shape
    ):
        raise ValueError(f"malformed tensor declaration {declared!r}")
    return name, tuple(shape)


def load_weights(path) -> WeightStore:
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != WEIGHT_MAGIC:
        raise ModelError(f"{path}: bad weight-file magic")
    if len(data) < 9:
        raise ModelError(f"{path}: truncated header")
    version, meta_len = struct.unpack_from("<BI", data, 4)
    if version != WEIGHT_VERSION:
        raise ModelError(f"{path}: unsupported version {version}")
    if len(data) < 9 + meta_len:
        raise ModelError(f"{path}: truncated metadata")
    try:
        meta = json.loads(data[9 : 9 + meta_len].decode("utf-8"))
        declared = meta.pop("tensors")
        entries = [_tensor_entry(d) for d in declared]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ModelError(f"{path}: invalid metadata ({exc})") from None
    if len({name for name, _ in entries}) != len(entries):
        raise ModelError(f"{path}: duplicate tensor names")

    tensors = {}
    offset = 9 + meta_len
    for name, shape in entries:
        count = math.prod(shape)
        nbytes = 4 * count
        if offset + nbytes > len(data):
            raise ModelError(f"{path}: payload for {name!r} truncated")
        flat = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        tensors[name] = flat.reshape(shape).copy()
        offset += nbytes
    if offset != len(data):
        raise ModelError(f"{path}: {len(data) - offset} trailing bytes")
    return WeightStore(tensors, meta)


# -- Scorers ---------------------------------------------------------------

@dataclass(frozen=True)
class Scorer:
    """A named classifier over one feature config.

    ``fn`` scores one window and is the plug-in point for external
    architectures; for a built-in kind it is a one-window view of the kind's
    stack kernel (``make_stack``). ``weights``, which ``make_scorer`` sets,
    lets the ensemble core (``fusion.Ensemble``) find scorers that share a
    ``stack_key`` and run them together in one kernel call per window batch
    instead of one ``fn`` call per window; a Scorer without it is always
    called through ``fn``.
    """

    member_id: str
    config_id: int
    fn: Callable[[FeatureMatrix], ScorePair]
    weights: WeightStore | None = None


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_gru_scorer(
    config,
    kind: str = "sgru",
    hidden: int = 128,
    layers: int = 2,
    seed: int = 0,
) -> WeightStore:
    """Random GRU scorer weights (uniform +-1/sqrt(fan_in) per tensor).

    The metadata's ``hparams`` is descriptive: no stack reads it, and the
    depth comes from the ``gru{i}.`` tensor names."""
    if kind not in ("sgru", "gru-max"):
        raise ModelError(f"unknown GRU scorer kind {kind!r}")
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    size_in = config.n_mfcc
    for i in range(layers):
        tensors[f"gru{i}.w_ih"] = _uniform(rng, (3 * hidden, size_in), size_in)
        tensors[f"gru{i}.w_hh"] = _uniform(rng, (3 * hidden, hidden), hidden)
        tensors[f"gru{i}.b_ih"] = _uniform(rng, 3 * hidden, size_in)
        tensors[f"gru{i}.b_hh"] = _uniform(rng, 3 * hidden, hidden)
        size_in = hidden
    tensors["head.w"] = _uniform(rng, (2, hidden), hidden)
    tensors["head.b"] = _uniform(rng, 2, hidden)
    meta = {
        "kind": kind,
        "config_id": config.config_id,
        "hparams": {"hidden": hidden, "layers": layers},
    }
    return WeightStore(tensors, meta)


# A GRU layer's transient arrays (its hoisted input projection and its hidden
# states at every step, 4H elements of the stack's dtype per row) are kept under
# this many bytes by running large window batches in chunks, so a float32 chunk
# holds twice the windows of a float64 one. The layer's input, the previous
# layer's states, is not counted. A layer after the first writes its states
# over that input when the widths match, so it allocates only 3H per row; the
# chunk rule still counts 4H, since a different chunk moves the GEMM row blocks
# of the input projection and with them the last bits of the logits.
_SCRATCH_BYTES = 8 << 20


def _gru_depth(ws: WeightStore) -> int:
    """The GRU layers a store's tensor names claim: 1 + the largest i of a
    ``gru{i}.`` name, 0 when there is none. ``GRUStack.check`` requires
    every layer below it."""
    found = (re.match(r"gru([0-9]+)\.", name) for name in ws.tensors)
    return 1 + max((int(m[1]) for m in found if m), default=-1)


def stack_key(ws: WeightStore) -> tuple | None:
    """What must match for scorers to share one stack (``make_stack``): the
    kernel their kind runs on, the feature config and every tensor's name
    and shape, which fix the GRU depth. None for a kind with no built-in
    kernel."""
    kernel = _KERNELS.get(ws.kind) if isinstance(ws.kind, str) else None
    if kernel is None:
        return None
    shapes = tuple((name, t.shape) for name, t in ws.tensors.items())
    return kernel, ws.config_id, shapes


def _check_stack(kernel, stores: Sequence[WeightStore]) -> None:
    """Raise ModelError unless ``stores`` are well-formed scorers that share
    one ``stack_key`` whose kernel is ``kernel`` and whose config is a
    feature preset. The one check of a scorer's store, for ``make_scorer``,
    ``make_stack`` and a stack built directly."""
    key = stack_key(stores[0]) if stores else None
    if key is None or key[0] is not kernel or any(stack_key(ws) != key for ws in stores):
        raise ModelError(f"a {kernel.__name__} needs scorers of its kinds, one shape and config")
    if type(key[1]) is not int or key[1] not in PRESETS:
        raise ModelError(f"weight store config_id {key[1]!r} is not a feature preset")
    kernel.check(stores[0])


def _stacked(
    stores: Sequence[WeightStore], name: str, transpose: bool = False, dtype=np.float64
) -> np.ndarray:
    """Tensor ``name`` of every store as one C-contiguous ``dtype`` array
    (M, ...), each transposed first when asked."""
    first = stores[0][name].T if transpose else stores[0][name]
    out = np.empty((len(stores),) + first.shape, dtype=dtype)
    for j, ws in enumerate(stores):
        out[j] = ws[name].T if transpose else ws[name]
    return out


def _gate_major(stores: Sequence[WeightStore], name: str, dtype) -> np.ndarray:
    """GRU tensor ``name`` of every store, a weight (3H, K) or a bias (3H,),
    as one C-contiguous ``dtype`` array (3, M, K, H) or (3, M, 1, H): block
    [g, j] is gate g of member j, transposed, so ``x @ out`` gives each gate
    of each member its own contiguous block. Filled straight from the
    stores, with no intermediate copy."""
    first = stores[0][name]
    hs, k = first.shape[0] // 3, first.size // first.shape[0]
    out = np.empty((3, len(stores), k, hs), dtype=dtype)
    for j, ws in enumerate(stores):
        out[:, j] = ws[name].reshape(3, hs, k).transpose(0, 2, 1)
    return out


class GRUStack:
    """M GRU scorers of one shape, run in lockstep over a window batch.

    ``logits`` maps features (B, T, I) to (pos, neg) logits (M, B, 2). Each
    member pools its last layer as its kind says: ``sgru`` the final hidden
    state, ``gru-max`` the elementwise max over time. Weights are cast to
    ``dtype`` and stored pre-transposed and C-contiguous here, once: a batched
    matmul on a transposed view does not reach BLAS. Each layer is stored
    gate-major (``_gate_major``): ``w_ih`` (3, M, I, H), ``w_hh`` (3, M, H, H),
    ``b_ih`` and ``b_hh`` (3, M, 1, H), so every gate of every member is one
    contiguous block, in the input projection and in the time loop alike.
    Everything from the input projection to the head then runs in ``dtype``.
    The object holds no per-call state, so threads may share it.
    """

    @staticmethod
    def check(ws: WeightStore) -> None:
        """Raise ModelError unless ws holds a well-formed GRU scorer: the
        four tensors of each of its ``_gru_depth`` layers, the first layer's
        input as wide as its feature preset's ``n_mfcc``, each later layer's
        the previous one's width, and a head over the last. ``_check_stack``
        has checked the preset."""
        if not _gru_depth(ws):
            raise ModelError("GRU scorer has no layers")
        size_in = PRESETS[ws.config_id].n_mfcc
        try:
            for i in range(_gru_depth(ws)):
                p = GRUParams(*(ws[f"gru{i}.{n}"] for n in ("w_ih", "w_hh", "b_ih", "b_hh")))
                if p.input_size != size_in:
                    raise ModelError(
                        f"GRU layer {i} input is {p.input_size} wide, not "
                        + (f"layer {i - 1}'s {size_in}" if i else f"the config's {size_in}")
                    )
                size_in = p.hidden_size
            head_w, head_b = ws["head.w"], ws["head.b"]
        except (KeyError, ValueError) as exc:
            raise ModelError(f"malformed GRU scorer: {exc!r}") from None
        if head_w.shape != (2, size_in) or head_b.shape != (2,):
            raise ModelError("GRU scorer head does not match its last layer")

    def __init__(self, stores: Sequence[WeightStore], dtype=np.float64):
        _check_stack(GRUStack, stores)
        self.stores = tuple(stores)
        self.config_id = stores[0].config_id
        self.dtype = np.dtype(dtype)
        self.layers = [
            tuple(_gate_major(stores, f"gru{i}.{n}", dtype)
                  for n in ("w_ih", "w_hh", "b_ih", "b_hh"))
            for i in range(_gru_depth(stores[0]))
        ]
        self.head_w = _stacked(stores, "head.w", True, dtype)             # (M, H, 2)
        self.head_b = _stacked(stores, "head.b", dtype=dtype)[:, None, :]  # (M, 1, 2)
        self.max_pool = np.array([ws.kind == "gru-max" for ws in stores])
        self.input_size = self.layers[0][0].shape[2]
        self.hidden_size = self.head_w.shape[1]

    @property
    def n_members(self) -> int:
        return self.max_pool.shape[0]

    def logits(self, x) -> np.ndarray:
        """Features (B, T, I) -> logits (M, B, 2), in the stack's dtype."""
        x = np.asarray(x)
        if x.ndim != 3 or x.shape[1] == 0 or x.shape[2] != self.input_size:
            raise DataError(
                f"GRU stack needs (B, T >= 1, {self.input_size}) features, got {x.shape}"
            )
        n, steps = x.shape[0], x.shape[1]
        hs = self.hidden_size
        # windows per chunk: within the scratch budget, and few enough that
        # each recurrent matmul, one gate of one member (chunk, H) @ (H, H),
        # stays a single-thread gemm
        row_bytes = self.dtype.itemsize * self.n_members * steps * 4 * hs
        chunk = max(1, min(_SCRATCH_BYTES // row_bytes, _gemm_block_rows(hs, hs)))
        out = np.empty((self.n_members, n, 2), dtype=self.dtype)
        for s in range(0, n, chunk):
            out[:, s : s + chunk] = self._run(x[s : s + chunk])
        return out

    def _run(self, x: np.ndarray) -> np.ndarray:
        n, steps, size_in = x.shape
        # time-major rows, so that one step of all windows is contiguous
        seq = np.ascontiguousarray(x.transpose(1, 0, 2), dtype=self.dtype)
        seq = seq.reshape(steps * n, size_in)
        for params in self.layers:
            states = _gru_layer(seq, params, steps, n)
            seq = states.reshape(self.n_members, steps * n, -1)
        pooled = np.where(self.max_pool[:, None, None], states.max(axis=1), states[:, -1])
        return pooled @ self.head_w + self.head_b


def _gru_layer(seq, params, steps, n):
    """One stacked layer over time-major rows seq (T*B, I) or (M, T*B, I);
    returns the states (M, T, B, H) of every step.

    ``params`` is a gate-major layer of ``GRUStack.layers``. The input
    projection comes out as (3, M, T*B, H), one block per gate and member,
    in row blocks sized by the (I, H) product; in the time loop ``h @ w_hh``
    writes (3, M, B, H), so the update and reset gates, the candidate's
    recurrent term and the state are each a contiguous array. The layer
    computes in its params' element type, which ``seq`` must share. Once
    the input projection has read it, an (M, T*B, H) ``seq`` (the previous
    layer's states) is dead, so the states are written into it."""
    w_ih, w_hh, b_ih, b_hh = params
    m, hs, dtype = w_hh.shape[1], w_hh.shape[3], w_hh.dtype
    gi = _matmul_rows(seq, w_ih)  # (3, M, T*B, H): the hoisted input projection
    gi += b_ih
    gi = gi.reshape(3, m, steps, n, hs)
    if seq.shape == (m, steps * n, hs):
        states = seq.reshape(m, steps, n, hs)
    else:
        states = np.empty((m, steps, n, hs), dtype=dtype)
    h = np.zeros((m, n, hs), dtype=dtype)
    gh = np.empty((3, m, n, hs), dtype=dtype)
    zr = np.empty((2, m, n, hs), dtype=dtype)
    cand = np.empty((m, n, hs), dtype=dtype)
    keep = np.empty((m, n, hs), dtype=dtype)
    z, r = zr
    gh_zr, gh_n = gh[:2], gh[2]
    for t in range(steps):
        np.matmul(h, w_hh, out=gh)
        gh += b_hh
        # z and r in one sigmoid: 1 / (1 + exp(-x))
        np.add(gi[:2, :, t], gh_zr, out=zr)
        np.negative(zr, out=zr)
        np.exp(zr, out=zr)
        zr += 1.0
        np.reciprocal(zr, out=zr)
        np.multiply(r, gh_n, out=cand)
        cand += gi[2, :, t]
        np.tanh(cand, out=cand)
        # h' = (1 - z) * n + z * h
        np.subtract(1.0, z, out=keep)
        keep *= cand
        h *= z
        h += keep
        states[:, t] = h
    return states


class LinearStack:
    """M linear scorers of one shape, run over a window batch.

    ``logits`` maps features (B, T, C) to (pos, neg) logits (M, B, 2): each
    member standardizes every coefficient column with its ``norm.mean`` and
    ``norm.std``, flattens the window row-major and applies ``w @ x + b``,
    with the windows as the columns of x: so one window is one matrix-vector
    product. Weights are cast to ``dtype`` and stacked here, once, and the
    standardization and product run in it. The object holds no per-call
    state, so threads may share it.
    """

    @staticmethod
    def check(ws: WeightStore) -> None:
        """Raise ModelError unless ws holds a well-formed linear scorer:
        ``norm.mean`` and ``norm.std`` (C,) with C its feature preset's
        ``n_mfcc``, ``w`` (2, D) with D a multiple of C, ``b`` (2,), and
        every ``norm.std`` above zero. ``_check_stack`` has checked the
        preset."""
        try:
            mean, std, w, b = (ws[n] for n in ("norm.mean", "norm.std", "w", "b"))
        except KeyError as exc:
            raise ModelError(f"malformed linear scorer: no tensor {exc}") from None
        c = mean.size
        if c != PRESETS[ws.config_id].n_mfcc:
            raise ModelError(
                f"malformed linear scorer: norm.mean has {c} coefficients, config "
                f"{ws.config_id} has {PRESETS[ws.config_id].n_mfcc}"
            )
        shapes = (mean.shape, std.shape, w.shape[:1], w.ndim, b.shape)
        if shapes != ((c,), (c,), (2,), 2, (2,)) or w.shape[1] % c or not w.shape[1]:
            raise ModelError(
                f"malformed linear scorer: norm.mean {mean.shape}, norm.std {std.shape}, "
                f"w {w.shape} and b {b.shape} do not agree"
            )
        if not np.all(std > 0):
            raise ModelError("malformed linear scorer: norm.std must be positive")

    def __init__(self, stores: Sequence[WeightStore], dtype=np.float64):
        _check_stack(LinearStack, stores)
        self.stores = tuple(stores)
        self.config_id = stores[0].config_id
        self.dtype = np.dtype(dtype)
        self.mean = _stacked(stores, "norm.mean", dtype=dtype)[:, None, None, :]  # (M, 1, 1, C)
        self.std = _stacked(stores, "norm.std", dtype=dtype)[:, None, None, :]
        self.w = _stacked(stores, "w", dtype=dtype)                               # (M, 2, D)
        self.b = _stacked(stores, "b", dtype=dtype)[:, :, None]                   # (M, 2, 1)

    def logits(self, x) -> np.ndarray:
        """Features (B, T, C) -> logits (M, B, 2), in the stack's dtype."""
        x = np.asarray(x)
        m, width, coeffs = self.w.shape[0], self.w.shape[2], self.mean.shape[-1]
        if x.ndim != 3 or x.shape[2] != coeffs or x.shape[1] * coeffs != width:
            raise DataError(
                f"linear stack needs (B, {width // coeffs}, {coeffs}) features, got {x.shape}"
            )
        z = np.subtract(x, self.mean, dtype=self.dtype)
        z /= self.std
        y = self.w @ z.reshape(m, x.shape[0], width).transpose(0, 2, 1)
        y += self.b
        return y.transpose(0, 2, 1)


# The one kernel of each built-in model kind.
_KERNELS = {"sgru": GRUStack, "gru-max": GRUStack, "linear": LinearStack}

# The live stack of each tuple of stores and element type, keyed by the
# stores' ids and the dtype; an entry goes when its stack does.
_STACKS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def make_stack(stores: Sequence[WeightStore], dtype=np.float64) -> GRUStack | LinearStack:
    """The batched kernel of scorers that share one ``stack_key``, computing
    in ``dtype``: the only place a model kind chooses its forward pass.

    Every caller gets the one stack alive for the same stores in the same
    order and the same dtype, so each cast of them exists once. The stack
    holds its stores (``stores``), so no other store can take a cached id,
    and their tensors become read-only, so the cast cannot go stale. Threads
    that miss at once each build a correct stack; the last one stays cached.
    """
    key = stack_key(stores[0]) if stores else None
    if key is None:
        raise ModelError(f"no stack kernel for model kinds {[ws.kind for ws in stores]}")
    cache_key = (tuple(map(id, stores)), np.dtype(dtype))
    stack = _STACKS.get(cache_key)
    if stack is None:
        stack = key[0](stores, dtype)
        for ws in stores:
            for t in ws.tensors.values():
                t.flags.writeable = False
        _STACKS[cache_key] = stack
    return stack


def make_scorer(ws: WeightStore, member_id: str | None = None) -> Scorer:
    """Wrap a weight store as a Scorer over its kind's stack kernel, named
    ``member_id``, else the kind.

    ``_check_stack`` checks the store, and the Scorer keeps it as ``weights``.
    ``fn`` is a one-window view of ``make_stack([ws])``, built on its first
    call: a scorer that only ever runs inside an ensemble core's stack never
    needs a float64 copy of its own.
    """
    key = stack_key(ws)
    if key is None:
        raise ModelError(f"no forward pass for model kind {ws.kind!r}")
    _check_stack(key[0], [ws])
    stack = None

    def forward(features: FeatureMatrix) -> ScorePair:
        nonlocal stack
        if features.config_id != ws.config_id:
            raise ModelError(
                f"features config {features.config_id} != model config {ws.config_id}"
            )
        if stack is None:
            stack = make_stack([ws])
        logits = stack.logits(features.values[None])[0, 0]
        return ScorePair(float(logits[0]), float(logits[1]))

    return Scorer(member_id if member_id is not None else ws.kind, ws.config_id, forward, ws)


# -- Training --------------------------------------------------------------

LR_DECAY_FACTOR = 0.1
MAX_LR_REDUCTIONS = 4
MIN_IMPROVEMENT = 1e-4
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainSpec:
    """Optimization recipe: Adam, cross-entropy, and an LR plateau schedule.

    The learning rate drops by ``LR_DECAY_FACTOR`` whenever validation loss
    has not improved by more than ``MIN_IMPROVEMENT`` for
    ``plateau_patience`` epochs; training stops once ``MAX_LR_REDUCTIONS``
    consecutive reductions have passed without a new best.
    """

    batch_size: int = 128
    lr0: float = 1e-3
    max_epochs: int = 700
    plateau_patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if (
            self.batch_size < 1
            or not 0 < self.lr0 < math.inf
            or self.max_epochs < 0
            or self.plateau_patience < 1
        ):
            raise ValueError("invalid training spec")


class Adam:
    """Adam over a list of float64 parameter arrays, updated in place."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * np.square(g)
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def fit(
    params: list[np.ndarray],
    grads: Callable[[np.ndarray], Sequence[np.ndarray]],
    val_loss: Callable[[], float],
    n: int,
    spec: TrainSpec,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """The training loop of ``train_classifier`` and ``train_fusion``: Adam
    on ``params`` in place under the plateau schedule of ``TrainSpec``;
    returns copies of the params at the best ``val_loss()``, which is
    observed after each epoch.

    Draw order: one ``rng.permutation(n)`` per epoch, then an Adam step on
    ``grads(idx)`` for each ``spec.batch_size`` slice of it; nothing else
    draws from ``rng``.
    """
    adam = Adam(params, spec.lr0)
    best, best_loss = [p.copy() for p in params], math.inf
    stale = reductions = 0  # epochs since the best, LR drops since the best
    for _ in range(spec.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            adam.step(grads(order[start : start + spec.batch_size]))
        loss = val_loss()
        if loss < best_loss - MIN_IMPROVEMENT:
            best, best_loss = [p.copy() for p in params], loss
            stale = reductions = 0
            continue
        stale += 1
        if stale >= spec.plateau_patience:
            if reductions >= MAX_LR_REDUCTIONS:
                break
            adam.lr *= LR_DECAY_FACTOR
            reductions += 1
            stale = 0
    return best


def linear_grads(
    w: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy of the affine classifier on a batch, with analytic
    gradients w.r.t. w (2, D) and b (2,). x is (n, D), y is (n,) labels."""
    logits = x @ w.T + b
    loss, dlogits = _ce_batch(logits, y)
    return loss, dlogits.T @ x, dlogits.sum(axis=0)


LabeledFeatures = Sequence[tuple[FeatureMatrix, int]]


def _dataset_arrays(data: LabeledFeatures) -> tuple[np.ndarray, np.ndarray]:
    """A split's features and labels; DataError unless its matrices share one
    shape and config, a feature preset as wide as they are, so the store loads."""
    mats = [fm.values for fm, _ in data]
    labels = np.array([int(y) for _, y in data])
    shapes = {m.shape for m in mats}
    configs = {fm.config_id for fm, _ in data}
    if len(shapes) != 1 or len(configs) != 1:
        raise DataError("all feature matrices must share one shape and config")
    (config_id,), ((_, coeffs),) = configs, shapes
    if type(config_id) is not int or config_id not in PRESETS:
        raise DataError(f"config_id {config_id!r} is not a feature preset")
    if coeffs != PRESETS[config_id].n_mfcc:
        raise DataError(f"features have {coeffs} coefficients, config {config_id} "
                        f"has {PRESETS[config_id].n_mfcc}")
    return np.stack(mats).astype(np.float64), labels


def train_classifier(
    train: LabeledFeatures, valid: LabeledFeatures, spec: TrainSpec
) -> WeightStore:
    """Fit the linear baseline classifier and return the best-validation
    weights. Fully deterministic for a fixed spec.seed."""
    if not train or not valid:
        raise DataError("train and valid splits must be non-empty")
    x_train, y_train = _dataset_arrays(train)
    x_valid, y_valid = _dataset_arrays(valid)
    if len(set(y_train.tolist())) < 2:
        raise DataError("training data must contain both classes")
    n, frames, coeffs = x_train.shape
    config_id = train[0][0].config_id

    mean = x_train.reshape(-1, coeffs).mean(axis=0)
    std = np.maximum(x_train.reshape(-1, coeffs).std(axis=0), 1e-6)
    xt = ((x_train - mean) / std).reshape(n, -1)
    xv = ((x_valid - mean) / std).reshape(len(valid), -1)

    dim = frames * coeffs
    rng = np.random.default_rng(spec.seed)
    w = _uniform(rng, (2, dim), dim)
    b = _uniform(rng, 2, dim)

    best = fit(
        [w, b],
        lambda idx: linear_grads(w, b, xt[idx], y_train[idx])[1:],
        lambda: _ce_batch(xv @ w.T + b, y_valid)[0],
        n, spec, rng,
    )

    tensors = {
        "norm.mean": mean,
        "norm.std": std,
        "w": best[0],
        "b": best[1],
    }
    meta = {
        "kind": "linear",
        "config_id": config_id,
        "hparams": {
            "n_frames": frames,
            "n_coeffs": coeffs,
            "batch_size": spec.batch_size,
            "lr0": spec.lr0,
            "seed": spec.seed,
        },
    }
    return WeightStore(tensors, meta)
