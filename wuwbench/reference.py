"""Independent numpy reference of the scoring path, read from weight files.

Nothing here imports ``wuw``: the weight-file reader, the GRU scorers, the
linear classifier, the log-odds clamp and the fusion MLP are written again
from their documented contracts, so that a benchmark run can check the
program's outputs against code that does not share its bugs.

- Weight file: ``b"WUWM"``, u8 version, u32 JSON length, JSON metadata (with
  a ``tensors`` list of names and shapes), then little-endian float32
  payloads in that order.
- GRU layer: gates stacked (update, reset, candidate) in ``w_ih`` (3H, I),
  ``w_hh`` (3H, H), ``b_ih`` and ``b_hh`` (3H,);
  ``n = tanh(W_n x + b_in + r * (U_n h + b_hn))``, ``h' = (1 - z) n + z h``,
  h starts at zero. ``sgru`` pools the last state, ``gru-max`` the
  elementwise max over time; a (2, H) head gives (pos, neg) logits.
- Linear classifier: standardize per coefficient column, flatten row-major,
  affine to (pos, neg) logits.
- Log-odds: softmax over (pos, neg), each probability clamped to
  [1e-7, 1 - 1e-7], then ln(p_pos / p_neg).
- Fusion: FC -> ReLU -> FC(2) over the stacked log-odds; p_pos by softmax.

All arithmetic is float64 on the float32 weights, batched over windows.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

PROB_CLAMP = 1e-7

# Agreement required between a response (float32 on the wire) and the
# float64 reference: well above float32 rounding of values of a few units
# (~5e-7), far below any real disagreement between two windows.
ABS_TOL = 1e-4
REL_TOL = 1e-5


def read_weight_file(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a weight file into (metadata, name -> float64 array)."""
    data = Path(path).read_bytes()
    if data[:4] != b"WUWM":
        raise ValueError(f"{path}: not a weight file")
    version, meta_len = struct.unpack_from("<BI", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unknown weight-file version {version}")
    meta = json.loads(data[9 : 9 + meta_len].decode("utf-8"))
    offset = 9 + meta_len
    tensors = {}
    for entry in meta["tensors"]:
        count = int(np.prod(entry["shape"], dtype=np.int64))
        flat = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        tensors[entry["name"]] = flat.reshape(entry["shape"]).astype(np.float64)
        offset += 4 * count
    if offset != len(data):
        raise ValueError(f"{path}: trailing bytes")
    return meta, tensors


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_layer(x: np.ndarray, w_ih, w_hh, b_ih, b_hh) -> np.ndarray:
    """x (B, T, I) -> hidden states (B, T, H)."""
    hs = w_hh.shape[1]
    gi = x @ w_ih.T + b_ih
    h = np.zeros((x.shape[0], hs))
    out = np.empty((x.shape[0], x.shape[1], hs))
    for t in range(x.shape[1]):
        gh = h @ w_hh.T + b_hh
        z = _sigmoid(gi[:, t, :hs] + gh[:, :hs])
        r = _sigmoid(gi[:, t, hs : 2 * hs] + gh[:, hs : 2 * hs])
        n = np.tanh(gi[:, t, 2 * hs :] + r * gh[:, 2 * hs :])
        h = (1.0 - z) * n + z * h
        out[:, t] = h
    return out


def log_odds_from_logits(logits: np.ndarray) -> np.ndarray:
    """(B, 2) (pos, neg) logits -> (B,) clamped log-odds."""
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    p = e / e.sum(axis=1, keepdims=True)
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return np.log(p[:, 0] / p[:, 1])


def p_pos_from_logits(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    e = np.exp(logits - m)
    return e[:, 0] / e.sum(axis=1)


class RefModel:
    """One scorer or the fusion model, loaded from its weight file."""

    def __init__(self, path):
        self.meta, self.t = read_weight_file(path)
        self.kind = self.meta["kind"]

    def logits(self, x: np.ndarray) -> np.ndarray:
        """x (B, T, C) features, or (B, N) log-odds for fusion -> (B, 2)."""
        x = np.asarray(x, dtype=np.float64)
        t = self.t
        if self.kind in ("sgru", "gru-max"):
            seq = x
            for i in range(self.meta["hparams"]["layers"]):
                seq = gru_layer(seq, t[f"gru{i}.w_ih"], t[f"gru{i}.w_hh"],
                                t[f"gru{i}.b_ih"], t[f"gru{i}.b_hh"])
            pooled = seq[:, -1] if self.kind == "sgru" else seq.max(axis=1)
            return pooled @ t["head.w"].T + t["head.b"]
        if self.kind == "linear":
            flat = ((x - t["norm.mean"]) / t["norm.std"]).reshape(x.shape[0], -1)
            return flat @ t["w"].T + t["b"]
        if self.kind == "fusion":
            hidden = np.maximum(x @ t["fc1.w"].T + t["fc1.b"], 0.0)
            return hidden @ t["fc2.w"].T + t["fc2.b"]
        raise ValueError(f"no reference for model kind {self.kind!r}")

    def log_odds(self, x) -> np.ndarray:
        return log_odds_from_logits(self.logits(x))


class RefEnsemble:
    """Device scorer, members in stacking order, and the fusion model."""

    def __init__(self, device_path, member_paths, fusion_path):
        self.device = RefModel(device_path)
        self.members = [RefModel(p) for p in member_paths]
        self.fusion = RefModel(fusion_path)

    def verify(self, device_lo, cloud: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Server-side reference: (B,) float32 device log-odds as shipped and
        (B, T, 40) cloud features -> stacked log-odds (B, 1 + M), p_pos (B,)."""
        device_lo = np.asarray(device_lo, dtype=np.float32).astype(np.float64)
        cols = [device_lo] + [m.log_odds(cloud) for m in self.members]
        z = np.stack(cols, axis=1)
        return z, p_pos_from_logits(self.fusion.logits(z))

    def pipeline(self, device_feats: np.ndarray, cloud: np.ndarray) -> np.ndarray:
        """Offline reference: device features and cloud features of the same
        windows -> fused p_pos (B,), all in float64."""
        cols = [self.device.log_odds(device_feats)]
        cols += [m.log_odds(cloud) for m in self.members]
        return p_pos_from_logits(self.fusion.logits(np.stack(cols, axis=1)))


def close(got, want) -> np.ndarray:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return np.abs(got - want) <= ABS_TOL + REL_TOL * np.abs(want)


def response_errors(z_got, p_got, accepted, theta, z_ref, p_ref) -> list[str]:
    """Why one response disagrees with its reference; empty when it agrees.

    The verdict must be exactly ``p_pos >= theta`` on the p_pos the response
    carries, and must agree with the reference wherever the reference p_pos
    is further than the tolerance from theta.
    """
    errors = []
    z_got = np.asarray(z_got, dtype=np.float64)
    if z_got.shape != z_ref.shape or not np.all(close(z_got, z_ref)):
        errors.append(f"member log-odds {z_got.tolist()} != reference {z_ref.tolist()}")
    if not close(p_got, p_ref):
        errors.append(f"p_pos {p_got} != reference {p_ref}")
    if bool(accepted) != bool(np.float32(p_got) >= theta):
        errors.append(f"verdict {'accept' if accepted else 'reject'} but p_pos {p_got}")
    if abs(p_ref - theta) > ABS_TOL and bool(accepted) != bool(p_ref >= theta):
        errors.append(f"verdict {'accept' if accepted else 'reject'} but reference p_pos {p_ref}")
    return errors
