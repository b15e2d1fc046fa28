"""Command-line surface tying the toolkit together.

Exit codes: 0 success; 1 usage error; 2 ``DataError``, or a file that
cannot be read or written; 3 ``ModelError`` or ``ProtocolError``, a
verification server that cannot be reached or cannot listen included.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import audio, evaluation, features, fusion, nnet, synth, wire
from .errors import DataError, ModelError, ProtocolError


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


# argparse ``type=`` parsers: a malformed value is a usage error (exit 1).

def _parse_int(text: str) -> int:
    """An int in any base Python's ``int(text, 0)`` reads (0x5eed, 0o17, 42)."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an int: {text!r}") from None


def _parse_server(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or not 0 < int(port) < 65536:
        raise argparse.ArgumentTypeError(f"not host:port: {text!r}")
    return host, int(port)


def _ranged(parse, ok, rule: str):
    """An argparse type: ``parse`` the text, then refuse a value not ``ok``
    (every comparison with NaN is false, so NaN is refused too)."""
    def check(text: str):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}: {text!r}")
        return value

    check.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return check


_positive_int = _ranged(int, lambda v: v >= 1, "at least 1")
_non_negative_int = _ranged(int, lambda v: v >= 0, "at least 0")
_port = _ranged(int, lambda v: 0 <= v < 65536, "a port in 0-65535")
_probability = _ranged(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_seconds = _ranged(float, lambda v: 0.0 <= v < math.inf, "finite and at least 0")
_positive_float = _ranged(float, lambda v: 0.0 < v < math.inf, "finite and above 0")
_key = _ranged(_parse_int, lambda v: 0 <= v < 2**64, "in [0, 2**64)")  # the wire's u64


_CONFIGS = {"device": features.DEVICE, "cloud": features.CLOUD}


def _read_manifest(args) -> tuple[list[evaluation.ManifestEntry], Path]:
    """The manifest's entries and the directory their paths are relative to."""
    entries = evaluation.load_manifest(args.manifest, require_alignments=not args.allow_unaligned)
    return entries, Path(args.manifest).parent


def _load_scorer(path, member_id=None) -> nnet.Scorer:
    return nnet.make_scorer(nnet.load_weights(path), member_id)


def _load_members(paths) -> list[nnet.Scorer]:
    members = []
    for p in paths or []:
        members.append(_load_scorer(p, member_id=Path(p).stem))
    ids = [m.member_id for m in members]
    if len(set(ids)) != len(ids):
        raise ModelError(f"duplicate member ids {ids}; rename the weight files")
    return members


def _train_spec(args) -> nnet.TrainSpec:
    return nnet.TrainSpec(
        batch_size=args.batch_size,
        lr0=args.lr,
        max_epochs=args.epochs,
        plateau_patience=args.patience,
        seed=args.seed,
    )


def _train_valid(args, entries, base, build, *models):
    """``build`` over the train split at ``--seed`` and over the valid split
    at ``--seed + 1``."""
    return tuple(build(entries, *models, split=split, seed=args.seed + i,
                       copies=args.copies, base_dir=base)
                 for i, split in enumerate(("train", "valid")))


def _pipeline_from_args(args) -> evaluation.ScoreFn:
    if args.fusion:
        if not args.device_weights:
            raise ModelError("ensemble evaluation needs --device-weights")
        device = _load_scorer(args.device_weights)
        members = _load_members(args.member)
        model = fusion.load_fusion(args.fusion)
        return evaluation.ensemble_pipeline(device, members, model)
    if not args.weights:
        raise ModelError("pass --weights, or --fusion with --device-weights/--member")
    return evaluation.scorer_pipeline(_load_scorer(args.weights))


# -- Subcommands -------------------------------------------------------------

def cmd_synth(args) -> int:
    print(synth.make_chirp_task(args.out_dir, n_train=args.train, n_valid=args.valid,
                                n_test=args.test, seed=args.seed))
    return 0


def cmd_features(args) -> int:
    clip = audio.peak_normalize(audio.read_wav(args.wav))
    fm = features.mfcc(clip, _CONFIGS[args.config])
    with open(args.out, "wb") as f:  # np.save given a name would append ".npy"
        np.save(f, fm.values)
    print(f"{args.out}: shape ({fm.n_frames}, {fm.n_coeffs}) config {fm.config_id}")
    return 0


def cmd_train(args) -> int:
    entries, base = _read_manifest(args)
    train, valid = _train_valid(args, entries, base, evaluation.build_feature_dataset,
                                _CONFIGS[args.config])
    ws = nnet.train_classifier(train, valid, _train_spec(args))
    nnet.save_weights(ws, args.out)
    print(f"saved {nnet.param_count(ws)} parameters to {args.out}")
    return 0


def cmd_fuse_train(args) -> int:
    entries, base = _read_manifest(args)
    device = _load_scorer(args.device_weights)
    members = _load_members(args.member)
    train, valid = _train_valid(args, entries, base, evaluation.build_score_dataset,
                                device, members)
    model = fusion.train_fusion(train, _train_spec(args), valid=valid,
                                hidden=args.hidden)
    nnet.save_weights(model.weights, args.out)
    print(f"saved fusion over members {list(model.member_ids)} to {args.out}")
    return 0


def cmd_detect(args) -> int:
    device = _load_scorer(args.device_weights)
    agent = wire.DeviceAgent(device, theta_device=args.theta_device,
                             refractory_s=args.refractory)
    # the agent's events do not depend on how the stream is cut into chunks
    fired = agent.feed(audio.read_wav(args.wav))
    for event, request in fired:
        record = {
            "window_start_sample": event.window_start_sample,
            "device_log_odds": event.device_log_odds,
            "threshold": event.threshold,
        }
        if args.server is not None:
            try:
                resp = wire.request_verification(args.server, request, key=args.key)
            except (OSError, EOFError) as exc:
                host, port = args.server
                raise ProtocolError(f"verification server {host}:{port}: {exc!r}") from None
            record["verdict"] = resp.verdict.name.lower()
            record["fused_p_pos"] = resp.fused_p_pos
        if args.dump_requests:
            dump_dir = Path(args.dump_requests)
            dump_dir.mkdir(parents=True, exist_ok=True)
            frame = wire.encode_request(request, key=args.key)
            (dump_dir / f"req_{event.window_start_sample}.wuwp").write_bytes(frame)
        print(json.dumps(record, sort_keys=True))
    print(f"{len(fired)} events", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    members = _load_members(args.member)
    model = fusion.load_fusion(args.fusion)
    server = wire.VerificationServer(
        members, model, theta_cloud=args.theta_cloud, key=args.key
    )
    try:
        server.serve_forever(args.host, args.port)
    except OSError as exc:
        raise ProtocolError(f"cannot listen on {args.host}:{args.port}: {exc!r}") from None
    return 0


def cmd_eval(args) -> int:
    entries, base = _read_manifest(args)
    report = evaluation.evaluate(
        entries,
        _pipeline_from_args(args),
        theta=args.theta,
        buckets=evaluation.default_buckets(args.buckets),
        seed=args.seed,
        base_dir=base,
    )
    print(report.to_table())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
    else:
        print(report.to_json())
    return 0


def cmd_sweep(args) -> int:
    entries, base = _read_manifest(args)
    thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    points = evaluation.threshold_sweep(
        entries,
        _pipeline_from_args(args),
        thetas,
        seed=args.seed,
        base_dir=base,
    )
    print(f"{'theta':>7}  {'prec':>6}  {'recall':>6}  {'F1':>6}")
    for p in points:
        flag = "  *best" if p.best else ""
        print(f"{p.theta:7.3f}  {p.precision:6.4f}  {p.recall:6.4f}  {p.f1:6.4f}{flag}")
    if args.out:
        payload = json.dumps([asdict(p) for p in points], indent=2, sort_keys=True)
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    return 0


# -- Parser wiring -----------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="wuw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common_train(p):
        p.add_argument("--seed", type=_non_negative_int, default=0)
        p.add_argument("--epochs", type=_non_negative_int, default=700)
        p.add_argument("--batch-size", type=_positive_int, default=128)
        p.add_argument("--lr", type=_positive_float, default=1e-3)
        p.add_argument("--patience", type=_positive_int, default=5)
        p.add_argument("--copies", type=_positive_int, default=1)
        p.add_argument("--allow-unaligned", action="store_true")

    p = sub.add_parser("synth", help="write the synthetic chirp-keyword corpus and manifest")
    p.add_argument("out_dir")
    p.add_argument("--train", type=_non_negative_int, default=500)
    p.add_argument("--valid", type=_non_negative_int, default=100)
    p.add_argument("--test", type=_non_negative_int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="wav -> float32 (frames, coeffs) MFCC matrix as .npy")
    p.add_argument("wav")
    p.add_argument("out")
    p.add_argument("--config", choices=("device", "cloud"), default="device")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="train the linear baseline scorer")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", choices=("device", "cloud"), default="device")
    common_train(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fuse-train", help="train the stacking fusion model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--device-weights", required=True)
    p.add_argument("--member", action="append", required=True,
                   help="member weight file (repeatable, order matters)")
    p.add_argument("--hidden", type=_positive_int, default=fusion.FUSION_HIDDEN)
    common_train(p)
    p.set_defaults(func=cmd_fuse_train)

    p = sub.add_parser("detect", help="stream a wav through the device agent")
    p.add_argument("wav")
    p.add_argument("--device-weights", required=True)
    p.add_argument("--theta-device", type=_probability, default=0.5)
    p.add_argument("--refractory", type=_seconds, default=wire.REFRACTORY_S)
    p.add_argument("--server", type=_parse_server,
                   help="host:port of a verification server")
    p.add_argument("--key", type=_key,
                   help="pre-shared obfuscation key (int): requests are sent and dumped "
                        "obfuscated under it; a server started with a key refuses requests "
                        "sent without it")
    p.add_argument("--dump-requests", help="directory for raw request frames")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("serve", help="run the verification server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=0)
    p.add_argument("--member", action="append", required=True)
    p.add_argument("--fusion", required=True)
    p.add_argument("--theta-cloud", type=_probability, default=0.5)
    p.add_argument("--key", type=_key, help="pre-shared obfuscation key (int)")
    p.set_defaults(func=cmd_serve)

    def common_eval(p):
        p.add_argument("--manifest", required=True)
        p.add_argument("--weights")
        p.add_argument("--device-weights")
        p.add_argument("--member", action="append")
        p.add_argument("--fusion")
        p.add_argument("--seed", type=_non_negative_int, default=0)
        p.add_argument("--out")
        p.add_argument("--allow-unaligned", action="store_true")

    p = sub.add_parser("eval", help="per-SNR-bucket F1 report")
    common_eval(p)
    p.add_argument("--theta", type=_probability, default=0.5)
    p.add_argument("--buckets", type=_positive_int, default=6)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="threshold sweep over cached scores")
    common_eval(p)
    p.add_argument("--theta-min", type=_probability, default=0.05)
    p.add_argument("--theta-max", type=_probability, default=0.95)
    p.add_argument("--steps", type=_positive_int, default=19)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:  # OSError: an input or output file
        print(f"wuw: data error: {exc}", file=sys.stderr)
        return 2
    except (ModelError, ProtocolError) as exc:
        print(f"wuw: model/protocol error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
