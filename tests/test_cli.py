"""End to end through ``wuw``'s command line, in process, on a tiny corpus."""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import socket

import numpy as np
import pytest

import wuw
from wuw.audio import AudioClip, peak_normalize, read_wav, write_wav
from wuw.cli import build_parser, main
from wuw.errors import ProtocolError
from wuw.features import CLOUD, DEVICE, mfcc
from wuw.fusion import FusionModel
from wuw.nnet import WeightStore, init_gru_scorer, make_scorer, save_weights
from wuw.synth import make_chirp_task, make_stream
from wuw.wire import (
    FLAG_OBFUSCATED,
    REFRACTORY_S,
    DeviceAgent,
    VerificationServer,
    decode_request,
    encode_request,
)

from test_fusion import fusion_store
from wavs import pcm16_wav_bytes

TRAIN = ["--epochs", "5", "--seed", "1"]
BUCKET_KEYS = {"snr_lo", "snr_hi", "tp", "fp", "fn", "f1"}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    manifest = make_chirp_task(base / "corpus", n_train=10, n_valid=5, n_test=5, seed=2)
    return base, str(manifest)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


class TestPipeline:
    def test_train_fuse_eval_sweep_detect(self, work, capsys):
        base, manifest = work
        device, cloud, fused = base / "device.wuwm", base / "cloud.wuwm", base / "fusion.wuwm"
        assert run(capsys, "train", "--manifest", manifest, "--out", device, *TRAIN)[0] == 0
        assert run(capsys, "train", "--manifest", manifest, "--out", cloud,
                   "--config", "cloud", *TRAIN)[0] == 0
        assert run(capsys, "fuse-train", "--manifest", manifest, "--out", fused,
                   "--device-weights", device, "--member", cloud, *TRAIN)[0] == 0

        out = base / "eval.json"
        assert run(capsys, "eval", "--manifest", manifest, "--device-weights", device,
                   "--member", cloud, "--fusion", fused, "--buckets", "3",
                   "--out", out)[0] == 0
        report = json.loads(out.read_text())
        assert set(report) == {"theta", "seed", "overall_f1", "buckets"}
        assert len(report["buckets"]) == 3
        assert all(set(b) == BUCKET_KEYS for b in report["buckets"])

        out = base / "sweep.json"
        assert run(capsys, "sweep", "--manifest", manifest, "--weights", device,
                   "--steps", "5", "--out", out)[0] == 0
        points = json.loads(out.read_text())
        assert len(points) == 5
        assert all(set(p) == {"theta", "precision", "recall", "f1", "best"} for p in points)
        assert sum(p["best"] for p in points) == 1

        stream, _ = make_stream(np.random.default_rng(4), n_keywords=2, gap_s=3.0)
        wav = base / "stream.wav"
        write_wav(stream, wav)
        dumps = base / "requests"
        # theta 0 fires on every window outside the refractory period
        code, text = run(capsys, "detect", wav, "--device-weights", device,
                         "--theta-device", "0", "--refractory", "2",
                         "--dump-requests", dumps)
        assert code == 0
        events = [json.loads(line) for line in text.splitlines()]
        assert len(events) >= 2
        assert all(set(e) == {"window_start_sample", "device_log_odds", "threshold"}
                   for e in events)
        assert len(list(dumps.glob("req_*.wuwp"))) == len(events)

    def test_detect_against_a_keyed_server_records_each_verdict(self, tmp_path, capsys):
        device = init_gru_scorer(DEVICE, hidden=4, layers=1, seed=1)
        save_weights(device, tmp_path / "device.wuwm")
        members = [make_scorer(init_gru_scorer(CLOUD, hidden=4, layers=1, seed=s), name)
                   for s, name in enumerate(("a", "b"))]  # the member ids of fusion_store
        ws = fusion_store()
        rng = np.random.default_rng(6)
        ws = WeightStore({k: rng.normal(size=t.shape) for k, t in ws.tensors.items()},
                         ws.metadata)
        key = 0x5EED
        server = VerificationServer(members, FusionModel(ws), key=key)
        stream, _ = make_stream(np.random.default_rng(4), n_keywords=2, gap_s=3.0)
        wav = tmp_path / "stream.wav"
        write_wav(stream, wav)
        host, port = server.start()
        try:
            code = main(["detect", str(wav), "--device-weights", str(tmp_path / "device.wuwm"),
                         "--theta-device", "0", "--refractory", "2",
                         "--server", f"{host}:{port}", "--key", str(key),
                         "--dump-requests", str(tmp_path / "requests")])
        finally:
            server.shutdown()
        out, err = capsys.readouterr()
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        fired = DeviceAgent(make_scorer(device), theta_device=0.0,
                            refractory_s=2.0).feed(read_wav(wav))
        assert len(records) == len(fired) >= 2 and err == f"{len(fired)} events\n"
        for record, (event, request) in zip(records, fired):
            want = server.verify(request)
            assert record["window_start_sample"] == event.window_start_sample
            assert record["verdict"] == want.verdict.name.lower() in ("accept", "reject")
            assert record["fused_p_pos"] == float(np.float32(want.fused_p_pos))
            # the frame went out keyed: it cannot be read without the key
            frame = (tmp_path / "requests" / f"req_{event.window_start_sample}.wuwp").read_bytes()
            with pytest.raises(ProtocolError, match="needs a key"):
                decode_request(frame)
            assert decode_request(frame, key=key).features.tobytes() == \
                request.features.tobytes()

    @pytest.mark.parametrize("key", [None, 0x5EED], ids=["plain", "keyed"])
    def test_dumped_frames_are_the_requests_encoded_under_the_key(self, tmp_path, capsys, key):
        device = init_gru_scorer(DEVICE, hidden=4, layers=1, seed=1)
        save_weights(device, tmp_path / "device.wuwm")
        stream, _ = make_stream(np.random.default_rng(4), n_keywords=2, gap_s=3.0)
        wav, dumps = tmp_path / "stream.wav", tmp_path / "requests"
        write_wav(stream, wav)
        code, _ = run(capsys, "detect", wav, "--device-weights", tmp_path / "device.wuwm",
                      "--theta-device", "0", "--refractory", "2", "--dump-requests", dumps,
                      *(["--key", str(key)] if key is not None else []))
        assert code == 0
        fired = DeviceAgent(make_scorer(device), theta_device=0.0,
                            refractory_s=2.0).feed(read_wav(wav))
        assert len(fired) >= 2 and len(list(dumps.iterdir())) == len(fired)
        for event, request in fired:
            # flagged for the key explicitly: the codec must give the same frame
            flagged = dataclasses.replace(request, flags=FLAG_OBFUSCATED if key else 0)
            frame = (dumps / f"req_{event.window_start_sample}.wuwp").read_bytes()
            assert frame == encode_request(flagged, key=key)

    def test_synth_writes_the_chirp_task(self, tmp_path, capsys):
        code, text = run(capsys, "synth", tmp_path / "cli", "--train", "4", "--valid", "2",
                         "--test", "3", "--seed", "5")
        assert code == 0 and text == f"{tmp_path / 'cli' / 'manifest.jsonl'}\n"
        make_chirp_task(tmp_path / "api", n_train=4, n_valid=2, n_test=3, seed=5)
        files = sorted(p.name for p in (tmp_path / "api").iterdir())
        assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == files
        for name in files:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "api" / name).read_bytes()

    @pytest.mark.parametrize("name,config", [("device", DEVICE), ("cloud", CLOUD)])
    def test_features_writes_the_mfcc_matrix_as_npy(self, tmp_path, capsys, name, config):
        stream, _ = make_stream(np.random.default_rng(5), n_keywords=1, gap_s=2.0)
        wav, out = tmp_path / "stream.wav", tmp_path / name
        write_wav(stream, wav)
        assert run(capsys, "features", wav, out, "--config", name)[0] == 0
        assert sorted(tmp_path.iterdir()) == [out, wav]  # exactly OUT, no ".npy" added
        want = mfcc(peak_normalize(read_wav(wav)), config)
        got = np.load(out)
        assert got.dtype == np.float32
        assert got.tobytes() == want.values.tobytes() and got.shape == want.values.shape


# What a malformed value is refused with, by the option (or the subcommand
# position) that takes it, or by the option and value where they differ.
REFUSALS = {
    ("--key", "-1"): "must be in [0, 2**64)",
    ("--key", str(2**64)): "must be in [0, 2**64)",
    "command": "invalid choice",
    "--server": "not host:port",
    "--key": "not an int",
    "--theta-device": "must be in [0, 1]",
    "--theta-cloud": "must be in [0, 1]",
    "--theta": "must be in [0, 1]",
    "--theta-min": "must be in [0, 1]",
    "--theta-max": "must be in [0, 1]",
    "--refractory": "must be finite and at least 0",
    "--lr": "must be finite and above 0",
    "--port": "must be a port in 0-65535",
    "--seed": "must be at least 0",
    "--epochs": "must be at least 0",
    "--train": "must be at least 0",
    "--buckets": "must be at least 1",
    "--steps": "must be at least 1",
    "--batch-size": "must be at least 1",
    "--patience": "must be at least 1",
    "--copies": "must be at least 1",
    "--hidden": "must be at least 1",
}


class TestExitCodes:
    def test_missing_manifest_option_is_a_usage_error(self, capsys):
        assert run(capsys, "eval", "--weights", "w.wuwm")[0] == 1

    @pytest.mark.parametrize("argv", [
        ("detect", "s.wav", "--device-weights", "d.wuwm", "--server", "nohost"),
        ("detect", "s.wav", "--device-weights", "d.wuwm", "--server", "host:port"),
        ("detect", "s.wav", "--device-weights", "d.wuwm", "--key", "zz"),
        ("serve", "--member", "m.wuwm", "--fusion", "f.wuwm", "--key", "zz"),
        ("bench",),
        ("detect", "s.wav", "--device-weights", "d.wuwm", "--theta-device", "nan"),
        ("detect", "s.wav", "--device-weights", "d.wuwm", "--theta-device", "1.5"),
        ("detect", "s.wav", "--device-weights", "d.wuwm", "--theta-device", "-0.1"),
        ("detect", "s.wav", "--device-weights", "d.wuwm", "--refractory", "-1"),
        ("detect", "s.wav", "--device-weights", "d.wuwm", "--refractory", "nan"),
        ("detect", "s.wav", "--device-weights", "d.wuwm", "--refractory", "inf"),
        ("serve", "--member", "m.wuwm", "--fusion", "f.wuwm", "--theta-cloud", "nan"),
        ("serve", "--member", "m.wuwm", "--fusion", "f.wuwm", "--theta-cloud", "2"),
        ("serve", "--member", "m.wuwm", "--fusion", "f.wuwm", "--port", "65536"),
        ("serve", "--member", "m.wuwm", "--fusion", "f.wuwm", "--port", "-1"),
        ("eval", "--manifest", "m.jsonl", "--weights", "w.wuwm", "--theta", "nan"),
        ("eval", "--manifest", "m.jsonl", "--weights", "w.wuwm", "--theta", "1.5"),
        ("eval", "--manifest", "m.jsonl", "--weights", "w.wuwm", "--buckets", "0"),
        ("eval", "--manifest", "m.jsonl", "--weights", "w.wuwm", "--buckets", "-2"),
        ("eval", "--manifest", "m.jsonl", "--weights", "w.wuwm", "--seed", "-1"),
        ("sweep", "--manifest", "m.jsonl", "--weights", "w.wuwm", "--steps", "0"),
        ("sweep", "--manifest", "m.jsonl", "--weights", "w.wuwm", "--theta-min", "2"),
        ("sweep", "--manifest", "m.jsonl", "--weights", "w.wuwm", "--theta-max", "nan"),
        ("train", "--manifest", "m.jsonl", "--out", "o.wuwm", "--epochs", "-1"),
        ("train", "--manifest", "m.jsonl", "--out", "o.wuwm", "--batch-size", "0"),
        ("train", "--manifest", "m.jsonl", "--out", "o.wuwm", "--patience", "0"),
        ("train", "--manifest", "m.jsonl", "--out", "o.wuwm", "--copies", "0"),
        ("train", "--manifest", "m.jsonl", "--out", "o.wuwm", "--lr", "0"),
        ("train", "--manifest", "m.jsonl", "--out", "o.wuwm", "--lr", "nan"),
        ("train", "--manifest", "m.jsonl", "--out", "o.wuwm", "--lr", "inf"),
        ("fuse-train", "--manifest", "m.jsonl", "--out", "o.wuwm", "--device-weights",
         "d.wuwm", "--member", "m.wuwm", "--hidden", "0"),
        ("synth", "corpus", "--train", "-1"),
        ("detect", "s.wav", "--device-weights", "d.wuwm", "--key", "-1"),
        ("serve", "--member", "m.wuwm", "--fusion", "f.wuwm", "--key", str(2**64)),
    ])
    def test_malformed_value_is_a_usage_error(self, argv, capsys):
        # argparse exits 1 for any usage error; the message names the rule
        flag, value = ("command", argv[0]) if len(argv) == 1 else argv[-2:]
        refusal = REFUSALS.get((flag, value)) or REFUSALS[flag]
        assert main(list(argv)) == 1
        assert f"argument {flag}: {refusal}: {value!r}" in capsys.readouterr().err

    def test_the_errors_are_three_classes_one_per_exit_code(self):
        # no caller tells a finer class apart, so src/wuw defines no other
        defined = {}
        for info in pkgutil.iter_modules(wuw.__path__):
            module = importlib.import_module(f"wuw.{info.name}")
            defined.update({f"{info.name}.{name}": value for name, value in vars(module).items()
                            if isinstance(value, type) and issubclass(value, BaseException)
                            and value.__module__ == module.__name__})
        assert set(defined) == {"errors.DataError", "errors.ModelError", "errors.ProtocolError"}
        assert all(cls.__bases__ == (Exception,) for cls in defined.values())

    @pytest.mark.parametrize("case,refusal", [
        ("not-riff", "not a RIFF/WAVE file"),
        ("stereo", "expected mono, got 2 channels"),
        ("pcm8", "unsupported encoding (format 1, 8 bits)"),
    ])
    def test_unreadable_wav_is_a_data_error(self, tmp_path, capsys, case, refusal):
        device, wav = tmp_path / "device.wuwm", tmp_path / "s.wav"
        save_weights(init_gru_scorer(DEVICE, hidden=4, layers=1), device)
        wav.write_bytes({"not-riff": b"OGGS" + bytes(40),
                         "stereo": pcm16_wav_bytes([0, 0], channels=2),
                         "pcm8": pcm16_wav_bytes([0], bits=8)}[case])
        assert main(["detect", str(wav), "--device-weights", str(device)]) == 2
        assert capsys.readouterr().err == f"wuw: data error: {wav}: {refusal}\n"

    @pytest.mark.parametrize("case,refusal", [
        ("bad-magic", "bad weight-file magic"),
        ("bad-version", "unsupported version 42"),
        ("truncated-payload", "payload for 'head.b' truncated"),
    ])
    def test_corrupt_weight_file_is_a_model_error(self, tmp_path, capsys, case, refusal):
        device = tmp_path / "device.wuwm"
        save_weights(init_gru_scorer(DEVICE, hidden=4, layers=1), device)
        blob = bytearray(device.read_bytes())
        if case == "bad-magic":
            blob[:4] = b"JUNK"
        elif case == "bad-version":
            blob[4] = 42
        device.write_bytes(bytes(blob[:-5] if case == "truncated-payload" else blob))
        assert main(["detect", str(tmp_path / "s.wav"), "--device-weights", str(device)]) == 3
        assert capsys.readouterr().err == f"wuw: model/protocol error: {device}: {refusal}\n"

    def test_missing_manifest_file_is_a_data_error(self, tmp_path, capsys):
        assert run(capsys, "eval", "--manifest", tmp_path / "absent.jsonl",
                   "--weights", "w.wuwm")[0] == 2

    @pytest.mark.parametrize("case", ["manifest-dir", "wav-dir", "weights-dir",
                                      "manifest-not-utf8", "manifest-nan-span"])
    def test_unreadable_input_file_is_a_data_error(self, tmp_path, capsys, case):
        device, manifest = tmp_path / "device.wuwm", tmp_path / "m.jsonl"
        save_weights(init_gru_scorer(DEVICE, hidden=4, layers=1), device)
        manifest.write_bytes(b'{"path": "a.wav", "label": "noise", "split": "test"}\n\xff\n')
        nan_span = tmp_path / "nan.jsonl"
        nan_span.write_text('{"path": "a.wav", "label": "wuw", "split": "train", '
                            '"start_s": NaN, "end_s": 0.6}\n', encoding="utf-8")
        argv = {
            "manifest-dir": ("eval", "--manifest", tmp_path, "--weights", device),
            "wav-dir": ("detect", tmp_path, "--device-weights", device),
            "weights-dir": ("detect", tmp_path / "s.wav", "--device-weights", tmp_path),
            "manifest-not-utf8": ("eval", "--manifest", manifest, "--weights", device),
            "manifest-nan-span": ("train", "--manifest", nan_span, "--out", tmp_path / "o.wuwm"),
        }[case]
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        if case == "manifest-not-utf8":
            assert f"{manifest}: not UTF-8" in err
        if case == "manifest-nan-span":
            assert f"{nan_span}:1: invalid span" in err

    def test_unreachable_server_is_a_protocol_error(self, tmp_path, capsys):
        device, wav = tmp_path / "device.wuwm", tmp_path / "stream.wav"
        save_weights(init_gru_scorer(DEVICE, hidden=4, layers=1), device)
        write_wav(make_stream(np.random.default_rng(4), n_keywords=1, gap_s=2.0)[0], wav)
        with socket.socket() as sock:  # a port that was free a moment ago
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(["detect", str(wav), "--device-weights", str(device),
                     "--theta-device", "0", "--server", f"127.0.0.1:{port}"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and f"verification server 127.0.0.1:{port}" in err

    def test_serve_on_a_port_in_use_is_a_protocol_error(self, tmp_path, capsys):
        members = []
        for name in ("a", "b"):  # the member ids of fusion_store
            save_weights(init_gru_scorer(CLOUD, hidden=4, layers=1), tmp_path / f"{name}.wuwm")
            members += ["--member", str(tmp_path / f"{name}.wuwm")]
        save_weights(fusion_store(), tmp_path / "f.wuwm")
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            sock.listen()
            assert main(["serve", *members, "--fusion", str(tmp_path / "f.wuwm"),
                         "--port", str(sock.getsockname()[1])]) == 3
        assert "cannot listen on 127.0.0.1" in capsys.readouterr().err

    def test_detect_on_a_wav_at_another_rate_is_a_model_error(self, tmp_path, capsys):
        device = tmp_path / "device.wuwm"
        save_weights(init_gru_scorer(DEVICE, hidden=4, layers=1), device)
        stream, _ = make_stream(np.random.default_rng(4), n_keywords=1, gap_s=2.0)
        wav = tmp_path / "stream8k.wav"
        write_wav(AudioClip(stream.samples, 8000), wav)
        code, text = run(capsys, "detect", wav, "--device-weights", device,
                         "--theta-device", "0")
        assert code == 3
        assert text == ""

    def test_malformed_device_weights_are_a_model_error(self, tmp_path, capsys):
        device = tmp_path / "bad.wuwm"
        tensors = {"norm.mean": np.zeros(13), "w": np.zeros((2, 29 * 13)), "b": np.zeros(2)}
        save_weights(WeightStore(tensors, {"kind": "linear", "config_id": DEVICE.config_id}),
                     device)
        assert run(capsys, "detect", tmp_path / "s.wav", "--device-weights", device)[0] == 3

    @pytest.mark.parametrize("metadata", [{"config_id": 99}, {"kind": ["sgru"]},
                                          {"kind": {"a": 1}}],
                             ids=["metadata2", "metadata3", "metadata4"])
    def test_malformed_device_model_metadata_is_a_model_error(self, tmp_path, capsys,
                                                              metadata):
        ws = init_gru_scorer(DEVICE, hidden=4, layers=1)
        ws.metadata.update(metadata)
        device = tmp_path / "bad.wuwm"
        save_weights(ws, device)
        assert run(capsys, "detect", tmp_path / "s.wav", "--device-weights", device)[0] == 3

    def test_member_kind_that_is_not_a_string_is_a_model_error(self, tmp_path, capsys):
        ws = init_gru_scorer(CLOUD, hidden=4, layers=1)
        ws.metadata["kind"] = ["sgru"]
        save_weights(ws, tmp_path / "m.wuwm")
        assert run(capsys, "serve", "--member", tmp_path / "m.wuwm",
                   "--fusion", tmp_path / "f.wuwm")[0] == 3

    def test_flat_gru_input_weights_are_a_model_error(self, work, tmp_path, capsys):
        _, manifest = work
        ws = init_gru_scorer(DEVICE, hidden=4, layers=2)
        ws.tensors["gru1.w_ih"] = ws.tensors["gru1.w_ih"].reshape(-1)[:12]
        save_weights(ws, tmp_path / "flat.wuwm")
        assert run(capsys, "eval", "--manifest", manifest,
                   "--weights", tmp_path / "flat.wuwm")[0] == 3

    def test_member_narrower_than_its_config_is_refused_at_start(self, tmp_path, capsys):
        ws = init_gru_scorer(DEVICE, hidden=4, layers=1)  # 13 inputs
        ws.metadata["config_id"] = CLOUD.config_id         # claims 40
        save_weights(ws, tmp_path / "m.wuwm")
        assert run(capsys, "serve", "--member", tmp_path / "m.wuwm",
                   "--fusion", tmp_path / "f.wuwm")[0] == 3

    @pytest.mark.parametrize("case", ["no fc1.w", "member_ids int", "fc2.b"])
    def test_malformed_fusion_file_is_a_model_error(self, work, tmp_path, capsys, case):
        _, manifest = work
        device, fused = tmp_path / "device.wuwm", tmp_path / "f.wuwm"
        save_weights(init_gru_scorer(DEVICE, hidden=4, layers=1), device)
        members = []
        for name in ("a", "b"):  # the member ids of fusion_store
            save_weights(init_gru_scorer(CLOUD, hidden=4, layers=1), tmp_path / f"{name}.wuwm")
            members += ["--member", tmp_path / f"{name}.wuwm"]
        save_weights(fusion_store(case), fused)
        assert run(capsys, "eval", "--manifest", manifest, "--device-weights", device,
                   *members, "--fusion", fused)[0] == 3

    def test_fusion_without_device_weights_is_a_model_error(self, work, capsys):
        _, manifest = work
        assert run(capsys, "eval", "--manifest", manifest, "--fusion", "f.wuwm")[0] == 3


def test_detect_refractory_default_is_the_agents():
    args = build_parser().parse_args(["detect", "s.wav", "--device-weights", "d.wuwm"])
    assert args.refractory == REFRACTORY_S
    assert args.refractory == inspect.signature(DeviceAgent).parameters["refractory_s"].default
