"""The runtime's import contract: no wuw module imports scipy, and the
package namespace imports nothing.

numpy is the only runtime dependency; scipy is a test-time oracle. After
numpy, importing scipy.fft loads 85 modules in about 0.3 s and adds about
27 MiB of RSS; scipy.signal loads 530 in about 1.3 s and adds 76 MiB
(2-vCPU x86-64, Python 3.11, scipy 1.17). One test reads the import
statements of every module under src/wuw; the others run one path in a
fresh interpreter and report the scipy modules it left loaded. Inputs are
made here, in the parent process. The last imports one feature module in a
fresh interpreter and reports whether the wire protocol came with it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wuw.audio import AudioClip, write_wav
from wuw.features import CLOUD, DEVICE
from wuw.nnet import WeightStore, init_gru_scorer, save_weights
from wuw.synth import make_chirp_task, make_stream

SRC = Path(__file__).resolve().parents[1] / "src"

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_no_wuw_module_imports_scipy():
    imported = []
    for path in sorted((SRC / "wuw").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            imported += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert imported == []


def scipy_modules_after(code: str, *args) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the scipy modules it loaded."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code + REPORT, *map(str, args)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_serve_path_loads_no_scipy(tmp_path):
    save_weights(init_gru_scorer(CLOUD, hidden=8, layers=1, seed=0), tmp_path / "g.wuwm")
    rng = np.random.default_rng(0)
    save_weights(WeightStore(
        {"fc1.w": rng.normal(size=(3, 2)), "fc1.b": np.zeros(3),
         "fc2.w": rng.normal(size=(2, 3)), "fc2.b": np.zeros(2)},
        {"kind": "fusion", "member_ids": ["device", "g"]}), tmp_path / "fusion.wuwm")
    code = """
import sys
import numpy as np
from wuw import cli, fusion, nnet, wire
members = [nnet.make_scorer(nnet.load_weights(sys.argv[1]), "g")]
server = wire.VerificationServer(members, fusion.load_fusion(sys.argv[2]))
addr = server.start()
try:
    req = wire.VerifyRequest(config_id=2, device_log_odds=1.0,
                             features=np.zeros((148, 40), dtype=np.float32))
    resp = wire.request_verification(addr, req)
    assert resp.verdict is not wire.Verdict.ERROR, resp
finally:
    server.shutdown()
"""
    loaded = scipy_modules_after(code, tmp_path / "g.wuwm", tmp_path / "fusion.wuwm")
    assert loaded == []


def test_device_path_loads_no_scipy(tmp_path):
    stream, _ = make_stream(np.random.default_rng(1), n_keywords=1, gap_s=2.0)
    write_wav(stream, tmp_path / "stream.wav")
    # Zero weights: log-odds 0, so the agent fires on its first window at theta 0.5.
    save_weights(WeightStore(
        {"norm.mean": np.zeros(DEVICE.n_mfcc), "norm.std": np.ones(DEVICE.n_mfcc),
         "w": np.zeros((2, 29 * DEVICE.n_mfcc)), "b": np.zeros(2)},
        {"kind": "linear", "config_id": DEVICE.config_id}), tmp_path / "device.wuwm")
    code = """
import sys
from wuw import audio, nnet, wire
clip = audio.read_wav(sys.argv[1])
agent = wire.DeviceAgent(nnet.make_scorer(nnet.load_weights(sys.argv[2])), theta_device=0.5)
fired = []
for s in range(0, len(clip), 1600):
    fired += agent.feed(audio.AudioClip(clip.samples[s : s + 1600], clip.sample_rate_hz))
    if fired:
        break
assert fired and fired[0][1].features.shape == (148, 40)
"""
    loaded = scipy_modules_after(code, tmp_path / "stream.wav", tmp_path / "device.wuwm")
    assert loaded == []


def test_feature_build_with_rir_loads_no_scipy(tmp_path):
    manifest = make_chirp_task(tmp_path, n_train=5, n_valid=0, n_test=0, seed=2)
    rng = np.random.default_rng(3)
    rir = rng.normal(size=800) * np.exp(-np.arange(800) / 120.0)
    write_wav(AudioClip(rir), tmp_path / "rir.wav")
    with manifest.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"path": "rir.wav", "label": "rir", "split": "train"}) + "\n")
    code = """
import sys
from pathlib import Path
from wuw import evaluation, features
from wuw.audio import convolve_rir
calls = []
def spy(clip, rir):
    calls.append(1)
    return convolve_rir(clip, rir)
evaluation.convolve_rir = spy
entries = evaluation.load_manifest(sys.argv[1])
data = evaluation.build_feature_dataset(entries, features.DEVICE, "train", seed=0, copies=4,
                                        base_dir=Path(sys.argv[1]).parent)
assert len(data) == 20 and calls, (len(data), len(calls))
"""
    loaded = scipy_modules_after(code, manifest)
    assert loaded == []


def test_corpus_and_stream_synthesis_loads_no_scipy(tmp_path):
    code = """
import sys
import numpy as np
from wuw import synth
manifest = synth.make_chirp_task(sys.argv[1], n_train=5, n_valid=1, n_test=1, seed=0)
stream, starts = synth.make_stream(np.random.default_rng(0), n_keywords=2)
assert manifest.is_file() and len(starts) == 2
"""
    assert scipy_modules_after(code, tmp_path) == []


@pytest.mark.parametrize("module", ["wuw.audio", "wuw.features"])
def test_a_feature_module_loads_no_wire_protocol(module):
    """The package re-exports nothing, so a module loads only its own imports."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = (f"import json, sys, {module}\n"
            "print(json.dumps(sorted({'wuw.wire', 'socketserver'} & set(sys.modules))))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == []
