"""Set-up, timed phase and correctness checks of the three workloads.

Each workload function takes a :class:`Run` and returns a :class:`Result`:
the figures named in the README (under their long names, such as
``stream.scan_rtf``), the operations attempted and failed, the correctness
verdict with its reasons, and, in a traced run, the per-layer figures.
Inputs come only from the run's seed.
"""

from __future__ import annotations

import ctypes
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from wuw import audio, evaluation, features, fusion, nnet, synth, wire

from . import reference
from .tracing import Recorder, load_spans

# -- Inputs ------------------------------------------------------------------

CORPUS = {"n_train": 100, "n_valid": 25, "n_test": 10}
TRAIN_SPEC = {"max_epochs": 60}
MEMBERS = (("sgru", "sgru", 1), ("gru-max", "gru-max", 2), ("sgru2", "sgru", 3))
MEMBER_IDS = ("device",) + tuple(name for name, _, _ in MEMBERS)
FUSION_ROWS = 2000
FUSION_SIGMAS = (1.0, 1.5, 2.0, 2.5)
SETUP_REPEATS = 3

THETA_DEVICE = 0.5
THETA_CLOUD = 0.5
# A keyword stays inside some firing 1.5 s window for up to 2.1 s; keywords
# are 3 s apart, so a 2 s refractory period gives one event per keyword.
REFRACTORY_S = 2.0
STREAM_KEYWORDS = 20
STREAM_GAP_S = 3.0
STREAM_SNR_DB = 20.0
CHUNK_S = 0.1

# Single-request capacity with three 2x128 GRU members is about 21/s on a
# 2-core machine (one request at a time, loopback); a third of it is offered.
OFFERED_PER_S = 5.0
SENDERS = 2
POOL = 48
KEY = 0x5EED_0B5C_A7E5_1234
# Bursts in the arrival schedule set the queueing delay, so the schedule is
# fixed: runs with different seeds then differ only in request content.
SCHEDULE_SEED = 2017

CHECK_WINDOWS = 8
# The fixed windows that ensemble_pipeline is checked on are the same on
# every run, whatever its seed.
CHECK_SEED = 12345
TAIL_PERCENTILE = 90


@dataclass
class Run:
    root: Path
    workdir: Path
    seed: int
    seconds: float
    trace: bool
    recorder: Recorder | None = None


@dataclass
class Result:
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.errors

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(message)


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def tail(values) -> float:
    return float(np.percentile(values, TAIL_PERCENTILE)) if len(values) else 0.0


# -- Set-up ------------------------------------------------------------------

@dataclass
class Models:
    corpus: Path
    entries: list
    device_path: Path
    member_paths: list[Path]
    fusion_path: Path
    train_classifier_s: float
    train_fusion_s: float


def make_models(workdir: Path, seed: int) -> Models:
    """Synthetic corpus, the device model fitted on it, random GRU members and
    a fusion model fitted on synthetic score rows, all written to files."""
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = workdir / "corpus"
    manifest = synth.make_chirp_task(corpus, seed=seed, **CORPUS)
    entries = evaluation.load_manifest(manifest)
    train = evaluation.build_feature_dataset(
        entries, features.DEVICE, "train", seed=seed, base_dir=corpus)
    valid = evaluation.build_feature_dataset(
        entries, features.DEVICE, "valid", seed=seed + 1, base_dir=corpus)
    t0 = time.perf_counter()
    device = nnet.train_classifier(train, valid, nnet.TrainSpec(seed=seed, **TRAIN_SPEC))
    train_classifier_s = time.perf_counter() - t0
    device_path = workdir / "device.wuwm"
    nnet.save_weights(device, device_path)

    member_paths = []
    for name, kind, offset in MEMBERS:
        path = workdir / f"{name}.wuwm"
        nnet.save_weights(
            nnet.init_gru_scorer(features.CLOUD, kind=kind, seed=seed + offset), path)
        member_paths.append(path)

    rows = fusion.synth_score_task(
        len(MEMBER_IDS), FUSION_SIGMAS, FUSION_ROWS,
        np.random.default_rng(seed), member_ids=MEMBER_IDS)
    t0 = time.perf_counter()
    model = fusion.train_fusion(rows, nnet.TrainSpec(seed=seed, **TRAIN_SPEC))
    train_fusion_s = time.perf_counter() - t0
    fusion_path = workdir / "fusion.wuwm"
    nnet.save_weights(model.weights, fusion_path)
    return Models(corpus, entries, device_path, member_paths, fusion_path,
                  train_classifier_s, train_fusion_s)


def load_scorer(path: Path, member_id: str) -> nnet.Scorer:
    return nnet.make_scorer(nnet.load_weights(path), member_id)


def ref_ensemble(models: Models) -> reference.RefEnsemble:
    return reference.RefEnsemble(models.device_path, models.member_paths,
                                 models.fusion_path)


def _die_with_parent() -> None:
    """In the child: get SIGTERM when the benchmark process dies, so that a
    killed benchmark leaves no server behind (Linux prctl PR_SET_PDEATHSIG)."""
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)


class Server:
    """``wuw serve`` in its own process, or the traced launcher around it."""

    def __init__(self, run: Run, models: Models, key: int | None, tag: str):
        self.spans_path = run.workdir / f"server-spans-{tag}.jsonl"
        serve_args = []
        for path in models.member_paths:
            serve_args += ["--member", str(path)]
        serve_args += ["--fusion", str(models.fusion_path), "--port", "0",
                       "--theta-cloud", str(THETA_CLOUD)]
        if key is not None:
            serve_args += ["--key", str(key)]
        if run.trace:
            cmd = [sys.executable, str(run.root / "wuwbench" / "serve_traced.py"),
                   str(self.spans_path), *serve_args]
        else:
            cmd = [sys.executable, "-m", "wuw.cli", "serve", *serve_args]
        env = dict(os.environ, PYTHONPATH=str(run.root / "src"))
        self.proc = subprocess.Popen(cmd, cwd=run.root, env=env, text=True,
                                     stdout=subprocess.PIPE, preexec_fn=_die_with_parent)
        try:
            self.addr = self._wait_listening(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_listening(self, timeout: float) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
            if "listening on" in line:
                host, _, port = line.strip().rpartition(" ")[2].rpartition(":")
                return host, int(port)
        raise RuntimeError("server did not start listening")

    def cpu_s(self) -> float:
        """User plus system CPU time of the server process, from /proc."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> list:
        """Stop the server, wait for it, and return its spans if traced."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return load_spans(self.spans_path) if self.spans_path.exists() else []


def repeated_setup(run: Run, build) -> tuple[float, object]:
    """Run ``build(tag)`` once in a traced run, else SETUP_REPEATS times;
    return the median wall time and the state of the last build.
    ``build`` returns (state, release) where ``release`` frees the state."""
    times, state, release = [], None, None
    for i in range(1 if run.trace else SETUP_REPEATS):
        if release is not None:
            release()
        t0 = time.perf_counter()
        state, release = build(f"s{i}")
        times.append(time.perf_counter() - t0)
    return median(times), state


# -- stream ------------------------------------------------------------------

def stream_workload(run: Run) -> Result:
    res = Result()

    def build(tag):
        models = make_models(run.workdir / tag, run.seed)
        stream, starts = synth.make_stream(
            np.random.default_rng(run.seed + 100), n_keywords=STREAM_KEYWORDS,
            gap_s=STREAM_GAP_S, snr_db=STREAM_SNR_DB)
        device = load_scorer(models.device_path, "device")
        server = Server(run, models, key=None, tag=tag)
        return (models, server, stream, starts, device), server.stop

    setup_s, (models, server, stream, starts, device) = repeated_setup(run, build)
    try:
        cpu0 = server.cpu_s()
        rounds = _stream_timed(run, server, stream, device)
        server_cpu_s, server_rss = server.cpu_s() - cpu0, server.peak_rss_mb()
    finally:
        server_spans = server.stop()

    scan_rtf = [r["feed_wall"] / stream.duration_s for r in rounds]
    scan_cpu = [r["feed_cpu"] / stream.duration_s for r in rounds]
    wake = [w for r in rounds for w in r["wake"]]
    res.figures = {
        "setup_s": (setup_s, "s"),
        "stream.scan_rtf": (median(scan_rtf), "s/s"),
        "stream.scan_cpu_rtf": (median(scan_cpu), "s/s"),
        "stream.audio_s_per_s": (1.0 / median(scan_rtf), "1/s"),
        "stream.scan_cpu_ms_per_audio_s": (median(scan_cpu) * 1e3, "ms"),
        "stream.wake_ms": (median(wake) * 1e3, "ms"),
        f"stream.wake_p{TAIL_PERCENTILE}_ms": (tail(wake) * 1e3, "ms"),
        "stream.wake_samples": (len(wake), "count"),
        "server_rss_mb": (server_rss, "MiB"),
        "stream.server_cpu_ms": (server_cpu_s * 1e3 / max(len(wake), 1), "ms"),
    }
    res.attempted = len(rounds) * len(starts)
    res.failed = sum(r["failed"] for r in rounds)
    if run.trace:
        res.layers = stream_layers(run, models, rounds, server_spans)
    check_stream(res, rounds, stream, starts, models)
    return res


def _stream_timed(run: Run, server: Server, stream, device) -> list[dict]:
    chunk = int(round(CHUNK_S * stream.sample_rate_hz))
    samples = stream.samples
    rounds = []
    t_end = time.perf_counter() + run.seconds
    while not rounds or time.perf_counter() < t_end:
        agent = wire.DeviceAgent(device, theta_device=THETA_DEVICE,
                                 refractory_s=REFRACTORY_S)
        r = {"feed_wall": 0.0, "feed_cpu": 0.0, "wake": [], "events": [],
             "failed": 0, "feeds": [], "rv": []}
        for start in range(0, samples.size, chunk):
            c0 = time.process_time()
            t0 = time.perf_counter()
            fired = agent.feed(samples[start : start + chunk])
            t1 = time.perf_counter()
            r["feed_cpu"] += time.process_time() - c0
            r["feed_wall"] += t1 - t0
            r["feeds"].append((t0, t1))
            for event, request in fired:
                t2 = time.perf_counter()
                try:
                    resp = wire.request_verification(server.addr, request)
                except (OSError, EOFError, wire.ProtocolError) as exc:
                    resp = exc
                t3 = time.perf_counter()
                r["rv"].append((t2, t3, request.nonce))
                if isinstance(resp, Exception) or resp.verdict == wire.Verdict.ERROR:
                    r["failed"] += 1
                else:
                    r["wake"].append(t3 - t0)
                r["events"].append((event, request, resp))
        r["dropped"] = agent.dropped_windows
        rounds.append(r)
    return rounds


def check_stream(res: Result, rounds, stream, starts, models: Models) -> None:
    """One event per keyword, overlapping it; no dropped window; device
    log-odds and every response equal to the reference."""
    ref = ref_ensemble(models)
    window = int(round(audio.WINDOW_S * stream.sample_rate_hz))
    keyword = int(round(0.6 * stream.sample_rate_hz))
    first = rounds[0]["events"]
    res.check(len(first) == len(starts),
              f"{len(first)} events for {len(starts)} keywords")
    for (event, _, _), kw in zip(first, starts):
        s = event.window_start_sample
        res.check(s < kw + keyword and s + window > kw,
                  f"event at sample {s} misses the keyword at {kw}")
    if first:
        device_feats = np.stack([
            features.mfcc(audio.AudioClip(stream.samples[e.window_start_sample:
                                                         e.window_start_sample + window],
                                          stream.sample_rate_hz),
                          features.DEVICE).values for e, _, _ in first])
        want_lo = ref.device.log_odds(device_feats)
        got_lo = [e.device_log_odds for e, _, _ in first]
        res.check(bool(np.all(reference.close(got_lo, want_lo))),
                  f"device log-odds {got_lo} != reference {want_lo.tolist()}")
        z_ref, p_ref = ref.verify([r.device_log_odds for _, r, _ in first],
                                  np.stack([r.features for _, r, _ in first]))
    for i, r in enumerate(rounds):
        res.check(r["dropped"] == 0, f"round {i}: {r['dropped']} dropped windows")
        res.check([e.window_start_sample for e, _, _ in r["events"]]
                  == [e.window_start_sample for e, _, _ in first],
                  f"round {i}: events differ from round 0")
        if len(r["events"]) != len(first):
            continue
        for k, (_, request, resp) in enumerate(r["events"]):
            if isinstance(resp, Exception) or resp.verdict == wire.Verdict.ERROR:
                continue
            res.check(np.array_equal(request.features, first[k][1].features),
                      f"round {i} event {k}: request features differ from round 0")
            for msg in reference.response_errors(
                    resp.member_log_odds, resp.fused_p_pos,
                    resp.verdict == wire.Verdict.ACCEPT, THETA_CLOUD,
                    z_ref[k], p_ref[k]):
                res.check(False, f"round {i} event {k}: {msg}")


# -- verify ------------------------------------------------------------------

def _pool_windows(seed: int, n: int) -> list[audio.AudioClip]:
    """Noise-mixed 1.5 s synthetic windows, alternately keyword and not."""
    rng = np.random.default_rng(seed)
    windows = []
    for i in range(n):
        if i % 2 == 0:
            clip = synth.make_positive_clip(rng, clip_s=audio.WINDOW_S)[0]
        else:
            clip = synth.make_negative_clip(rng, clip_s=audio.WINDOW_S)
        noise = audio.peak_normalize(synth.make_noise_clip(rng))
        snr = float(rng.uniform(0.0, 20.0))
        windows.append(audio.mix_at_snr(audio.peak_normalize(clip), noise, snr))
    return windows


def schedule(seconds: float, rate: float) -> np.ndarray:
    """Poisson arrivals: round(rate * seconds) due times drawn uniformly over
    the run and sorted (a Poisson process conditioned on its count). The
    schedule is the same on every run; the seed picks the requests."""
    rng = np.random.default_rng(SCHEDULE_SEED)
    return np.sort(rng.uniform(0.0, seconds, int(round(rate * seconds))))


def verify_workload(run: Run) -> Result:
    res = Result()

    def build(tag):
        models = make_models(run.workdir / tag, run.seed)
        device = load_scorer(models.device_path, "device")
        pool = []
        for w in _pool_windows(run.seed + 200, POOL):
            lo = fusion.log_odds(*nnet.softmax2(device.fn(features.mfcc(w, features.DEVICE))))
            pool.append((lo, features.mfcc(w, features.CLOUD).values))
        due = schedule(run.seconds, OFFERED_PER_S)
        picks = np.random.default_rng(run.seed + 400).integers(0, POOL, due.size)
        requests = [wire.VerifyRequest(
            config_id=features.CLOUD.config_id, device_log_odds=pool[p][0],
            features=pool[p][1], nonce=k + 1, flags=wire.FLAG_OBFUSCATED)
            for k, p in enumerate(picks)]
        server = Server(run, models, key=KEY, tag=tag)
        return (models, server, pool, due, picks, requests), server.stop

    setup_s, (models, server, pool, due, picks, requests) = repeated_setup(run, build)
    try:
        cpu0 = server.cpu_s()
        out, t_start, t_last = _verify_timed(server, due, requests)
        server_cpu_s, server_rss = server.cpu_s() - cpu0, server.peak_rss_mb()
    finally:
        server_spans = server.stop()

    answered = [o for o in out if _answered(o)]
    latency = [t1 - (t_start + due[k]) for k, _, t1, _ in answered]
    res.figures = {
        "setup_s": (setup_s, "s"),
        "verify.p50_ms": (median(latency) * 1e3, "ms"),
        f"verify.p{TAIL_PERCENTILE}_ms": (tail(latency) * 1e3, "ms"),
        "verify.samples": (len(latency), "count"),
        "verify.answered_per_s": (len(answered) / (t_last - t_start), "1/s"),
        "verify.server_cpu_ms": (server_cpu_s * 1e3 / max(len(answered), 1), "ms"),
        "server_rss_mb": (server_rss, "MiB"),
    }
    res.attempted = len(requests)
    res.failed = len(requests) - len(answered)
    if run.trace:
        res.layers = verify_layers(run, models, out, due, t_start, t_last,
                                   server_spans, server_cpu_s)
    check_verify(res, out, picks, pool, models)
    return res


def _verify_timed(server: Server, due: np.ndarray, requests) -> tuple[list, float, float]:
    """Send each request at its due time from SENDERS threads; a request
    whose due time passes while every sender waits for a verdict goes out
    late, and its latency still counts from the due time."""
    out: list = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    t_start = time.perf_counter() + 0.05

    def sender():
        while True:
            with lock:
                k = next(cursor, None)
            if k is None:
                return
            wait = t_start + due[k] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            t0 = time.perf_counter()
            try:
                resp = wire.request_verification(server.addr, requests[k], key=KEY)
            except (OSError, EOFError, wire.ProtocolError) as exc:
                resp = exc
            out[k] = (k, t0, time.perf_counter(), resp)

    threads = [threading.Thread(target=sender, daemon=True) for _ in range(SENDERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t_last = max(o[2] for o in out if o is not None)
    return out, t_start, t_last


def _answered(o) -> bool:
    return (o is not None and not isinstance(o[3], Exception)
            and o[3].verdict != wire.Verdict.ERROR)


def check_verify(res: Result, out, picks, pool, models: Models) -> None:
    """Every answer equals the reference for its own request's pool window."""
    ref = ref_ensemble(models)
    z_ref, p_ref = ref.verify([lo for lo, _ in pool], np.stack([f for _, f in pool]))
    res.check(all(o is not None for o in out), "a scheduled request was never sent")
    for k, _, _, resp in filter(_answered, out):
        p = picks[k]
        for msg in reference.response_errors(
                resp.member_log_odds, resp.fused_p_pos,
                resp.verdict == wire.Verdict.ACCEPT, THETA_CLOUD, z_ref[p], p_ref[p]):
            res.check(False, f"request {k} (window {p}): {msg}")


# -- offline -----------------------------------------------------------------

def offline_workload(run: Run) -> Result:
    res = Result()

    def build(tag):
        models = make_models(run.workdir / tag, run.seed)
        device = load_scorer(models.device_path, "device")
        members = [load_scorer(p, name) for p, (name, _, _) in
                   zip(models.member_paths, MEMBERS)]
        model = fusion.load_fusion(models.fusion_path)
        return (models, device, members, model), None

    setup_s, (models, device, members, model) = repeated_setup(run, build)
    rounds = _offline_timed(run, models, device, members, model)
    eval_ms = [w * 1e3 for r in rounds for w in r["intervals"]]
    windows = [r["n_build"] + r["n_score"] + r["n_eval"] for r in rounds]
    res.figures = {
        "setup_s": (setup_s, "s"),
        "offline.window_ms": (median([r["t_eval"] * 1e3 / r["n_eval"] for r in rounds]), "ms"),
        f"offline.window_p{TAIL_PERCENTILE}_ms": (tail(eval_ms), "ms"),
        "offline.windows_per_s": (median([n / r["wall"] for n, r in zip(windows, rounds)]), "1/s"),
        "offline.cpu_ms_per_window": (median([r["cpu"] * 1e3 / n for n, r in zip(windows, rounds)]), "ms"),
        "offline.build_windows_per_s": (median([r["n_build"] / r["t_build"] for r in rounds]), "1/s"),
        "offline.score_rows_per_s": (median([r["n_score"] / r["t_score"] for r in rounds]), "1/s"),
        "offline.eval_windows_per_s": (median([r["n_eval"] / r["t_eval"] for r in rounds]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    res.attempted = sum(windows)
    if run.trace:
        res.layers = offline_layers(run, models, rounds)
    check_offline(res, rounds, models, device, members, model)
    return res


def _offline_timed(run: Run, models: Models, device, members, model) -> list[dict]:
    base = models.corpus
    entries = models.entries
    pipeline = evaluation.ensemble_pipeline(device, members, model)
    rounds = []
    t_end = time.perf_counter() + run.seconds
    while not rounds or time.perf_counter() < t_end:
        r = {"intervals": [], "scores": [], "samples": [], "score_spans": []}
        last = [0.0]

        def score(clip):
            t0 = time.perf_counter()
            p = pipeline(clip)
            t1 = time.perf_counter()
            r["intervals"].append(t1 - last[0])
            r["score_spans"].append((t0, t1))
            last[0] = t1
            r["scores"].append(p)
            if len(r["samples"]) < CHECK_WINDOWS and not rounds:
                r["samples"].append((clip, p))
            return p

        c0 = time.process_time()
        t0 = time.perf_counter()
        built = evaluation.build_feature_dataset(
            entries, features.DEVICE, "train", seed=run.seed + 500, base_dir=base)
        t1 = time.perf_counter()
        rows = evaluation.build_score_dataset(
            entries, device, members, "valid", seed=run.seed + 600, base_dir=base)
        t2 = time.perf_counter()
        last[0] = t2
        report = evaluation.evaluate(entries, score, THETA_CLOUD, seed=run.seed + 700,
                                     base_dir=base)
        t3 = time.perf_counter()
        r.update(cpu=time.process_time() - c0, wall=t3 - t0,
                 t_build=t1 - t0, t_score=t2 - t1, t_eval=t3 - t2,
                 eval_span=(t2, t3), n_build=len(built), n_score=len(rows),
                 n_eval=len(r["scores"]), built=built, rows=rows, report=report)
        rounds.append(r)
    return rounds


def check_offline(res: Result, rounds, models: Models, device, members, model) -> None:
    """Report arithmetic against the scores the pipeline returned, stable
    reports across rounds, and the pipeline against the reference."""
    test = [e for e in models.entries if e.split == "test"]
    positives = [e for e in test if e.label == "wuw"]
    negatives = [e for e in test if e.label in ("other", "noise")]
    n_per_bucket = len(positives) + len(negatives)
    n_train, n_valid = (sum(1 for e in models.entries if e.split == split
                            and e.label in ("wuw", "other", "noise"))
                        for split in ("train", "valid"))
    first = rounds[0]["report"]
    for i, r in enumerate(rounds):
        report = r["report"]
        res.check(report.to_json() == first.to_json(), f"round {i}: report differs from round 0")
        res.check(len(r["scores"]) == n_per_bucket * len(report.buckets),
                  f"round {i}: {len(r['scores'])} windows scored")
        total = np.zeros(3, dtype=int)
        for b, bucket in enumerate(report.buckets):
            scores = r["scores"][b * n_per_bucket : (b + 1) * n_per_bucket]
            accepted = np.array(scores) >= THETA_CLOUD
            is_pos = np.arange(len(scores)) < len(positives)
            counts = (int(np.sum(accepted & is_pos)), int(np.sum(accepted & ~is_pos)),
                      int(np.sum(~accepted & is_pos)))
            res.check((bucket.tp, bucket.fp, bucket.fn) == counts,
                      f"round {i} bucket {b}: counts {(bucket.tp, bucket.fp, bucket.fn)} "
                      f"!= recount {counts}")
            res.check(bucket.tp + bucket.fn == len(positives),
                      f"round {i} bucket {b}: tp + fn != {len(positives)} positives")
            total += (bucket.tp, bucket.fp, bucket.fn)
        tp, fp, fn = (int(c) for c in total)
        want = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        res.check(abs(report.overall_f1 - want) <= 1e-12,
                  f"round {i}: overall F1 {report.overall_f1} != {want} of summed counts")
        res.check(len(r["built"]) == n_train, f"round {i}: {len(r['built'])} built windows")
        res.check(r["rows"].member_ids == MEMBER_IDS and len(r["rows"]) == n_valid
                  and bool(np.all(np.isfinite(r["rows"].log_odds))),
                  f"round {i}: bad score dataset")

    ref = ref_ensemble(models)
    pipeline = evaluation.ensemble_pipeline(device, members, model)
    fixed = _pool_windows(CHECK_SEED, CHECK_WINDOWS)
    sampled = [(clip, p) for clip, p in rounds[0]["samples"]]
    clips = fixed + [c for c, _ in sampled]
    got = [pipeline(c) for c in fixed] + [p for _, p in sampled]
    want = ref.pipeline(
        np.stack([features.mfcc(c, features.DEVICE).values for c in clips]),
        np.stack([features.mfcc(c, features.CLOUD).values for c in clips]))
    res.check(bool(np.all(np.abs(np.array(got) - want) <= 1e-9)),
              f"ensemble_pipeline {got} != reference {want.tolist()}")


# -- Per-layer figures (traced runs) -----------------------------------------

def _durations(spans, name, extra=None) -> list[float]:
    return [t1 - t0 for n, t0, t1, _, _, x in spans
            if n == name and (extra is None or x == extra)]


def _ms(spans, name, extra=None) -> float:
    return median(_durations(spans, name, extra)) * 1e3


def _match_handles(rv, server_spans) -> list[tuple[float, float, float, float]]:
    """Pair each client round trip (t0, t1, nonce) with the server's
    ``handle_frame`` span of the same nonce that starts inside it."""
    handles: dict = {}
    for n, t0, t1, _, key, _ in server_spans:
        if n == "wire.handle_frame":
            handles.setdefault(key, []).append((t0, t1))
    pairs = []
    for c0, c1, nonce in rv:
        for h0, h1 in handles.get(nonce, ()):
            if c0 <= h0 <= c1:
                pairs.append((c0, c1, h0, h1))
                break
    return pairs


def _layers(run: Run, models: Models, server_spans, rv, cloud_windows: int) -> dict:
    """Figures of the layers every workload can run; 0 where it runs none."""
    spans = run.recorder.spans
    both = spans + server_spans
    device_cfg, cloud_cfg = features.DEVICE.config_id, features.CLOUD.config_id
    n_cloud = len(_durations(spans, "features.mfcc", cloud_cfg))
    pairs = _match_handles(rv, server_spans)
    out = {
        "features.device_mfcc_ms": (_ms(spans, "features.mfcc", device_cfg), "ms"),
        "features.cloud_mfcc_ms": (_ms(spans, "features.mfcc", cloud_cfg), "ms"),
        "features.cloud_mfcc_per_window": (n_cloud / cloud_windows if cloud_windows else 0.0,
                                           "count"),
        "nnet.device_forward_ms": (_ms(spans, "nnet.forward.device"), "ms"),
        "nnet.train_classifier_s": (models.train_classifier_s, "s"),
        "fusion.train_fusion_s": (models.train_fusion_s, "s"),
        "fusion.fuse_ms": (_ms(both, "fusion.fuse"), "ms"),
        "wire.encode_request_us": (_ms(spans, "wire.encode_request") * 1e3, "us"),
        "wire.decode_request_us": (_ms(server_spans, "wire.decode_request") * 1e3, "us"),
        "wire.encode_response_us": (_ms(server_spans, "wire.encode_response") * 1e3, "us"),
        "wire.decode_response_us": (_ms(spans, "wire.decode_response") * 1e3, "us"),
        "wire.server_handle_ms": (_ms(server_spans, "wire.handle_frame"), "ms"),
        "wire.server_wait_ms": (median([h0 - c0 for c0, _, h0, _ in pairs]) * 1e3, "ms"),
        "wire.transport_ms": (median([(c1 - c0) - (h1 - h0) for c0, c1, h0, h1 in pairs])
                              * 1e3, "ms"),
        "evaluation.window_prep_ms": (_ms(spans, "evaluation.extract_window")
                                      + _ms(spans, "evaluation.mix_at_snr"), "ms"),
    }
    for name, _, _ in MEMBERS:
        out[f"nnet.member_forward_ms.{name}"] = (_ms(both, "nnet.forward." + name), "ms")
    return out


def stream_layers(run: Run, models: Models, rounds, server_spans) -> dict:
    rv = [x for r in rounds for x in r["rv"]]
    out = _layers(run, models, server_spans, rv, len(rv))
    feeds = [f for r in rounds for f in r["feeds"]]
    main = threading.get_ident()
    children = sorted((t0, t1) for n, t0, t1, tid, _, _ in run.recorder.spans
                      if tid == main and n in ("features.mfcc", "nnet.forward.device")
                      and feeds[0][0] <= t0 <= feeds[-1][1])
    self_ms, i = [], 0
    for f0, f1 in feeds:
        inner = 0.0
        while i < len(children) and children[i][0] < f0:
            i += 1
        while i < len(children) and children[i][0] <= f1:
            inner += children[i][1] - children[i][0]
            i += 1
        self_ms.append((f1 - f0 - inner) * 1e3)
    scored = [x for n, t0, _, _, _, x in run.recorder.spans
              if n == "nnet.forward.device" and feeds[0][0] <= t0 <= feeds[-1][1]]
    above = sum(1 for lo in scored if lo >= np.log(THETA_DEVICE / (1.0 - THETA_DEVICE)))
    triggers = sum(len(r["events"]) for r in rounds)
    n = len(rounds)
    out.update({
        "wire.agent_feed_ms": (median([(f1 - f0) * 1e3 for f0, f1 in feeds]), "ms"),
        "wire.agent_self_ms": (median(self_ms), "ms"),
        "wire.agent_windows": (len(scored) / n, "count"),
        "wire.agent_triggers": (triggers / n, "count"),
        "wire.agent_suppressed": ((above - triggers) / n, "count"),
        "wire.agent_dropped": (sum(r["dropped"] for r in rounds) / n, "count"),
        "cpu_wall_ratio": (sum(r["feed_cpu"] for r in rounds)
                           / sum(r["feed_wall"] for r in rounds), "ratio"),
    })
    return out


def verify_layers(run: Run, models: Models, out, due, t_start, t_last, server_spans,
                  server_cpu_s: float) -> dict:
    sent = [o for o in out if o is not None]
    rv = [(t0, t1, k + 1) for k, t0, t1, _ in sent]
    layers = _layers(run, models, server_spans, rv, POOL)
    layers.update({
        "bench.send_lag_ms": (median([(t0 - t_start - due[k]) * 1e3
                                      for k, t0, _, _ in sent]), "ms"),
        "cpu_wall_ratio": (server_cpu_s / (t_last - t_start), "ratio"),
    })
    return layers


def offline_layers(run: Run, models: Models, rounds) -> dict:
    windows = sum(r["n_score"] + r["n_eval"] for r in rounds)
    layers = _layers(run, models, [], [], windows)
    reads = clips = 0
    for r in rounds:
        e0, e1 = r["eval_span"]
        paths = [x for n, t0, _, _, _, x in run.recorder.spans
                 if n == "evaluation.read_wav" and e0 <= t0 <= e1]
        reads += len(paths)
        clips += len(set(paths))
    layers.update({
        "evaluation.score_ms": (median([(t1 - t0) * 1e3 for r in rounds
                                        for t0, t1 in r["score_spans"]]), "ms"),
        "evaluation.wav_reads_per_clip": (reads / clips if clips else 0.0, "count"),
        "cpu_wall_ratio": (sum(r["cpu"] for r in rounds) / sum(r["wall"] for r in rounds),
                           "ratio"),
    })
    return layers
