"""Tests of the benchmark itself, at a tiny size: the reference agrees with
``wuw``, and the correctness checks catch a flipped verdict, a swapped
response, a missed keyword and a miscounted evaluation bucket."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from wuw import audio, evaluation, features, fusion, nnet, synth, wire
from wuwbench import reference, spec, workloads

HIDDEN = 8


def _linear_device(rng) -> nnet.WeightStore:
    frames, coeffs = 29, features.DEVICE.n_mfcc
    tensors = {
        "norm.mean": rng.normal(size=coeffs),
        "norm.std": rng.uniform(0.5, 2.0, size=coeffs),
        "w": rng.normal(scale=0.05, size=(2, frames * coeffs)),
        "b": rng.normal(size=2),
    }
    return nnet.WeightStore(tensors, {"kind": "linear",
                                      "config_id": features.DEVICE.config_id})


@pytest.fixture(scope="module")
def tiny(tmp_path_factory) -> workloads.Models:
    """Weight files for a linear device model, three small GRU members and
    a fusion model, plus a small corpus."""
    d = tmp_path_factory.mktemp("tiny")
    rng = np.random.default_rng(0)
    nnet.save_weights(_linear_device(rng), d / "device.wuwm")
    member_paths = []
    for name, kind, offset in workloads.MEMBERS:
        path = d / f"{name}.wuwm"
        nnet.save_weights(nnet.init_gru_scorer(features.CLOUD, kind=kind, hidden=HIDDEN,
                                               seed=offset), path)
        member_paths.append(path)
    rows = fusion.synth_score_task(4, workloads.FUSION_SIGMAS, 200, rng,
                                   member_ids=workloads.MEMBER_IDS)
    model = fusion.train_fusion(rows, nnet.TrainSpec(max_epochs=3))
    nnet.save_weights(model.weights, d / "fusion.wuwm")
    corpus = d / "corpus"
    manifest = synth.make_chirp_task(corpus, n_train=5, n_valid=5, n_test=5, seed=0)
    return workloads.Models(corpus, evaluation.load_manifest(manifest),
                            d / "device.wuwm", member_paths, d / "fusion.wuwm", 0.0, 0.0)


def _scorers(models):
    device = workloads.load_scorer(models.device_path, "device")
    members = [workloads.load_scorer(p, name)
               for p, (name, _, _) in zip(models.member_paths, workloads.MEMBERS)]
    return device, members, fusion.load_fusion(models.fusion_path)


def _pair_array(pair) -> np.ndarray:
    return np.array([[pair.logit_pos, pair.logit_neg]])


class TestReference:
    def test_models_match_wuw_on_random_weights(self, tiny):
        device, members, model = _scorers(tiny)
        clip = workloads._pool_windows(3, 1)[0]
        dev_fm = features.mfcc(clip, features.DEVICE)
        cloud_fm = features.mfcc(clip, features.CLOUD)
        ref = workloads.ref_ensemble(tiny)
        np.testing.assert_allclose(ref.device.logits(dev_fm.values[None]),
                                   _pair_array(device.fn(dev_fm)), rtol=0, atol=1e-9)
        for member, ref_member in zip(members, ref.members):
            np.testing.assert_allclose(ref_member.logits(cloud_fm.values[None]),
                                       _pair_array(member.fn(cloud_fm)), rtol=0, atol=1e-9)
        z = fusion.LogOddsVector(np.array([2.0, -1.0, 0.5, 3.0]), workloads.MEMBER_IDS)
        np.testing.assert_allclose(ref.fusion.logits(z.values[None]),
                                   _pair_array(fusion.fuse(z, model)), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pos, neg", [(0.3, -0.2), (40.0, -40.0), (-35.0, 5.0)])
    def test_log_odds_clamp(self, pos, neg):
        want = fusion.log_odds(*nnet.softmax2(nnet.ScorePair(pos, neg)))
        got = reference.log_odds_from_logits(np.array([[pos, neg]]))[0]
        assert got == pytest.approx(want, abs=1e-9)

    def test_verify_matches_verify_request(self, tiny):
        _, members, model = _scorers(tiny)
        cloud = features.mfcc(workloads._pool_windows(4, 1)[0], features.CLOUD).values
        req = wire.VerifyRequest(features.CLOUD.config_id, 1.25, cloud)
        resp = wire.verify_request(req, members, model)
        z_ref, p_ref = workloads.ref_ensemble(tiny).verify([1.25], cloud[None])
        assert reference.response_errors(resp.member_log_odds, resp.fused_p_pos,
                                         resp.verdict == wire.Verdict.ACCEPT, 0.5,
                                         z_ref[0], p_ref[0]) == []


def _verify_out(models, n=4):
    """What the verify workload records for n requests, answered in-process."""
    _, members, model = _scorers(models)
    device = workloads.load_scorer(models.device_path, "device")
    pool = []
    for w in workloads._pool_windows(5, n):
        lo = fusion.log_odds(*nnet.softmax2(device.fn(features.mfcc(w, features.DEVICE))))
        pool.append((lo, features.mfcc(w, features.CLOUD).values))
    picks = np.arange(n)
    out = []
    for k, p in enumerate(picks):
        req = wire.VerifyRequest(features.CLOUD.config_id, pool[p][0], pool[p][1])
        out.append((k, 0.0, 0.0, wire.verify_request(req, members, model)))
    return out, picks, pool


def _stream_round(models):
    """One stream round with one correct event per keyword, scored in-process."""
    device, members, model = _scorers(models)
    stream, starts = synth.make_stream(np.random.default_rng(0), n_keywords=3)
    window = int(audio.WINDOW_S * stream.sample_rate_hz)
    events = []
    for kw in starts:
        s = kw - 8000
        clip = audio.AudioClip(stream.samples[s : s + window], stream.sample_rate_hz)
        lo = fusion.log_odds(*nnet.softmax2(device.fn(features.mfcc(clip, features.DEVICE))))
        req = wire.VerifyRequest(features.CLOUD.config_id, lo,
                                 features.mfcc(clip, features.CLOUD).values, nonce=s)
        events.append((wire.DetectionEvent(s, lo, 0.5), req,
                       wire.verify_request(req, members, model)))
    return {"events": events, "dropped": 0}, stream, starts


def _flip(resp: wire.VerifyResponse) -> wire.VerifyResponse:
    verdict = (wire.Verdict.REJECT if resp.verdict == wire.Verdict.ACCEPT
               else wire.Verdict.ACCEPT)
    return wire.VerifyResponse(verdict, resp.fused_p_pos, resp.member_log_odds)


class TestChecks:
    def test_verify_check_passes_then_catches_flip_and_swap(self, tiny):
        out, picks, pool = _verify_out(tiny)
        res = workloads.Result()
        workloads.check_verify(res, out, picks, pool, tiny)
        assert res.correct, res.errors

        flipped = list(out)
        k, t0, t1, resp = flipped[1]
        flipped[1] = (k, t0, t1, _flip(resp))
        res = workloads.Result()
        workloads.check_verify(res, flipped, picks, pool, tiny)
        assert not res.correct

        swapped = list(out)
        swapped[0] = out[0][:3] + (out[1][3],)
        swapped[1] = out[1][:3] + (out[0][3],)
        res = workloads.Result()
        workloads.check_verify(res, swapped, picks, pool, tiny)
        assert not res.correct

    def test_stream_check_catches_missed_keyword_and_flip(self, tiny):
        good, stream, starts = _stream_round(tiny)
        res = workloads.Result()
        workloads.check_stream(res, [good], stream, starts, tiny)
        assert res.correct, res.errors

        missed = {"events": good["events"][:1] + good["events"][2:], "dropped": 0}
        res = workloads.Result()
        workloads.check_stream(res, [missed], stream, starts, tiny)
        assert not res.correct

        event, req, resp = good["events"][2]
        flipped = {"events": good["events"][:2] + [(event, req, _flip(resp))], "dropped": 0}
        res = workloads.Result()
        workloads.check_stream(res, [good, flipped], stream, starts, tiny)
        assert not res.correct

    def test_offline_check_catches_miscounted_bucket(self, tiny):
        device, members, model = _scorers(tiny)
        run = workloads.Run(Path("."), Path("."), seed=0, seconds=1e-9, trace=False)
        rounds = workloads._offline_timed(run, tiny, device, members, model)
        res = workloads.Result()
        workloads.check_offline(res, rounds, tiny, device, members, model)
        assert res.correct, res.errors

        report = rounds[0]["report"]
        bucket = report.buckets[0]
        bad = dataclasses.replace(bucket, tp=bucket.tp + 1, fn=bucket.fn - 1)
        rounds[0]["report"] = dataclasses.replace(report, buckets=(bad,) + report.buckets[1:])
        res = workloads.Result()
        workloads.check_offline(res, rounds, tiny, device, members, model)
        assert not res.correct


def test_benchmark_json_matches_spec():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    assert json.loads(path.read_text(encoding="utf-8")) == spec.benchmark_json()
