import json
from collections import Counter

import numpy as np
import pytest

from wuw import audio, evaluation
from wuw.errors import DataError
from wuw.audio import (
    SNR_RANGE_DB,
    AudioClip,
    extract_window,
    peak_normalize,
    read_wav,
    write_wav,
)
from wuw.evaluation import (
    _ClipCache,
    _mixed_window,
    build_feature_dataset,
    build_score_dataset,
    collect_scores,
    ensemble_pipeline,
    evaluate,
    f1,
    load_manifest,
    threshold_sweep,
)
from wuw.features import CLOUD, DEVICE, mfcc, preset
from wuw.fusion import FusionModel, log_odds
from wuw.nnet import Scorer, ScorePair, WeightStore, init_gru_scorer, make_scorer, softmax2
from wuw.synth import make_chirp_task

from wavs import pcm16_wav_bytes


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("chirps")
    manifest = make_chirp_task(base, n_train=5, n_valid=10, n_test=10, seed=3)
    return load_manifest(manifest), base


@pytest.fixture(scope="module")
def scorers():
    rng = np.random.default_rng(0)
    device = make_scorer(WeightStore(
        {"norm.mean": np.zeros(13), "norm.std": np.ones(13),
         "w": rng.normal(size=(2, 29 * 13)) * 0.05, "b": np.zeros(2)},
        {"kind": "linear", "config_id": DEVICE.config_id}), "device")
    plug = Scorer("plug", CLOUD.config_id,
                  lambda fm: ScorePair(float(fm.values[:, 0].mean()) / 10.0, 0.0))
    members = [make_scorer(init_gru_scorer(CLOUD, hidden=8, seed=1), "g0"), plug,
               make_scorer(init_gru_scorer(CLOUD, kind="gru-max", hidden=8, seed=2), "g1")]
    return device, members


@pytest.fixture(scope="module")
def fusion_model():
    rng = np.random.default_rng(1)
    ws = WeightStore({"fc1.w": rng.normal(size=(6, 4)), "fc1.b": rng.normal(size=6),
                      "fc2.w": rng.normal(size=(2, 6)), "fc2.b": np.zeros(2)},
                     {"kind": "fusion", "member_ids": ["device", "g0", "plug", "g1"]})
    return FusionModel(ws)


def recorded(score_fn):
    scores = []

    def score(clip):
        scores.append(score_fn(clip))
        return scores[-1]

    return score, scores


class TestEvaluate:
    def test_bucket_counts_sum_to_overall(self, corpus, scorers, fusion_model):
        entries, base = corpus
        score, scores = recorded(ensemble_pipeline(*scorers, fusion_model))
        report = evaluate(entries, score, theta=0.5, seed=4, base_dir=base)
        test = [e for e in entries if e.split == "test"]
        n_pos = sum(e.label == "wuw" for e in test)
        n = n_pos + sum(e.label in ("other", "noise") for e in test)
        assert len(scores) == n * len(report.buckets)
        total = np.zeros(3, dtype=int)
        for b, bucket in enumerate(report.buckets):
            accepted = np.array(scores[b * n : (b + 1) * n]) >= 0.5
            is_pos = np.arange(n) < n_pos
            assert (bucket.tp, bucket.fp, bucket.fn) == (
                int(np.sum(accepted & is_pos)), int(np.sum(accepted & ~is_pos)),
                int(np.sum(~accepted & is_pos)))
            assert bucket.tp + bucket.fn == n_pos
            total += (bucket.tp, bucket.fp, bucket.fn)
        assert report.overall_f1 == f1(*(int(c) for c in total))

    def test_report_json_repeats_for_a_seed(self, corpus, scorers, fusion_model):
        entries, base = corpus
        pipeline = ensemble_pipeline(*scorers, fusion_model)
        first = evaluate(entries, pipeline, theta=0.5, seed=5, base_dir=base).to_json()
        again = evaluate(entries, ensemble_pipeline(*scorers, fusion_model), theta=0.5,
                         seed=5, base_dir=base).to_json()
        assert first == again

    def test_sweep_recall_does_not_rise_with_theta(self, corpus, scorers, fusion_model):
        entries, base = corpus
        thetas = np.linspace(0.0, 1.0, 21)
        points = threshold_sweep(entries, ensemble_pipeline(*scorers, fusion_model),
                                 thetas, seed=6, base_dir=base)
        recalls = [p.recall for p in points]
        assert recalls[0] == 1.0
        assert all(b <= a for a, b in zip(recalls, recalls[1:]))
        assert sum(p.best for p in points) == 1


class TestLoadManifest:
    @pytest.mark.parametrize("path", [5, None, "", ["a.wav"]], ids=["int", "null", "empty", "list"])
    def test_path_must_be_a_non_empty_string(self, tmp_path, path):
        manifest = tmp_path / "m.jsonl"
        lines = [{"path": "a.wav", "label": "noise", "split": "test"},
                 {"path": path, "label": "noise", "split": "test"}]
        manifest.write_text("".join(json.dumps(x) + "\n" for x in lines), encoding="utf-8")
        with pytest.raises(DataError, match=r"m\.jsonl:2: path"):
            load_manifest(manifest)

    @pytest.mark.parametrize("line,match", [
        ("{not json", "invalid JSON"),
        ('{"path": "a.wav", "label": "noise", "split": "test", "n": ' + "1" * 5000 + "}",
         "invalid JSON"),
        ('["a.wav"]', "entry must be an object"),
        ('{"path": "a.wav", "label": "speech", "split": "test"}', "unknown label"),
        ('{"path": "a.wav", "label": "noise", "split": "dev"}', "unknown split"),
        ('{"path": "a.wav", "label": "wuw", "split": "test", "start_s": 0.5}', "invalid span"),
        ('{"path": "a.wav", "label": "wuw", "split": "test", "start_s": 0.9, "end_s": 0.4}',
         "invalid span"),
        ('{"path": "a.wav", "label": "wuw", "split": "test", "start_s": NaN, "end_s": 0.4}',
         "invalid span"),
        ('{"path": "a.wav", "label": "wuw", "split": "test", "start_s": 0.1, "end_s": Infinity}',
         "invalid span"),
        ('{"path": "a.wav", "label": "wuw", "split": "test", "start_s": -Infinity, "end_s": 0.4}',
         "invalid span"),
        ('{"path": "a.wav", "label": "wuw", "split": "test", "start_s": true, "end_s": 1.2}',
         "invalid span"),
        ('{"path": "a.wav", "label": "wuw", "split": "test", "start_s": 0, "end_s": "1.2"}',
         "invalid span"),
        ('{"path": "a.wav", "label": "wuw", "split": "test", "start_s": 0, "end_s": 1'
         + "0" * 400 + "}", "invalid span"),
        ('{"path": "a.wav", "label": "wuw", "split": "train"}', "wuw entry lacks"),
        ('{"path": "a.wav", "label": "wuw", "split": "valid"}', "wuw entry lacks"),
    ], ids=["json", "huge-int", "not-object", "label", "split", "missing-bound", "inverted-span",
            "nan-span", "infinite-span", "negative-infinite-span", "bool-span",
            "string-span", "int-past-float-span", "unaligned-train", "unaligned-valid"])
    def test_malformed_line_is_refused_by_file_and_line(self, tmp_path, line, match):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"path": "a.wav", "label": "noise", "split": "test"}\n\n'
                            + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"m\.jsonl:3: {match}"):
            load_manifest(manifest)

    def test_integer_bounds_load(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"path": "a.wav", "label": "wuw", "split": "train", '
                            '"start_s": 0, "end_s": 1}\n', encoding="utf-8")
        [entry] = load_manifest(manifest)
        assert entry.span == audio.AlignmentSpan(0.0, 1.0)
        assert type(entry.span.start_s) is float and type(entry.span.end_s) is float

    def test_blank_lines_are_skipped_and_unaligned_entries_may_be_allowed(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('\n  \n{"path": "a.wav", "label": "wuw", "split": "train"}\n\n',
                            encoding="utf-8")
        with pytest.raises(DataError, match=r"m\.jsonl:3: wuw entry lacks"):
            load_manifest(manifest)
        assert load_manifest(manifest, require_alignments=False) == [
            evaluation.ManifestEntry("a.wav", "wuw", "train")]


class TestBuildScoreDataset:
    def test_rows_match_per_window_scorer_calls(self, corpus, scorers):
        entries, base = corpus
        device, members = scorers
        copies = 4  # 40 windows: more than one scoring batch
        data = build_score_dataset(entries, device, members, "valid", seed=7,
                                   copies=copies, base_dir=base)
        assert data.member_ids == ("device", "g0", "plug", "g1")

        chosen = [e for e in entries if e.split == "valid"]
        samples = [e for e in chosen if e.label in ("wuw", "other", "noise")]
        noise_pool = [e for e in chosen if e.label == "noise"]
        cache = _ClipCache(base, chosen)
        rng = np.random.default_rng(7)
        rows, labels = [], []
        for entry in samples:
            for _ in range(copies):
                snr = float(rng.uniform(*SNR_RANGE_DB))
                window = _mixed_window(entry, cache.get(entry.path), cache, noise_pool,
                                       snr, rng)
                rows.append([log_odds(*softmax2(s.fn(mfcc(window, preset(s.config_id)))))
                             for s in (device, *members)])
                labels.append(int(entry.label == "wuw"))
        assert len(data) == len(rows) > 32
        np.testing.assert_array_equal(data.labels, labels)
        np.testing.assert_allclose(data.log_odds, rows, rtol=0, atol=1e-12)


def oracle_windows(entries, base, seed, ranges):
    """The test-split windows, recomputed one by one: positives first, one
    generator across all SNR ranges, the SNR drawn before the window."""
    test = [e for e in entries if e.split == "test"]
    samples = ([e for e in test if e.label == "wuw"]
               + [e for e in test if e.label in ("other", "noise")])
    noise_pool = [e for e in test if e.label == "noise"]
    cache = _ClipCache(base, test)
    rng = np.random.default_rng(seed)
    windows = []
    for lo, hi in ranges:
        for entry in samples:
            snr = float(rng.uniform(lo, hi))
            windows.append((_mixed_window(entry, cache.get(entry.path), cache,
                                          noise_pool, snr, rng),
                            int(entry.label == "wuw")))
    return windows


class TestWindowOrder:
    def test_evaluate_scores_the_oracle_windows(self, corpus):
        entries, base = corpus
        seen = []

        def score(clip):
            seen.append(clip.samples)
            return float(np.mean(np.abs(clip.samples)))

        buckets = [(-10.0, 10.0), (10.0, 30.0), (30.0, 50.0)]
        report = evaluate(entries, score, theta=0.1, buckets=buckets, seed=8,
                          base_dir=base)
        want = oracle_windows(entries, base, 8, buckets)
        assert len(seen) == len(want)
        for got, (window, _) in zip(seen, want):
            np.testing.assert_array_equal(got, window.samples)
        n = len(want) // len(buckets)
        for b, bucket in enumerate(report.buckets):
            rows = want[b * n : (b + 1) * n]
            accepted = [score(w) >= 0.1 for w, _ in rows]
            assert (bucket.tp, bucket.fp, bucket.fn) == (
                sum(a and y for a, (_, y) in zip(accepted, rows)),
                sum(a and not y for a, (_, y) in zip(accepted, rows)),
                sum(not a and y for a, (_, y) in zip(accepted, rows)))

    def test_collect_scores_scores_the_oracle_windows(self, corpus):
        entries, base = corpus

        def score(clip):
            return float(np.mean(np.abs(clip.samples)))

        scores, labels = collect_scores(entries, score, seed=9, base_dir=base)
        want = oracle_windows(entries, base, 9, [SNR_RANGE_DB])
        np.testing.assert_array_equal(scores, [score(w) for w, _ in want])
        np.testing.assert_array_equal(labels, [y for _, y in want])


@pytest.fixture(scope="module")
def rir_corpus(tmp_path_factory):
    """A chirp corpus with two RIR entries in every split."""
    base = tmp_path_factory.mktemp("chirps_rir")
    manifest = make_chirp_task(base, n_train=10, n_valid=10, n_test=5, seed=11)
    rng = np.random.default_rng(12)
    with manifest.open("a", encoding="utf-8") as fh:
        for split in ("train", "valid", "test"):
            for i in range(2):
                name = f"{split}_rir{i}.wav"
                write_wav(AudioClip(rng.normal(size=800) * np.exp(-np.arange(800) / 120.0)),
                          base / name)
                fh.write(json.dumps({"path": name, "label": "rir", "split": split}) + "\n")
    return load_manifest(manifest), base


@pytest.fixture
def reads(monkeypatch):
    """Counts ``evaluation.read_wav`` calls by path."""
    counts = Counter()
    real = evaluation.read_wav

    def counted(path):
        counts[str(path)] += 1
        return real(path)

    monkeypatch.setattr(evaluation, "read_wav", counted)
    return counts


class Recorded(_ClipCache):
    """_ClipCache that lists its instances, to look at what they hold."""

    made: list = []

    def __init__(self, base_dir, keep):
        super().__init__(base_dir, keep)
        self.made.append(self)


@pytest.fixture
def caches(monkeypatch):
    Recorded.made = []
    monkeypatch.setattr(evaluation, "_ClipCache", Recorded)
    return Recorded.made


class KeepAll(_ClipCache):
    """The oracle cache: memoizes every clip it loads, whatever it is told."""

    def get(self, path):
        self._keep.add(path)
        return super().get(path)


def paths(entries, split, labels):
    return {e.path for e in entries if e.split == split and e.label in labels}


def once_each(base, entries, split, labels):
    return {str(base / p): 1 for p in paths(entries, split, labels)}


@pytest.fixture
def powers(monkeypatch):
    """Counts every power measurement, in ``evaluation`` and inside
    ``mix_at_snr``, and checks that each mix is given its own window's power."""
    counts = Counter()
    real_measure, real_mix = audio.measure_power, evaluation.mix_at_snr

    def measured(clip):
        counts["measured"] += 1
        return real_measure(clip)

    def mixed(signal, noise, snr_db, signal_power=None, noise_power=None):
        counts["mixed"] += 1
        assert signal_power == real_measure(signal)
        assert noise_power == audio.mixed_noise_power(noise, len(signal))
        return real_mix(signal, noise, snr_db, signal_power=signal_power,
                        noise_power=noise_power)

    def noise_measured(noise, n):
        counts["noise"] += 1
        return audio.mixed_noise_power(noise, n)

    monkeypatch.setattr(audio, "measure_power", measured)
    monkeypatch.setattr(evaluation, "measure_power", measured)
    monkeypatch.setattr(evaluation, "mix_at_snr", mixed)
    monkeypatch.setattr(evaluation, "mixed_noise_power", noise_measured)
    return counts


class Unmemoized(_ClipCache):
    """The oracle cache: measures the noise power again for every window."""

    def noise(self, path, n):
        clip = self.get(path)
        return clip, audio.mixed_noise_power(clip, n)


def one_noise_corpus(base, noise):
    """A chirp corpus whose train and test splits have one noise entry
    each, the clip ``noise``."""
    manifest = make_chirp_task(base, n_train=5, n_valid=0, n_test=5, seed=21)
    write_wav(AudioClip(noise), base / "noise.wav")
    entries = [e for e in load_manifest(manifest) if e.label != "noise"]
    entries += [evaluation.ManifestEntry("noise.wav", "noise", split)
                for split in ("train", "test")]
    return entries, base


@pytest.fixture(scope="module")
def silent_corpus(tmp_path_factory):
    """One noise entry per split, an all-zero clip."""
    return one_noise_corpus(tmp_path_factory.mktemp("chirps_silent"), np.zeros(48000))


@pytest.fixture(scope="module")
def late_noise_corpus(tmp_path_factory):
    """One noise entry per split, silent for its first 1.6 s: every 1.5 s
    window would be mixed with zeros, though the clip as a whole is not silent."""
    noise = np.random.default_rng(24).uniform(-1.0, 1.0, size=48000)
    noise[:25600] = 0.0
    return one_noise_corpus(tmp_path_factory.mktemp("chirps_late_noise"), noise)


def unmixed_cut(entry, base, rng):
    """The window of ``entry`` that the samplers cut with ``rng``, then the
    noise index they draw from a one-entry pool."""
    clip = peak_normalize(read_wav(base / entry.path))
    window = extract_window(clip, span=entry.span if entry.label == "wuw" else None, rng=rng)
    rng.integers(1)
    return window


def no_mixing(*args, **kwargs):
    raise AssertionError("a window was mixed with silent noise")


def evaluate_scores_the_unmixed_cuts(corpus, monkeypatch):
    entries, base = corpus
    monkeypatch.setattr(evaluation, "mix_at_snr", no_mixing)
    seen = []
    buckets = [(-10.0, 20.0), (20.0, 50.0)]
    evaluate(entries, lambda clip: seen.append(clip.samples) or 0.5, theta=0.5,
             buckets=buckets, seed=22, base_dir=base)
    test = [e for e in entries if e.split == "test"]
    samples = sorted(test, key=lambda e: e.label != "wuw")
    rng = np.random.default_rng(22)
    want = []
    for lo, hi in buckets:
        for entry in samples:
            rng.uniform(lo, hi)  # the SNR, drawn first and then not used
            want.append(unmixed_cut(entry, base, rng))
    assert len(seen) == len(want) == 2 * len(test)
    for got, window in zip(seen, want):
        assert got.tobytes() == window.samples.tobytes()


def feature_build_returns_the_unmixed_cuts(corpus, monkeypatch):
    entries, base = corpus
    monkeypatch.setattr(evaluation, "mix_at_snr", no_mixing)
    monkeypatch.setattr(evaluation, "draw_snr", no_mixing)
    got = build_feature_dataset(entries, DEVICE, "train", seed=23, copies=2,
                                base_dir=base)
    rng = np.random.default_rng(23)
    want = [(mfcc(unmixed_cut(entry, base, rng), DEVICE), int(entry.label == "wuw"))
            for entry in entries if entry.split == "train" for _ in range(2)]
    assert len(got) == len(want) == 10
    for (fm, y), (fm_want, y_want) in zip(got, want):
        assert y == y_want
        assert fm.values.tobytes() == fm_want.values.tobytes()


class TestSilentNoisePassesThrough:
    def test_evaluate_scores_the_unmixed_cuts(self, silent_corpus, monkeypatch):
        evaluate_scores_the_unmixed_cuts(silent_corpus, monkeypatch)

    def test_feature_build_returns_the_unmixed_cuts(self, silent_corpus, monkeypatch):
        feature_build_returns_the_unmixed_cuts(silent_corpus, monkeypatch)

    # silence is judged on the noise samples a window is mixed with
    def test_evaluate_passes_a_silent_noise_crop_through(self, late_noise_corpus,
                                                          monkeypatch):
        evaluate_scores_the_unmixed_cuts(late_noise_corpus, monkeypatch)

    def test_feature_build_passes_a_silent_noise_crop_through(self, late_noise_corpus,
                                                               monkeypatch):
        feature_build_returns_the_unmixed_cuts(late_noise_corpus, monkeypatch)


class TestOnePowerPerWindow:
    def test_feature_build(self, rir_corpus, powers):
        entries, base = rir_corpus
        got = build_feature_dataset(entries, DEVICE, "train", seed=13, copies=2, base_dir=base)
        assert powers["measured"] == len(got)
        assert 0 < powers["mixed"] <= len(got)

    def test_mixed_windows(self, corpus, powers):
        entries, base = corpus
        scores, _ = collect_scores(entries, lambda clip: 0.5, seed=4, base_dir=base)
        assert powers["measured"] == len(scores)
        assert 0 < powers["mixed"] <= len(scores)


    def test_feature_build_measures_each_noise_once(self, rir_corpus, powers, caches,
                                                   monkeypatch):
        entries, base = rir_corpus
        got = build_feature_dataset(entries, DEVICE, "train", seed=13, copies=3, base_dir=base)
        [cache] = caches
        assert powers["noise"] == len(cache._powers) > 0  # one call per (path, length)
        assert {p for p, _ in cache._powers} <= paths(entries, "train", ("noise",))
        assert {n for _, n in cache._powers} == {24000}
        monkeypatch.setattr(evaluation, "_ClipCache", Unmemoized)
        want = build_feature_dataset(entries, DEVICE, "train", seed=13, copies=3,
                                     base_dir=base)
        assert len(got) == len(want) == 30
        for (fm, y), (fm_want, y_want) in zip(got, want):
            assert y == y_want
            assert fm.values.tobytes() == fm_want.values.tobytes()

    def test_mixed_windows_measure_each_noise_once(self, corpus, powers, caches, monkeypatch):
        entries, base = corpus

        def score(clip):
            return float(np.mean(np.abs(clip.samples)))

        got, _ = collect_scores(entries, score, seed=4, base_dir=base)
        [cache] = caches
        assert powers["noise"] == len(cache._powers) > 0
        assert {p for p, _ in cache._powers} <= paths(entries, "test", ("noise",))
        assert {n for _, n in cache._powers} == {24000}
        monkeypatch.setattr(evaluation, "_ClipCache", Unmemoized)
        want, _ = collect_scores(entries, score, seed=4, base_dir=base)
        assert got.tobytes() == want.tobytes()


class TestClipReads:
    @pytest.mark.parametrize("copies", [1, 3])
    def test_feature_build_reads_each_clip_once(self, rir_corpus, reads, caches, monkeypatch,
                                                copies):
        entries, base = rir_corpus
        got = build_feature_dataset(entries, DEVICE, "train", seed=13, copies=copies,
                                    base_dir=base)
        assert reads == once_each(base, entries, "train", ("wuw", "other", "noise", "rir"))
        [cache] = caches
        assert set(cache._clips) == paths(entries, "train", ("noise", "rir"))
        monkeypatch.setattr(evaluation, "_ClipCache", KeepAll)
        want = build_feature_dataset(entries, DEVICE, "train", seed=13, copies=copies,
                                     base_dir=base)
        assert len(got) == len(want) == 10 * copies
        for (fm, y), (fm_want, y_want) in zip(got, want):
            assert y == y_want
            assert fm.values.tobytes() == fm_want.values.tobytes()

    @pytest.mark.parametrize("copies", [1, 3])
    def test_score_build_reads_each_clip_once(self, rir_corpus, scorers, reads, caches,
                                              monkeypatch, copies):
        entries, base = rir_corpus
        device, members = scorers
        got = build_score_dataset(entries, device, members, "valid", seed=14, copies=copies,
                                  base_dir=base)
        assert reads == once_each(base, entries, "valid", ("wuw", "other", "noise"))
        [cache] = caches
        assert set(cache._clips) == paths(entries, "valid", ("noise",))
        monkeypatch.setattr(evaluation, "_ClipCache", KeepAll)
        want = build_score_dataset(entries, device, members, "valid", seed=14, copies=copies,
                                   base_dir=base)
        assert len(got) == 10 * copies
        assert got.log_odds.tobytes() == want.log_odds.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_evaluate_reads_each_test_clip_once(self, rir_corpus, reads):
        entries, base = rir_corpus
        evaluate(entries, lambda clip: float(np.mean(np.abs(clip.samples))), theta=0.1,
                 seed=15, base_dir=base)
        assert reads == once_each(base, entries, "test", ("wuw", "other", "noise"))

    def test_collect_scores_reads_each_test_clip_once(self, rir_corpus, reads):
        entries, base = rir_corpus
        collect_scores(entries, lambda clip: float(np.mean(np.abs(clip.samples))), seed=16,
                       base_dir=base)
        assert reads == once_each(base, entries, "test", ("wuw", "other", "noise"))


CLIP_FILES = pytest.mark.parametrize("encoding,samples", [
    ("pcm16", np.random.default_rng(17).uniform(-0.6, 0.6, size=4000)),
    ("float32", np.random.default_rng(18).normal(scale=0.3, size=4000)),
    ("pcm16", np.zeros(4000)),
], ids=["pcm16", "float32", "all-zero"])


def clip_file(path, encoding, samples):
    """Write ``samples`` at 8 kHz as a PCM16 or a float32 WAV file; return
    what ``peak_normalize(read_wav(path))`` gives for it."""
    if encoding == "pcm16":
        path.write_bytes(pcm16_wav_bytes(np.round(samples * 32768).astype(int).tolist(),
                                         rate=8000))
    else:
        write_wav(AudioClip(samples, 8000), path)
    return peak_normalize(read_wav(path))


class TestClipCacheExactness:
    @CLIP_FILES
    def test_kept_clip_is_the_normalized_file(self, tmp_path, encoding, samples):
        want = clip_file(tmp_path / "a.wav", encoding, samples)
        cache = _ClipCache(tmp_path, [evaluation.ManifestEntry("a.wav", "noise", "test")])
        for _ in range(3):  # the first get reads the file, later ones rebuild the clip
            got = cache.get("a.wav")
            assert got.samples.dtype == np.float64
            assert got.samples.tobytes() == want.samples.tobytes()
            assert got.sample_rate_hz == want.sample_rate_hz == 8000
        kept = cache._clips["a.wav"][0]
        assert kept.dtype == np.float32 and kept.shape == (4000,)

    @CLIP_FILES
    @pytest.mark.parametrize("n", [1000, 4000, 9000], ids=["crop", "whole", "tiled"])
    def test_noise_is_the_part_of_the_clip_a_mix_reads(self, tmp_path, encoding, samples, n):
        want = clip_file(tmp_path / "a.wav", encoding, samples)
        cache = _ClipCache(tmp_path, [evaluation.ManifestEntry("a.wav", "noise", "test")])
        signal = AudioClip(np.random.default_rng(n).uniform(-0.5, 0.5, size=n), 8000)
        for _ in range(2):
            clip, power = cache.noise("a.wav", n)
            assert clip.samples.tobytes() == want.samples[:n].tobytes()
            assert power == audio.mixed_noise_power(want, n)
            if power:
                got = audio.mix_at_snr(signal, clip, 5.0, noise_power=power).samples
                assert got.tobytes() == audio.mix_at_snr(signal, want, 5.0).samples.tobytes()

    @CLIP_FILES
    def test_unkept_clip_is_the_normalized_file(self, tmp_path, encoding, samples, reads):
        want = clip_file(tmp_path / "a.wav", encoding, samples)
        cache = _ClipCache(tmp_path, [])
        for n in range(1, 3):  # read again on every get, and not held
            got = cache.get("a.wav")
            assert got.samples.dtype == np.float64
            assert got.samples.tobytes() == want.samples.tobytes()
            assert got.sample_rate_hz == 8000
            assert reads == {str(tmp_path / "a.wav"): n} and cache._clips == {}
