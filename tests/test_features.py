import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wuw.audio import AudioClip
from wuw.errors import DataError
from wuw import features
from wuw.features import (
    CLOUD,
    DEVICE,
    LOG_FLOOR,
    PRESETS,
    FeatureConfig,
    FeatureMatrix,
    dct2_ortho,
    frame_count,
    mel_filterbank,
    mfcc,
    power_spectrum,
)

EXPECTED_SHAPES = {1: (29, 13), 2: (148, 40), 3: (71, 13), 4: (148, 13), 5: (149, 13)}


def random_clip(seed=0, n=24000):
    rng = np.random.default_rng(seed)
    return AudioClip(rng.uniform(-0.9, 0.9, n))


class TestFrameCount:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((24000, 1600, 800), 29),
            ((24000, 1600, 320), 71),
            ((24000, 480, 160), 148),
            ((24000, 320, 160), 149),
        ],
    )
    def test_published_grid(self, args, expected):
        assert frame_count(*args) == expected

    def test_too_short(self):
        with pytest.raises(DataError):
            frame_count(100, 1600, 800)


def naive_dft_power(frame, fft_len):
    """Oracle: O(N^2) DFT power spectrum."""
    padded = np.zeros(fft_len)
    padded[: len(frame)] = frame
    n = np.arange(fft_len)
    out = np.empty(fft_len // 2 + 1)
    for k in range(fft_len // 2 + 1):
        re = np.sum(padded * np.cos(-2 * np.pi * k * n / fft_len))
        im = np.sum(padded * np.sin(-2 * np.pi * k * n / fft_len))
        out[k] = re * re + im * im
    return out


class TestPowerSpectrum:
    def test_zero_frame(self):
        np.testing.assert_array_equal(power_spectrum(np.zeros(16), 16), np.zeros(9))

    def test_dc_only(self):
        spec = power_spectrum(np.ones(4), 4)
        np.testing.assert_allclose(spec, [16.0, 0.0, 0.0], atol=1e-12)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(1)
        frame = rng.normal(size=480)
        impl = power_spectrum(frame, 512)
        oracle = naive_dft_power(frame, 512)
        np.testing.assert_allclose(impl, oracle, rtol=1e-4, atol=1e-9)

    def test_frame_longer_than_fft_rejected(self):
        with pytest.raises(ValueError):
            power_spectrum(np.zeros(600), 512)


def mp_mel_center_bins(n_filters, fft_len, rate):
    """Oracle: recompute mel peak bins with 50-digit arithmetic."""
    import mpmath

    mpmath.mp.dps = 50
    mel_max = 1127 * mpmath.log(1 + mpmath.mpf(rate) / 2 / 700)
    bins = []
    for i in range(1, n_filters + 1):
        mel = mel_max * i / (n_filters + 1)
        freq = 700 * (mpmath.exp(mel / 1127) - 1)
        bins.append(int(mpmath.floor(freq / rate * fft_len)))
    return bins


class TestMelFilterbank:
    @pytest.mark.parametrize("config", list(PRESETS.values()), ids=lambda c: c.config_id)
    def test_rows_peak_at_one_and_contiguous(self, config):
        fb = mel_filterbank(config)
        assert fb.shape == (features.N_FILTERS, config.fft_len // 2 + 1)
        assert np.all(fb >= 0)
        for row in fb:
            assert row.max() == 1.0
            support = np.flatnonzero(row)
            assert np.array_equal(support, np.arange(support[0], support[-1] + 1))

    def test_center_frequencies_increase(self):
        fb = mel_filterbank(CLOUD)
        peaks = [int(np.argmax(row)) for row in fb]
        assert peaks == sorted(peaks)

    @pytest.mark.parametrize("window_ms,fft_len", [(20, 512), (100, 2048)], ids=["512", "2048"])
    def test_center_bins_match_high_precision_oracle(self, window_ms, fft_len):
        config = FeatureConfig(config_id=9, n_mfcc=13, window_ms=window_ms, hop_ms=10)
        assert config.fft_len == fft_len
        fb = mel_filterbank(config)
        oracle = mp_mel_center_bins(40, fft_len, 16000)
        impl = [int(np.flatnonzero(row == 1.0)[0]) for row in fb]
        assert impl == oracle


class TestMfcc:
    @pytest.mark.parametrize("config_id,shape", sorted(EXPECTED_SHAPES.items()))
    def test_published_shapes(self, config_id, shape):
        fm = mfcc(random_clip(), PRESETS[config_id])
        assert fm.values.shape == shape
        assert fm.config_id == config_id

    def test_all_zero_clip(self):
        fm = mfcc(AudioClip(np.zeros(24000)), DEVICE)
        # column 0 is the frame log energy of silence: ln(LOG_FLOOR)
        np.testing.assert_allclose(fm.values[:, 0], np.log(LOG_FLOOR), rtol=1e-6)
        np.testing.assert_allclose(fm.values[:, 1:], 0.0, atol=1e-9)

    def test_constant_filterbank_rows_have_single_dct_component(self):
        # DCT-II of a constant vector concentrates in coefficient 0, which
        # the pipeline then overwrites with the frame log energy.
        rng = np.random.default_rng(2)
        x = np.full(40, rng.uniform(0.5, 2.0))
        coeffs = dct2_ortho(x)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-12)
        np.testing.assert_allclose(coeffs[0], x[0] * np.sqrt(40), rtol=1e-12)

    def test_rate_mismatch_rejected(self):
        clip = AudioClip(np.ones(24000), 8000)
        with pytest.raises(DataError):
            mfcc(clip, DEVICE)

    def test_short_clip_rejected(self):
        with pytest.raises(DataError):
            mfcc(AudioClip(np.ones(100)), DEVICE)

    def test_deterministic_bit_exact(self):
        clip = random_clip(3)
        a = mfcc(clip, CLOUD)
        b = mfcc(clip, CLOUD)
        assert a.values.tobytes() == b.values.tobytes()

    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.array([[np.nan]]), 1)

    def test_all_values_finite_for_spiky_input(self):
        clip = AudioClip(np.zeros(24000))
        clip.samples[1000] = 1.0
        fm = mfcc(clip, DEVICE)
        assert np.all(np.isfinite(fm.values))


class TestMelRowBlocks:
    @pytest.mark.parametrize("config", list(PRESETS.values()), ids=lambda c: c.config_id)
    @pytest.mark.parametrize("per_call", [1, 2, 7, 29])
    def test_long_clip_equals_frame_aligned_sub_clips(self, config, per_call):
        clip = random_clip(5, n=3 * 16000 + 123)
        whole = mfcc(clip, config).values
        hop, win = config.hop_samples, config.window_samples
        parts = []
        for f in range(0, len(whole), per_call):
            n = min(per_call, len(whole) - f)
            sub = AudioClip(clip.samples[f * hop : (f + n - 1) * hop + win])
            parts.append(mfcc(sub, config).values)
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("config", [DEVICE, CLOUD], ids=lambda c: c.config_id)
    def test_no_mel_matmul_reaches_the_blas_threading_size(self, config, monkeypatch):
        calls = []
        matmul = np.matmul

        def spy(a, w, **kwargs):
            calls.append((a.shape, w.shape))
            return matmul(a, w, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        k, n = config.fft_len // 2 + 1, features.N_FILTERS
        dct = (n, config.n_mfcc)  # only the kept columns of the DCT
        # one 1.5 s window, then a 60 s clip
        for clip in (random_clip(6), random_clip(7, n=60 * 16000)):
            calls.clear()
            fm = mfcc(clip, config)
            mel = [a for a, w in calls if w == (k, n)]
            assert mel and all(w in ((k, n), dct) for _, w in calls)
            assert sum(a[0] for a in mel) == fm.n_frames
            assert sum(a[0] for a, w in calls if w == dct) == fm.n_frames
            assert all(a[0] * w[0] * w[1] <= features._GEMM_MAX_MNK for a, w in calls)
        # the whole window in one mel product would be above the bound
        assert mfcc(random_clip(6), config).n_frames * k * n > features._GEMM_MAX_MNK


def blocked_matmul(a, w, block):
    """Row-blocked product into a preallocated output, one ``np.matmul``
    per block of ``block`` rows: the loop ``_matmul_rows`` runs above one
    block."""
    rows = a.shape[-2]
    out = np.empty(np.broadcast_shapes(a.shape[:-2], w.shape[:-2]) + (rows, w.shape[-1]))
    for s in range(0, rows, block):
        np.matmul(a[..., s : s + block, :], w, out=out[..., s : s + block, :])
    return out


def mfcc_oracle(clip, config):
    """MFCC cut and transformed the plain way: ``sliding_window_view``
    framing, every product row-blocked into a preallocated output, the full
    DCT-II, then the first n_mfcc columns."""
    window, hop = config.window_samples, config.hop_samples
    n_frames = frame_count(len(clip), window, hop)
    frames = np.lib.stride_tricks.sliding_window_view(clip.samples, window)[::hop][:n_frames]
    spectra = np.square(np.abs(np.fft.rfft(frames, n=config.fft_len, axis=1)))
    fb = mel_filterbank(config).T
    energies = blocked_matmul(spectra, fb, features._gemm_block_rows(*fb.shape))
    d = features._dct_matrix(features.N_FILTERS)
    cepstra = blocked_matmul(np.log(energies + LOG_FLOOR), d,
                             features._gemm_block_rows(*d.shape))[:, : config.n_mfcc]
    cepstra[:, 0] = np.log(np.sum(np.square(frames), axis=1) + LOG_FLOOR)
    return cepstra.astype(np.float32)


class TestMfccOracle:
    @pytest.mark.parametrize("config", list(PRESETS.values()), ids=lambda c: c.config_id)
    @pytest.mark.parametrize("length", ["window", "window+hop", "1.5s", "1.5s+333", "7s+5"])
    def test_bit_equal_to_the_plain_way(self, config, length):
        n = {"window": config.window_samples,
             "window+hop": config.window_samples + config.hop_samples,
             "1.5s": 24000, "1.5s+333": 24333, "7s+5": 7 * 16000 + 5}[length]
        rng = np.random.default_rng(n)
        samples = rng.normal(scale=0.3, size=n)
        samples[n // 3 : n // 2] = 0.0  # silent frames sit on the log floor
        clip = AudioClip(samples)
        assert np.array_equal(mfcc(clip, config).values, mfcc_oracle(clip, config))

    @pytest.mark.parametrize("step", [2, -1])
    def test_strided_samples_give_the_features_of_their_copy(self, step):
        samples = np.random.default_rng(4).uniform(-0.9, 0.9, 2 * 24000)[::step]
        strided = mfcc(AudioClip(samples), CLOUD).values
        assert np.array_equal(strided, mfcc(AudioClip(samples.copy()), CLOUD).values)

    @pytest.mark.parametrize("config", list(PRESETS.values()), ids=lambda c: c.config_id)
    @pytest.mark.parametrize("view", ["offset", "step2", "read-only"])
    def test_sample_views_give_the_features_of_their_copy(self, config, view):
        # frames are cut from the samples' own buffer, which starts at a view's
        # first sample and may be read-only
        base = np.random.default_rng(5).uniform(-0.9, 0.9, 2 * 24000 + 13)
        samples = {"offset": base[13 : 13 + 24000], "step2": base[::2],
                   "read-only": base[:24000].copy()}[view]
        samples.flags.writeable = view != "read-only"
        got = mfcc(AudioClip(samples), config).values
        assert np.array_equal(got, mfcc(AudioClip(samples.copy()), config).values)


class TestMatmulRows:
    @pytest.mark.parametrize("a_shape,w_shape", [
        ((2, 1025), (1025, 40)),     # a 100 ms device feed's mel product
        ((29, 40), (40, 13)),        # one window's DCT
        ((1, 40), (40, 40)),
        ((3, 20, 40), (3, 40, 48)),  # stacked members' input projection
        ((5, 65), (65, 1)),          # synth's one-pole row products
    ])
    def test_one_block_path_equals_the_blocked_loop(self, a_shape, w_shape):
        rng = np.random.default_rng(len(a_shape) * 100 + a_shape[-2])
        a, w = rng.normal(size=a_shape), rng.normal(size=w_shape)
        rows, (k, n) = a_shape[-2], w_shape[-2:]
        assert rows <= features._gemm_block_rows(k, n)  # the one-block path
        got = features._matmul_rows(a, w)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == blocked_matmul(a, w, rows).tobytes()

    @pytest.mark.parametrize("a_shape,w_shape", [
        ((3, 5, 40), (3, 40, 384)),    # one block: 5 rows of a 2x128 layer's projection
        ((3, 148, 40), (3, 40, 384)),  # a 148-frame window's projection, in blocks
        ((2, 148, 128), (2, 128, 384)),
    ])
    def test_float32_operands_give_float32_on_either_path(self, a_shape, w_shape):
        rng = np.random.default_rng(a_shape[-2])
        a = rng.normal(size=a_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        got = features._matmul_rows(a, w)
        assert got.dtype == np.float32 and got.flags.c_contiguous
        assert got.tobytes() == np.matmul(a, w).tobytes()


class TestDctOracle:
    @pytest.mark.parametrize("n", [1, 2, 13, 40, 63])
    @pytest.mark.parametrize("shape", [(), (9,)], ids=["1-D", "2-D"])
    def test_matches_scipy_fft_dct(self, n, shape):
        from scipy.fft import dct

        x = np.random.default_rng(n).normal(scale=30.0, size=shape + (n,))
        scale = np.max(np.abs(x))
        np.testing.assert_allclose(
            dct2_ortho(x), dct(x, type=2, norm="ortho"), rtol=0, atol=1e-12 * scale
        )

    def test_matrix_is_cached_and_read_only(self):
        d = features._dct_matrix(40)
        assert features._dct_matrix(40) is d
        with pytest.raises(ValueError):
            d[0, 0] = 0.0
        cols = features._plan(DEVICE)[4]  # the columns mfcc() keeps
        assert features._plan(DEVICE)[4] is cols and cols.flags.c_contiguous
        assert np.array_equal(cols, d[:, :13])
        with pytest.raises(ValueError):
            cols[0, 0] = 0.0


class TestDctParseval:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=int(rng.integers(2, 64)))
        y = dct2_ortho(x)
        np.testing.assert_allclose(np.sum(y * y), np.sum(x * x), rtol=1e-5)


class TestFeatureConfigValidation:
    def test_presets(self):
        assert DEVICE.n_mfcc == 13 and DEVICE.window_ms == 100 and DEVICE.hop_ms == 50
        assert CLOUD.n_mfcc == 40 and CLOUD.window_ms == 30 and CLOUD.hop_ms == 10
        assert DEVICE.fft_len == 2048
        assert CLOUD.fft_len == 512
        assert PRESETS[5].fft_len == 512
        for c in PRESETS.values():  # the smallest power of two that holds a window
            assert c.fft_len & (c.fft_len - 1) == 0
            assert c.fft_len // 2 < c.window_samples <= c.fft_len

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            FeatureConfig(config_id=9, n_mfcc=50, window_ms=30, hop_ms=10)
        with pytest.raises(ValueError):
            FeatureConfig(config_id=9, n_mfcc=13, window_ms=30, hop_ms=40)
        with pytest.raises(TypeError):  # the window decides the FFT length
            FeatureConfig(config_id=9, n_mfcc=13, window_ms=30, hop_ms=10, fft_len=512)
        with pytest.raises(TypeError):  # every config has N_FILTERS filters
            FeatureConfig(config_id=9, n_mfcc=13, window_ms=30, hop_ms=10, n_filters=40)
        with pytest.raises(TypeError):  # every config reads CANONICAL_RATE_HZ audio
            FeatureConfig(config_id=9, n_mfcc=13, window_ms=30, hop_ms=10,
                          sample_rate_hz=16000)

