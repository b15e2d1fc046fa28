import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from wuw import audio
from wuw.audio import (
    SNR_RANGE_DB,
    AlignmentSpan,
    AudioClip,
    convolve_rir,
    draw_snr,
    extract_window,
    measure_power,
    mix_at_snr,
    peak_normalize,
    read_wav,
    write_wav,
)
from wuw.errors import (
    DataError,
    WavChannelError,
    WavEncodingError,
    WavFormatError,
)

from wavs import pcm16_wav_bytes


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(pcm16_wav_bytes([0, 16384, -32768]))
        clip = read_wav(path)
        assert clip.sample_rate_hz == 16000
        np.testing.assert_array_equal(clip.samples, [0.0, 0.5, -1.0])

    def test_empty_data_chunk(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(pcm16_wav_bytes([]))
        assert len(read_wav(path)) == 0

    def test_duration_of_24000_samples(self, tmp_path):
        # oracle: duration = n / rate
        path = tmp_path / "w.wav"
        path.write_bytes(pcm16_wav_bytes([0] * 24000))
        assert read_wav(path).duration_s == 24000 / 16000 == 1.5

    def test_float32_roundtrip(self, tmp_path):
        clip = AudioClip(np.linspace(-1, 1, 777))
        write_wav(clip, tmp_path / "f.wav")
        back = read_wav(tmp_path / "f.wav")
        np.testing.assert_allclose(back.samples, clip.samples, atol=1e-7)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OGGS" + b"\x00" * 40)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        path.write_bytes(pcm16_wav_bytes([0, 0], channels=2))
        with pytest.raises(WavChannelError):
            read_wav(path)

    def test_unsupported_encoding(self, tmp_path):
        path = tmp_path / "u8.wav"
        path.write_bytes(pcm16_wav_bytes([0], bits=8))
        with pytest.raises(WavEncodingError):
            read_wav(path)

    def test_nonstandard_rate_accepted(self, tmp_path):
        path = tmp_path / "r.wav"
        path.write_bytes(pcm16_wav_bytes([0, 1], rate=8000))
        assert read_wav(path).sample_rate_hz == 8000

    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_samples_bit_identical_to_a_copy_decode(self, tmp_path, encoding):
        # oracle: the data chunk copied out of the file bytes and decoded the
        # plain way; an odd-sized chunk before it shifts its offset.
        rng = np.random.default_rng(0)
        if encoding == "pcm16":
            fmt_code, bits, dtype = 1, 16, "<i2"
            payload = rng.integers(-32768, 32768, size=4001).astype(dtype).tobytes()
        else:
            fmt_code, bits, dtype = 3, 32, "<f4"
            values = np.concatenate([rng.normal(size=4000), [-0.0, 1e-40, -1.0, 3.5]])
            payload = values.astype(dtype).tobytes()
        fmt = struct.pack("<HHIIHH", fmt_code, 1, 16000, 16000 * bits // 8, bits // 8, bits)
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"LIST" + struct.pack("<I", 3) + b"abc\x00"
                + b"data" + struct.pack("<I", len(payload)) + payload)
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        want = np.frombuffer(bytes(payload), dtype=dtype).astype(np.float64)
        if encoding == "pcm16":
            want = want / 32768.0
        assert read_wav(path).samples.tobytes() == want.tobytes()


class TestPeakNormalize:
    def test_scales_to_unit_peak(self):
        out = peak_normalize(AudioClip([0.1, -0.5]))
        np.testing.assert_array_equal(out.samples, [0.2, -1.0])

    def test_silence_unchanged(self):
        out = peak_normalize(AudioClip([0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(out.samples, [0.0, 0.0, 0.0])

    def test_already_normalized(self):
        out = peak_normalize(AudioClip([1.0, -1.0]))
        np.testing.assert_array_equal(out.samples, [1.0, -1.0])

    @given(st.lists(st.floats(-1, 1, allow_nan=False, width=32), min_size=1, max_size=200))
    def test_idempotent_bit_exact(self, samples):
        once = peak_normalize(AudioClip(samples))
        twice = peak_normalize(once)
        assert np.array_equal(once.samples, twice.samples)


class TestExtractWindow:
    def test_exact_length_is_identity(self):
        clip = AudioClip(np.arange(24000) / 24000.0)
        out = extract_window(clip)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_symmetric_padding(self):
        # oracle: pad count = 24000 - 8000, split evenly
        clip = AudioClip(np.ones(8000))
        out = extract_window(clip)
        assert len(out) == 24000
        assert int(np.sum(out.samples == 0.0)) == 16000
        np.testing.assert_array_equal(out.samples[8000:16000], np.ones(8000))

    def test_window_is_sized_by_the_clip_rate(self):
        out = extract_window(AudioClip(np.ones(8000), 8000))
        assert len(out) == 12000 and out.sample_rate_hz == 8000

    def test_span_containment_over_draws(self):
        # oracle: every placement must contain samples [3200, 16000)
        rng = np.random.default_rng(7)
        marker = np.zeros(48000)
        marker[3200:16000] = 1.0
        clip = AudioClip(marker)
        span = AlignmentSpan(0.2, 1.0)
        for _ in range(1000):
            out = extract_window(clip, span=span, rng=rng)
            assert len(out) == 24000
            assert np.sum(out.samples) == 12800.0  # whole marker present

    def test_long_span_centers_window(self):
        clip = AudioClip(np.arange(64000, dtype=float))
        span = AlignmentSpan(0.5, 3.5)  # 3 s span > 1.5 s window
        out = extract_window(clip, span=span)
        mid_span = (8000 + 56000) // 2
        assert out.samples[0] == mid_span - 12000

    @given(st.integers(min_value=1, max_value=60000))
    @settings(max_examples=40, deadline=None)
    def test_output_length_always_exact(self, n):
        rng = np.random.default_rng(n)
        out = extract_window(AudioClip(np.ones(n)), rng=rng)
        assert len(out) == 24000

    def test_empty_clip_rejected(self):
        with pytest.raises(DataError):
            extract_window(AudioClip([]))

    def test_random_placement_needs_an_rng(self):
        with pytest.raises(ValueError, match="rng"):
            extract_window(AudioClip(np.ones(30000)))
        marker = AudioClip(np.arange(48000, dtype=float))
        with pytest.raises(ValueError, match="rng"):
            extract_window(marker, span=AlignmentSpan(0.2, 1.0))
        # a span that fits only one placement draws nothing
        one = extract_window(marker, span=AlignmentSpan(0.0, 1.5))
        np.testing.assert_array_equal(one.samples, marker.samples[:24000])


class TestMeasurePower:
    def test_constant(self):
        assert measure_power(AudioClip([0.5] * 10)) == 0.25

    def test_zeros(self):
        assert measure_power(AudioClip([0.0, 0.0])) == 0.0

    def test_alternating(self):
        assert measure_power(AudioClip([1.0, -1.0, 1.0, -1.0])) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            measure_power(AudioClip([]))


def realized_snr_db(mixed, signal):
    """Oracle: recompute SNR from the two addends of the mixture."""
    added_noise = mixed.samples - signal.samples
    p_sig = np.mean(np.square(signal.samples))
    p_noise = np.mean(np.square(added_noise))
    return 10.0 * np.log10(p_sig / p_noise)


class TestMixAtSnr:
    def test_unit_gain_at_zero_db(self):
        rng = np.random.default_rng(0)
        sig = AudioClip(rng.normal(size=1000))
        noise = AudioClip(sig.samples[::-1].copy())  # same power
        mixed = mix_at_snr(sig, noise, 0.0)
        np.testing.assert_allclose(mixed.samples, sig.samples + noise.samples, rtol=1e-12)

    def test_gain_tenth_at_twenty_db(self):
        sig = AudioClip([1.0, -1.0] * 100)
        noise = AudioClip([-1.0, 1.0] * 100)
        mixed = mix_at_snr(sig, noise, 20.0)
        np.testing.assert_allclose(
            mixed.samples - sig.samples, 0.1 * noise.samples, rtol=1e-12
        )

    def test_realized_snr_matches_target(self):
        rng = np.random.default_rng(3)
        sig = AudioClip(rng.normal(size=24000))
        noise = AudioClip(rng.normal(size=5000))  # shorter: exercises tiling
        mixed = mix_at_snr(sig, noise, -10.0)
        assert abs(realized_snr_db(mixed, sig) - (-10.0)) < 1e-6

    def test_output_length_is_signal_length(self):
        rng = np.random.default_rng(4)
        sig = AudioClip(rng.normal(size=999))
        noise = AudioClip(rng.normal(size=10000))
        assert len(mix_at_snr(sig, noise, 5.0)) == 999

    def test_zero_power_rejected(self):
        sig = AudioClip(np.zeros(100))
        noise = AudioClip(np.ones(100))
        with pytest.raises(DataError):
            mix_at_snr(sig, noise, 0.0)
        with pytest.raises(DataError):
            mix_at_snr(noise, sig, 0.0)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(DataError):
            mix_at_snr(AudioClip([1.0], 16000), AudioClip([1.0], 8000), 0.0)

    def test_measured_signal_power_is_taken_as_given(self):
        rng = np.random.default_rng(5)
        sig = AudioClip(rng.normal(size=24000))
        noise = AudioClip(rng.normal(size=5000))
        power = measure_power(sig)
        mixed = mix_at_snr(sig, noise, 7.0, signal_power=power)
        assert mixed.samples.tobytes() == mix_at_snr(sig, noise, 7.0).samples.tobytes()
        # the given power sets the gain: four times the power, twice the noise
        louder = mix_at_snr(sig, noise, 7.0, signal_power=4.0 * power)
        np.testing.assert_allclose(louder.samples - sig.samples,
                                   2.0 * (mixed.samples - sig.samples), rtol=1e-12)
        with pytest.raises(DataError):
            mix_at_snr(sig, noise, 7.0, signal_power=0.0)


def direct_convolution(x, h):
    """Oracle: O(N*K) summation."""
    out = np.zeros(len(x))
    for n in range(len(x)):
        acc = 0.0
        for k in range(len(h)):
            if 0 <= n - k < len(x):
                acc += x[n - k] * h[k]
        out[n] = acc
    return out


class TestConvolveRir:
    def test_unit_impulse_is_identity_after_normalize(self):
        rng = np.random.default_rng(5)
        clip = AudioClip(rng.normal(size=400))
        out = convolve_rir(clip, AudioClip([1.0]))
        np.testing.assert_allclose(
            out.samples, peak_normalize(clip).samples, atol=1e-12
        )

    def test_one_sample_delay(self):
        clip = AudioClip([0.5, 0.25])
        out = convolve_rir(clip, AudioClip([0.0, 1.0]))
        np.testing.assert_allclose(out.samples, [0.0, 1.0], atol=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(6)
        clip = AudioClip(rng.normal(size=2000))
        rir = AudioClip(rng.normal(size=512) * np.exp(-np.arange(512) / 80.0))
        out = convolve_rir(clip, rir)
        oracle = direct_convolution(clip.samples, rir.samples)
        oracle /= np.max(np.abs(oracle))
        np.testing.assert_allclose(out.samples, oracle, atol=1e-5)

    def test_bit_identical_to_scipy_signal_fftconvolve(self):
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(7)
        pairs = [(1, 1), (400, 1), (1, 400), (300, 2000), (997, 13), (1009, 1013)]
        pairs += [tuple(int(v) for v in rng.integers(1, 4000, 2)) for _ in range(60)]
        for n, m in pairs:
            clip, rir = AudioClip(rng.normal(size=n)), AudioClip(rng.normal(size=m))
            old = peak_normalize(AudioClip(fftconvolve(clip.samples, rir.samples)[:n]))
            assert np.array_equal(convolve_rir(clip, rir).samples, old.samples), (n, m)

    def test_fast_length_is_scipy_next_fast_len(self):
        from scipy.fft import next_fast_len

        ours = [audio._fast_rfft_len(n) for n in range(1, 20_001)]
        assert ours == [next_fast_len(n, True) for n in range(1, 20_001)]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            convolve_rir(AudioClip([]), AudioClip([1.0]))
        with pytest.raises(DataError):
            convolve_rir(AudioClip([1.0]), AudioClip([]))


class TestDrawSnr:
    def test_range_and_mean(self):
        rng = np.random.default_rng(8)
        draws = np.array([draw_snr(rng) for _ in range(100_000)])
        assert draws.min() >= SNR_RANGE_DB[0]
        assert draws.max() <= SNR_RANGE_DB[1]
        assert abs(draws.mean() - 20.0) < 0.5

    def test_seeded_reproducibility(self):
        a = [draw_snr(np.random.default_rng(1)) for _ in range(5)]
        b = [draw_snr(np.random.default_rng(1)) for _ in range(5)]
        assert a == b

    def test_uniformity_ks(self):
        rng = np.random.default_rng(9)
        draws = np.array([draw_snr(rng) for _ in range(100_000)])
        stat = kstest(draws, "uniform", args=(-10.0, 60.0)).statistic
        assert stat < 0.01


class TestAudioClipInvariants:
    def test_non_finite_rejected(self):
        with pytest.raises(DataError):
            AudioClip([0.0, np.nan])
        with pytest.raises(DataError):
            AudioClip([np.inf])

    def test_bad_rate_rejected(self):
        with pytest.raises(DataError):
            AudioClip([0.0], 0)

    def test_span_validation(self):
        with pytest.raises(DataError):
            AlignmentSpan(1.0, 0.5)
        with pytest.raises(DataError):
            AlignmentSpan(-0.1, 0.5)
