"""The synthetic corpus generator against scipy.signal, its former engine.

``chirp_keyword`` writes scipy's linear chirp phase and must equal it bit
for bit. ``_shaped_noise`` replaces ``lfilter([1], [1, -0.9], x)`` with a
blocked GEMM, which sums in another order; it must stay within 1e-15 of the
(unit) peak of the sequential filter. ``make_chirp_task`` refuses a
negative clip count before it writes anything.
"""

import numpy as np
import pytest

from wuw import synth
from wuw.audio import CANONICAL_RATE_HZ


@pytest.mark.parametrize("duration_s", [0.6, 0.37, 1.0])
def test_chirp_keyword_is_bit_identical_to_scipy_chirp(duration_s):
    from scipy.signal import chirp

    t = np.arange(int(duration_s * CANONICAL_RATE_HZ)) / CANONICAL_RATE_HZ
    tone = chirp(t, f0=synth.CHIRP_F0_HZ, f1=synth.CHIRP_F1_HZ, t1=duration_s)
    gain = np.random.default_rng(3).uniform(0.6, 0.9)
    expected = tone * np.hanning(t.size) * gain
    got = synth.chirp_keyword(np.random.default_rng(3), duration_s=duration_s)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 257, 32_000, 1_008_000])
def test_shaped_noise_matches_lfilter(n):
    from scipy.signal import lfilter

    colored = lfilter([1.0], [1.0, -0.9], np.random.default_rng(n).standard_normal(n))
    expected = colored / np.max(np.abs(colored))
    got = synth._shaped_noise(np.random.default_rng(n), n)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("split", ["train", "valid", "test"])
def test_negative_count_is_refused_before_anything_is_written(tmp_path, split):
    counts = {"n_train": 2, "n_valid": 2, "n_test": 1, f"n_{split}": -1}
    with pytest.raises(ValueError, match=f"{split} clip count must be at least 0"):
        synth.make_chirp_task(tmp_path / "corpus", **counts)
    assert not (tmp_path / "corpus").exists()
