"""Two-phase wake-up-word detection toolkit.

Phase one is an on-device streaming detector over low-resolution MFCC
features; phase two is a server-side verification ensemble over
high-resolution features, fused by a stacking MLP on log-odds. The phases
talk over a binary feature-transport protocol that never carries raw audio.

Import contract: no wuw module imports scipy; numpy is the only runtime
dependency. The MFCC's DCT, the RIR convolution and the synthetic corpus's
chirp and noise filter are numpy code, checked against scipy in the tests.
``tests/test_imports.py`` pins this, since scipy.fft alone would add 85
modules and about 27 MiB to every process that computes a feature.
"""

from .audio import (
    CANONICAL_RATE_HZ,
    SNR_RANGE_DB,
    WINDOW_S,
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
from .errors import DataError, ModelError, ProtocolError, WuwError
from .features import (
    CLOUD,
    DEVICE,
    PRESETS,
    FeatureConfig,
    FeatureMatrix,
    mfcc,
)
from .fusion import (
    Ensemble,
    FusionModel,
    LogOddsVector,
    ScoreDataset,
    fuse,
    load_fusion,
    log_odds,
    synth_score_task,
    train_fusion,
)
from .nnet import (
    ScorePair,
    Scorer,
    TrainSpec,
    WeightStore,
    cross_entropy,
    init_gru_scorer,
    load_weights,
    make_scorer,
    param_count,
    save_weights,
    softmax2,
    train_classifier,
)
from .wire import (
    DetectionEvent,
    DeviceAgent,
    Verdict,
    VerificationServer,
    VerifyRequest,
    VerifyResponse,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    obfuscate,
    request_verification,
    verify_request,
)

__version__ = "0.1.0"
