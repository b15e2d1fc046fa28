"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: DataError -> 2, ModelError and
ProtocolError -> 3 (usage problems exit 1).
"""


class WuwError(Exception):
    """Base class for all toolkit errors."""


class DataError(WuwError):
    """Bad or inconsistent input data (audio files, manifests, datasets)."""


class ModelError(WuwError):
    """Model-level problems: weight files, config mismatches, member wiring."""


class ProtocolError(WuwError):
    """Malformed wire frames or transport-level violations."""


# -- WAV reader -----------------------------------------------------------

class WavFormatError(DataError):
    """Not a parseable RIFF/WAVE container (bad magic, truncated chunks)."""


class WavEncodingError(DataError):
    """Sample encoding other than PCM16 or IEEE float32."""


class WavChannelError(DataError):
    """Channel count other than mono."""


# -- Weight files ---------------------------------------------------------

class WeightMagicError(ModelError):
    """File does not start with the weight-file magic."""


class WeightVersionError(ModelError):
    """Unsupported weight-file version."""


class WeightTruncatedError(ModelError):
    """File ends before the declared payload."""


class WeightLayoutError(ModelError):
    """Declared tensor shapes and payload disagree, or metadata is invalid."""


# -- Wire protocol --------------------------------------------------------

class FrameMagicError(ProtocolError):
    """Frame does not start with the protocol magic."""


class FrameVersionError(ProtocolError):
    """Unknown protocol version."""


class FrameTruncatedError(ProtocolError):
    """Frame ends before the declared body length."""


class FrameLengthError(ProtocolError):
    """Declared lengths are inconsistent or exceed the size cap."""


# -- Manifests ------------------------------------------------------------

class ManifestError(DataError):
    """Invalid manifest line; the message names the offending line."""
