"""WAV bytes written by hand, for tests that read a file ``write_wav``
does not write (it writes float32 only)."""

import struct


def pcm16_wav_bytes(samples, rate=16000, channels=1, format_code=1, bits=16):
    """A RIFF/WAVE file whose data chunk holds ``samples`` as int16, with
    the fmt chunk's fields as given."""
    payload = struct.pack(f"<{len(samples)}h", *samples)
    fmt = struct.pack("<HHIIHH", format_code, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body
