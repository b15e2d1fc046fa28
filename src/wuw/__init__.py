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

The package itself imports nothing: each name lives in, and is imported
from, the module that defines it (``from wuw.audio import AudioClip``), so
a process loads only the modules it uses. Importing ``wuw.audio`` or
``wuw.features`` loads neither the wire protocol nor ``socketserver``.
"""
