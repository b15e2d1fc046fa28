"""The toolkit's three errors, one per exit code of ``wuw`` (usage problems
exit 1):

- ``DataError`` -> 2: bad or inconsistent input data (WAV files, manifests,
  datasets, a request's shape);
- ``ModelError`` -> 3: weight files, config mismatches, member wiring;
- ``ProtocolError`` -> 3: malformed wire frames or transport failures.

No caller tells refusals of one class apart, so each is told by its message
("bad frame magic", "truncated header", ``path:line``). A subclass is worth
adding only together with a caller that catches it.
"""


class DataError(Exception):
    """Bad or inconsistent input data (audio files, manifests, datasets)."""


class ModelError(Exception):
    """Model-level problems: weight files, config mismatches, member wiring."""


class ProtocolError(Exception):
    """Malformed wire frames or transport-level violations."""
