"""Run ``wuw serve`` with the benchmark's layer wrappers installed.

Usage: ``python3 wuwbench/serve_traced.py SPANS_OUT [wuw serve options]``.
The spans are written to SPANS_OUT as JSON lines when the server exits
(stop it with SIGINT).
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from wuwbench.tracing import Recorder, install_server  # noqa: E402


def main(argv) -> int:
    out, serve_args = argv[0], argv[1:]
    rec = Recorder()
    install_server(rec)
    from wuw import cli

    try:
        return cli.main(["serve", *serve_args])
    finally:
        rec.dump(out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
