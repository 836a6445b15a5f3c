"""The one way the tests start the program: a cold ``python -S -W error``
process that sees the standard library and this checkout's ``src`` alone.

``-S`` skips the site module, so site-packages and its ``.pth`` files are
out of reach and a third-party import fails; ``-W error`` turns any warning
the program raises into a failure.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).parent.parent / "src")


def run(*argv: str, text: bool = True, env: dict | None = None, timeout: float | None = None):
    """Run ``python -S -W error *argv`` and capture its output.

    ``argv`` starts with ``-m``, ``-c`` or a script path, so no caller
    passes interpreter flags; ``env`` adds to the inherited environment.
    """
    assert argv[0] in ("-m", "-c") or not argv[0].startswith("-"), argv
    return subprocess.run(
        [sys.executable, "-S", "-W", "error", *argv],
        capture_output=True,
        text=text,
        timeout=timeout,
        env={**os.environ, **(env or {}), "PYTHONPATH": SRC},
    )


def run_cli(*args: str, expect: int = 0, **options):
    """``run`` of ``severi.cli`` with ``args``, which must exit ``expect``."""
    proc = run("-m", "severi.cli", *args, **options)
    assert proc.returncode == expect, proc.stderr
    return proc
