"""Set-up probe: a fresh interpreter imports bts, runs one CLI item, and says when it returned.

    python3 bench/probe.py <bts argv...>

The runner times from starting this process to reading its ``done`` line, so
the time covers interpreter start, imports and the lazy set-up the first item
pays.  The item's own output is discarded; its exit code follows ``done``.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bts import cli  # noqa: E402


def main() -> int:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(sys.argv[1:])
    except Exception as exc:  # the item's failure is the runner's to record, not the probe's
        code = type(exc).__name__
    sys.stdout.write(f"done {code}\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
