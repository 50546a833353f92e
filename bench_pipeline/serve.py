"""``python -m repro serve`` with a host clock running (see :mod:`host`).

    python bench_pipeline/serve.py SAMPLES.json serve --port 0 ...

runs the CLI with the remaining arguments and, when it exits, writes
the host-speed samples it took (``[time.time(), probe ns]`` pairs) to
``SAMPLES.json``.  The probes run in the server's main thread, which
otherwise only waits for connections, so they time the CPU the
server's jobs run on.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from host import HostClock  # noqa: E402


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    clock = HostClock()
    try:
        with clock:
            from repro.cli import main as cli
            return cli(argv)
    finally:
        with open(path, "w") as fh:
            json.dump(clock.samples, fh)


if __name__ == "__main__":
    sys.exit(main())
