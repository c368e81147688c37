"""Run the berglab CLI with the benchmark's spans installed.

    BENCH_SPANS_OUT=spans.json python3 bench/traced_cli.py equiv --spec ...

Arguments are those of ``python -m berglab.cli``.  The spans are written as
JSON to ``$BENCH_SPANS_OUT`` when the command exits.
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    from berglab.cli import main as cli_main

    try:
        cli_main(prog_name="berglab")
    finally:
        Path(os.environ["BENCH_SPANS_OUT"]).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    main()
