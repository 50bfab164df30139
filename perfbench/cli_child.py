"""Run one sympdeg CLI verb with every layer traced.

    python3 perfbench/cli_child.py RECORD.json VERB [ARGS...]

Behaves like `python -m sympdeg.cli VERB [ARGS...]` (same stdout, stderr
and exit code) and writes the aggregated span record of the call to
RECORD.json.  The package is imported from the checkout's src/.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import sympdeg.cli  # noqa: E402
from sympdeg import degen, symdegen  # noqa: E402

from spans import Tracer  # noqa: E402


def main(record_path, argv):
    tracer = Tracer().prepare()
    with tracer.active(degen, symdegen):
        code = sympdeg.cli.run(argv)
    Path(record_path).write_text(json.dumps(tracer.record()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
