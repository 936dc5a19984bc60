"""`python -m zscomb.cli` with the benchmark's span tracer installed.

    python3 bench/traced_cli.py OP_ID ARGV...

Stdout is the CLI's own output.  The last line on stderr is the span
summary of this process, as JSON.
"""

import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main():
    sys.path.insert(0, SRC)
    import zscomb.cli

    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    run = tracer.entry(zscomb.cli.run)
    tracer.begin(int(sys.argv[1]))
    try:
        code = run(sys.argv[2:])
    finally:
        tracer.finish()
    sys.stdout.flush()
    print(json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
