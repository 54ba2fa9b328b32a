"""Run one defectcost CLI command with spans recorded around its layers.

Usage: python3 perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS...]

Installs the wrappers of `spans.WRAPS`, runs ``defectcost.cli.main`` on the
remaining arguments, writes the spans to SPANS_JSON and exits with the
command's exit code.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from defectcost import cli

    tracer = Tracer()
    missing = tracer.install()
    code = cli.main(argv)
    tracer.dump(spans_path, {"missing": missing})
    return code


if __name__ == "__main__":
    sys.exit(main())
