"""Run one headswap CLI command under the span tracer and write its trace.

    python3 bench/swap_child.py TRACE_JSON swap --body ... --head ... --out DIR

Used by the traced half of the swap_cold workload: the command runs in a
fresh interpreter exactly as ``python -m headswap.cli`` would, with the
package's functions wrapped from outside.  Exits with the command's code.
"""

import sys

import spans


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from headswap import cli

    tracer = spans.Tracer()
    tracer.install()
    code = cli.cli_main(argv)
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
