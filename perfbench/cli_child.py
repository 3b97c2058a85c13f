"""Run one `qasfg` command with its module calls traced.

Usage: python3 cli_child.py SPANS_JSON <qasfg arguments...>

Times `import qasfg.cli`, wraps the package's public functions, runs the
command and writes the spans and the import time to SPANS_JSON.
"""

import sys
import time

t0 = time.perf_counter()
import qasfg.cli  # noqa: E402
import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op("command"):
            code = qasfg.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(out_path, {"import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
