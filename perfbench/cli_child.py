"""Traced stand-in for `python -m contlog.cli`, used by the traced cli runs.

Usage: cli_child.py SPANS_OUT CLI_ARGS...

Times the import of `contlog.cli` as the `cli.import` span, wraps the traced
layers, runs the command, then writes its spans, counts and cache sizes to
SPANS_OUT and exits with the command's exit code.
"""
import sys

from spans import Tracer, install_layers, module_cache_entries


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.active = True
    with tracer.span("cli.import"):
        import contlog.cli
    install_layers(tracer)
    try:
        return contlog.cli.main(argv)
    finally:
        tracer.active = False
        tracer.counts.update(module_cache_entries())
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
