"""Run one spectherm CLI invocation, as the installed ``spectherm`` script would.

    PYTHONPATH=src python perfbench/launch.py ARGV...
    PYTHONPATH=src python perfbench/launch.py --trace-out SPANS.json ARGV...

With ``--trace-out`` the layer functions are wrapped first (see tracer.py)
and their spans are written to SPANS.json at exit; stdout is unchanged.
"""

import sys

argv = sys.argv[1:]
if argv[:1] == ["--trace-out"]:
    import tracer

    tracer.install(argv[1])
    argv = argv[2:]

import spectherm.cli  # noqa: E402

sys.exit(spectherm.cli.run(argv))
