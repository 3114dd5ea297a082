"""Run the batch command line as `python -m spectherm`."""

from .cli import main

main()
