"""``python -m wegnerlab``: the same command line as the ``wegnerlab`` script."""

from .cli import main

main()
