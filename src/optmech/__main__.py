"""`python -m optmech`: the command-line front end, for source checkouts
without an installed console script."""

from .cli import console_main

console_main()
