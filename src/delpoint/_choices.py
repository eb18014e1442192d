"""The named choices that the commands offer and the library checks.

cli gives each tuple to argparse as an option's ``choices`` when its
commands are defined, before any dataset is read, so they live in this
module, which imports nothing: ``--help`` and ``report`` then load no
numpy.  core, selector and sim check their arguments against the same
tuples.
"""

_SNR_CONVENTIONS = ("paper", "consistent")

_TIE_BREAKS = ("norm-first", "paper")

PROTOCOLS = ("perfect_delete", "random_delete", "no_delete")
