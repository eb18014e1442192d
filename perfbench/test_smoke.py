"""The benchmark's own test: ``python3 -m pytest perfbench``."""

import run


def test_smoke():
    run.smoke()
