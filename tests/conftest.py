import io
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from delpoint import Dataset, HyperParams, advantage_target
from delpoint.cli import main
from delpoint.snr import snr_denominator


class _Copy(io.BytesIO):
    """A byte stream that also writes everything it is given to
    ``copy_to``."""

    def __init__(self, copy_to):
        super().__init__()
        self.copy_to = copy_to

    def write(self, b):
        self.copy_to.write(b)
        return super().write(b)


def invoke(args):
    """Run ``delpoint.cli.main(args)`` in this process, with stdout and
    stderr captured, and return what it did.

    ``exit_code`` is that of a process (0 when main returns, 1 for an
    uncaught exception), and ``exception`` the SystemExit of a non-zero
    code or the uncaught exception, else None.  ``stdout`` and
    ``stderr`` are the decoded streams and ``stdout_bytes`` the raw one;
    ``output`` is both streams in the order their writes were flushed,
    as a terminal would show them.
    """
    mixed = io.BytesIO()
    out, err = _Copy(mixed), _Copy(mixed)
    saved = sys.stdout, sys.stderr
    # the wrappers, held until the end, close their buffers when freed
    wrappers = sys.stdout, sys.stderr = (
        io.TextIOWrapper(out, encoding="utf-8"),
        io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace"))
    exit_code, exception = 0, None
    try:
        main(args)
    except SystemExit as exc:
        exit_code = 0 if exc.code is None else exc.code
        if exit_code != 0:
            exception = exc
        if not isinstance(exit_code, int):
            sys.stdout.write(f"{exit_code}\n")
            exit_code = 1
    except Exception as exc:
        exit_code, exception = 1, exc
    finally:
        for stream in wrappers:
            stream.flush()
        sys.stdout, sys.stderr = saved
    text = {name: stream.getvalue().decode("utf-8", "replace")
            .replace("\r\n", "\n")
            for name, stream in (("output", mixed), ("stdout", out),
                                 ("stderr", err))}
    return SimpleNamespace(exit_code=exit_code, exception=exception,
                           stdout_bytes=out.getvalue(), **text)


@pytest.fixture
def t3():
    """Three 1-D points with simple rational stats: s_yx=23/3, s_xx=14/3."""
    return Dataset.from_arrays([[1.0], [2.0], [3.0]], [2.0, 3.0, 5.0])


@pytest.fixture
def hp_default():
    return HyperParams(gamma=0.01, sigma=2.0, alpha=0.01, delta=100.0)


def random_dataset(rng, n=None, d=None):
    n = n if n is not None else int(rng.integers(2, 51))
    d = d if d is not None else int(rng.integers(1, 6))
    X = rng.normal(0.0, 3.0, (n, d))
    y = rng.normal(0.0, 5.0, n)
    return Dataset.from_arrays(X, y)


def assign_labels_1d(X, w, hp, d_vs):
    """Labels for a 1-D dataset placing the first n-1 points' d_v exactly.

    The score numerators are linear in the label vector but always sum to
    zero across the dataset, so only n-1 of them are free: the last point
    absorbs the slack (its d_v is roughly the sum of the others, far from
    any prescribed value).
    """
    x = np.asarray(X, float)[:, 0]
    n = x.shape[0]
    assert len(d_vs) == n - 1 and np.all(x[:-1] != 0.0)
    s_xx = float(x @ x) / n
    t = np.asarray(d_vs, float) * snr_denominator(n, hp)
    A = -np.outer(np.ones(n - 1), x[:-1]) / n
    A[np.diag_indices(n - 1)] = x[:-1] * (n - 1) / n
    rhs = t + (x[:-1] * x[:-1]) * w[0] - s_xx * w[0]
    y = np.zeros(n)
    y[:-1] = np.linalg.solve(A, rhs)
    return y


def tuned_dataset(rng, hp, targets, w, n=8):
    """Random 1-D dataset whose first len(targets) points hit the given d_v."""
    X = rng.normal(1.0, 0.5, (n, 1))
    fillers = advantage_target(hp.alpha) + 2.0 + rng.uniform(0, 5, n - 1 - len(targets))
    y = assign_labels_1d(X, w, hp, list(targets) + fillers.tolist())
    return Dataset.from_arrays(X, y)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# membership errors inside |eps_v| (|z| + |eps_v|) <= 1, z = Phi_inv(alpha),
# for each alpha, where the advantage and privacy floor are series in eps_v
NEAR_ALPHAS = (0.25, 0.05, 0.01, 1e-4, 1e-12)
NEAR_EPS = np.array([s * m for m in (1e-12, 1e-9, 1e-6, 1e-3, 0.1)
                     for s in (1.0, -1.0)])


def edge_pair(z, inside, sign):
    """Adjacent floats e_in, e_out on the side of ``sign``, the last one
    that ``inside`` accepts and the first it does not, about the edge
    |e| (|z| + |e|) = 1 of the near-target region."""
    e = sign * (math.sqrt(z * z + 4.0) - abs(z)) / 2.0
    while not inside(e):
        e = math.nextafter(e, 0.0)
    while inside(out := math.nextafter(e, sign * math.inf)):
        e = out
    return e, out
