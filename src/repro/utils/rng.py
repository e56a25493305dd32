"""Deterministic random-number handling.

Every stochastic component of the reproduction (synthetic tensor generators,
Swiftiles tile sampling, workload suites) accepts either a seed or an existing
:class:`numpy.random.Generator`.  Routing everything through
:func:`resolve_rng` keeps experiments reproducible run-to-run, which the
golden-report tests and the byte-identical artifacts rely on.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: The type accepted everywhere a source of randomness is needed.
RandomState = Union[int, np.random.Generator, None]

_DEFAULT_SEED = 0xA11CE


def resolve_rng(rng: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed, generator, or ``None``.

    Parameters
    ----------
    rng:
        ``None`` (use the library-wide default seed), an integer seed, or an
        already-constructed generator (returned unchanged).

    Returns
    -------
    numpy.random.Generator
        A generator ready for use.

    Examples
    --------
    >>> g = resolve_rng(7)
    >>> isinstance(g, np.random.Generator)
    True
    >>> resolve_rng(g) is g
    True
    """
    if rng is None:
        return np.random.default_rng(_DEFAULT_SEED)
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(
        f"rng must be None, an int seed, or a numpy Generator; got {type(rng).__name__}"
    )
