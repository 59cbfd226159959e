"""Pausing the cyclic garbage collector around calls that build no cycles.

The token game and discovery build large graphs of markings, tokens, events
and samples, but never a reference cycle, so reference counting alone frees
all of it (``tests/test_net.py`` pins that on every bundled model). Python's
cyclic collector would still walk those objects again and again while they
are built; ``acyclic`` stops it from running during such a call. What the
call returns stays tracked, so the first collection after the call, due at
once, walks it once.
"""
from __future__ import annotations

import functools
import gc
from typing import Callable


def acyclic(fn: Callable) -> Callable:
    """Run ``fn`` with the cyclic garbage collector paused.

    Only a call that finds the collector enabled pauses it, and that call
    enables it again when it returns or raises. A nested call, or a call made
    while the caller keeps the collector disabled, leaves the state alone.
    The state is process-wide: other threads' collections pause as well.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused
