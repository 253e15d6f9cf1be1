"""Pluggable SAT backends.

The registry maps backend names to classes; :func:`available_backends`
filters it down to what the current environment can actually run (the
``pysat`` entry needs the python-sat package, ``dimacs`` needs a solver
command in ``REPRO_SAT_BINARY``).  The :class:`~repro.solver.solver.Solver`
facade resolves a ``backend=`` name through :func:`backend_class` and
hands each bit-blasted CNF to one instance of it.

The external backends are registered by ``"module:Class"`` path and
imported the first time they are named, so a default check never imports
:mod:`~repro.solver.backends.dimacs` or
:mod:`~repro.solver.backends.pysat_backend` (import their classes from
those modules).
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Type, Union

from repro.solver.backends.base import BackendAnswer, SolverBackend
from repro.solver.backends.builtin import BuiltinBackend
from repro.solver.backends.oracle import (GUESS_PATTERNS, MAX_GUESS_VARIABLES,
                                          OracleAnswer, constant_answer,
                                          evaluation_answer, preanswer)

#: Name → class (or ``"module:Class"`` path, loaded on first use) registry,
#: in default preference order.
BACKENDS: Dict[str, Union[Type[SolverBackend], str]] = {
    "builtin": BuiltinBackend,
    "pysat": "repro.solver.backends.pysat_backend:PysatBackend",
    "dimacs": "repro.solver.backends.dimacs:DimacsBackend",
}


def _load(name: str) -> Type[SolverBackend]:
    """The class registered as ``name``, importing its module if needed."""
    entry = BACKENDS[name]
    if isinstance(entry, str):
        module, _, attribute = entry.partition(":")
        entry = getattr(importlib.import_module(module), attribute)
    return entry


def available_backends() -> List[str]:
    """Names of the backends the current environment can instantiate."""
    return [name for name in BACKENDS if _load(name).available()]


def backend_class(name: str) -> Type[SolverBackend]:
    """The registry class for ``name``, checked to run here.

    Raises :class:`ValueError` for names not in the registry and
    :class:`RuntimeError` when the named backend exists but cannot run
    here (missing package / unset environment).
    """
    if name not in BACKENDS:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown solver backend {name!r} (known: {known})")
    cls = _load(name)
    if not cls.available():
        raise RuntimeError(f"solver backend {name!r} is not available "
                           "in this environment")
    return cls


def create_backend(name: str, **kwargs) -> SolverBackend:
    """Instantiate a backend by registry name; raises like
    :func:`backend_class` for an unknown or unavailable name."""
    return backend_class(name)(**kwargs)


__all__ = [
    "BACKENDS",
    "BackendAnswer",
    "BuiltinBackend",
    "GUESS_PATTERNS",
    "MAX_GUESS_VARIABLES",
    "OracleAnswer",
    "SolverBackend",
    "available_backends",
    "backend_class",
    "constant_answer",
    "create_backend",
    "evaluation_answer",
    "preanswer",
]
