"""Pluggable SAT backends.

The registry maps backend names to classes; :func:`available_backends`
filters it down to what the current environment can actually run (the
``pysat`` entry needs the python-sat package, ``dimacs`` needs a solver
command in ``REPRO_SAT_BINARY``).  The :class:`~repro.solver.solver.Solver`
facade resolves a ``backend=`` name through :func:`backend_class` and
hands each bit-blasted CNF to one instance of it.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.solver.backends.base import BackendAnswer, SolverBackend
from repro.solver.backends.builtin import BuiltinBackend
from repro.solver.backends.dimacs import SAT_BINARY_ENV, DimacsBackend
from repro.solver.backends.oracle import (GUESS_PATTERNS, MAX_GUESS_VARIABLES,
                                          OracleAnswer, constant_answer,
                                          evaluation_answer, preanswer)
from repro.solver.backends.pysat_backend import PysatBackend

#: Name → class registry, in default preference order.
BACKENDS: Dict[str, Type[SolverBackend]] = {
    "builtin": BuiltinBackend,
    "pysat": PysatBackend,
    "dimacs": DimacsBackend,
}


def available_backends() -> List[str]:
    """Names of the backends the current environment can instantiate."""
    return [name for name, cls in BACKENDS.items() if cls.available()]


def backend_class(name: str) -> Type[SolverBackend]:
    """The registry class for ``name``, checked to run here.

    Raises :class:`ValueError` for names not in the registry and
    :class:`RuntimeError` when the named backend exists but cannot run
    here (missing package / unset environment).
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown solver backend {name!r} (known: {known})")
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
    "DimacsBackend",
    "GUESS_PATTERNS",
    "MAX_GUESS_VARIABLES",
    "OracleAnswer",
    "PysatBackend",
    "SAT_BINARY_ENV",
    "SolverBackend",
    "available_backends",
    "backend_class",
    "constant_answer",
    "create_backend",
    "evaluation_answer",
    "preanswer",
]
