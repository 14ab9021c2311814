"""The unified execution plane: one backend abstraction, four substrates.

Every plane in the repo ultimately plays the same game — dispatch work
units (event runs, hub commands) to workers, collect replies, keep FIFO
order per worker — yet before this package the in-process simulator,
the shard facade and the actor cluster each had a private dispatch
loop.  :mod:`repro.exec` is the shared substrate:

* :mod:`repro.exec.base` — :class:`ExecBackend` (``dispatch_run`` /
  ``dispatch_batch`` / ``query`` / ``checkpoint`` / ``restore`` /
  ``close`` over a submit/drain core) and :class:`ExecGroup`, the
  failure-safe fan-out used by the sharded service.
* :mod:`repro.exec.dispatch` — ``drive_batch`` (the in-process
  lockstep loop behind ``Simulation.run_batched`` and the batched
  ingest engine), ``coalesce_runs`` and ``CreditWindow`` (the one
  in-flight ledger of relaxed dispatch, on the hub and on the facade).
* :mod:`repro.exec.workers` — the ``hub`` worker (a full
  :class:`~repro.service.TrackingService`) and its command table,
  buildable wherever the backend places it.
* :mod:`repro.exec.local` — :class:`InprocBackend`,
  :class:`ThreadBackend`, :class:`ProcessBackend`.
* :mod:`repro.exec.remote` — :class:`ClusterBackend` and
  :class:`ExecHost`: workers on ``repro hub`` TCP actors.

Imports of the heavier backends are lazy (module ``__getattr__``) so
the runtime package can import the dispatchers without cycling through
the service layer.
"""

from .base import EXECUTORS, ExecBackend, ExecError, ExecGroup, ExecWorkerError
from .dispatch import CreditWindow, drive_batch

__all__ = [
    "EXECUTORS",
    "ClusterBackend",
    "CreditWindow",
    "ExecBackend",
    "ExecError",
    "ExecGroup",
    "ExecHost",
    "ExecWorkerError",
    "InprocBackend",
    "ProcessBackend",
    "ThreadBackend",
    "drive_batch",
    "make_backend",
    "make_group",
]

_LAZY = {
    "InprocBackend": "local",
    "ThreadBackend": "local",
    "ProcessBackend": "local",
    "make_backend": "local",
    "make_group": "local",
    "ClusterBackend": "remote",
    "ExecHost": "remote",
}


def __getattr__(name):
    """Lazily resolve backend classes (avoids runtime<->service cycles)."""
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.exec' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
