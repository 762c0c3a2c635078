"""Simulated MPI runtime.

The paper runs on a Cray XC40 with up to 262,144 cores; this environment
has neither MPI nor that machine.  Per the reproduction's substitution
rule, :mod:`repro.simmpi` provides a deterministic in-process SPMD runtime
with mpi4py-like semantics:

* :func:`run_spmd` launches ``p`` ranks as threads, each executing the same
  function with its own :class:`SimComm`;
* :class:`SimComm` supports ``barrier`` / ``bcast`` / ``allreduce`` /
  ``allgather`` / ``alltoall`` / ``alltoallv`` / ``split`` with MPI
  collective semantics, plus tag-matched
  ``send``/``recv``/``isend``/``irecv`` point-to-point;
* every collective is **metered**: a :class:`CommTracker` records payload
  bytes, message counts and communicator sizes per named algorithm step,
  which the α–β machine model turns into projected times at paper scale.

All data movement is real (payloads actually flow between ranks), so
algorithm correctness and communication *volumes* are exact; only
wall-clock speed differs from real MPI.

For resilience testing the runtime also carries a deterministic fault
layer (:mod:`repro.simmpi.faults`): a seeded :class:`FaultPlan` drives a
:class:`FaultInjector` hooked into every communicator operation, and
per-message checksums (:mod:`repro.simmpi.serialization`) catch injected
in-flight corruption.  Every blocking rendezvous is supervised by a hang
watchdog (wait-for graph in :class:`~repro.simmpi.comm.World`).  A rank
that dies ends its region with a :class:`~repro.errors.RankCrashError`;
what happens next is the driver's business (:mod:`repro.resilience`).
"""

from .comm import SimComm
from .engine import run_spmd
from .faults import FaultEvent, FaultInjector, FaultPlan, FaultSpec
from .serialization import payload_checksum, payload_nbytes
from .tracker import CommEvent, CommTracker

__all__ = [
    "SimComm",
    "run_spmd",
    "payload_nbytes",
    "payload_checksum",
    "CommTracker",
    "CommEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "FaultEvent",
]
