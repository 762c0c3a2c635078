"""Local (single-process) SpGEMM kernels with pluggable accumulators.

The paper's Sec. IV-D centres on the choice of per-column accumulator and
on whether outputs are kept sorted:

========= ===================== ============== =====================
kernel    accumulator           output sorted  provenance
========= ===================== ============== =====================
``hash``  hash table            no (sort-free) this paper (Sec. IV-D)
``heap``  k-way heap merge      yes            prior SUMMA3D [13]
``hybrid``heap or hash + sort   yes            Nagasaka et al. [25]
``spa``   dense sparse accum.   yes            Gilbert et al. [21]
``esc``   table or sort + add   yes            vectorised fast path
========= ===================== ============== =====================

``esc`` (expansion / sort / compress) is this reproduction's
NumPy-vectorised production default — in CPython the per-element loops of
the classic accumulators cannot compete with a sort at C speed, so the
repo-wide default favours it while the paper's hash/heap/hybrid kernels
remain faithful per-column implementations used by the Fig. 15 /
Table VII ablations.  It keeps their Gustavson-sized working set — one
chunk of output columns at a time, never all ``flops`` products of a tile
— and, where a chunk is dense, their sort-free accumulator (see :mod:`.esc`).
"""

from .suite import KernelSuite, get_suite, multiply
from .esc import spgemm_esc
from .hash import spgemm_hash
from .heap import spgemm_heap
from .hybrid import spgemm_hybrid
from .spa import spgemm_spa
from .reference import spgemm_reference
from .symbolic import symbolic_flops, symbolic_nnz

__all__ = [
    "KernelSuite",
    "get_suite",
    "multiply",
    "spgemm_esc",
    "spgemm_hash",
    "spgemm_heap",
    "spgemm_hybrid",
    "spgemm_spa",
    "spgemm_reference",
    "symbolic_flops",
    "symbolic_nnz",
]
