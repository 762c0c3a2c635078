"""SpGEMM kernels: the paper's workload, plus the output-masked variant.

:class:`SpgemmKernel` is the default and reproduces the pre-seam
behaviour bit-for-bit: stage products via the configured
:class:`~repro.sparse.spgemm.suite.KernelSuite` and merges via the
suite's merge routine — the exact calls the execution plan used to make
inline.

:class:`MaskedSpgemmKernel` computes ``mask ∘ (A ⊗ B)`` by running
:func:`repro.sparse.spgemm.masked.spgemm_masked` at every stage against
the batch's block of the mask (the aux operand, distributed like the
output).  Stage partials then carry only masked entries, so the merge
(plain suite merge — duplicate column/row keys sum under the semiring's
add) never materialises unmasked intermediates: the memory win of masked
SpGEMM survives distribution.  When no mask is supplied the driver
synthesises one from the symbolic pass — ``symbolic3d``'s structure
prediction becomes the mask-producing prologue
(:func:`repro.sparse.spgemm.symbolic.symbolic_pattern`).
"""

from __future__ import annotations

from ..errors import DistributionError
from ..sparse.spgemm.masked import spgemm_masked
from ..sparse.spgemm.symbolic import symbolic_pattern
from .base import LocalKernel, TileSource

__all__ = ["MaskedSpgemmKernel", "SpgemmKernel"]


class SpgemmKernel(LocalKernel):
    """Sparse × sparse → sparse (the paper's Alg. 4 local kernel)."""

    name = "spgemm"
    postprocess_mask = True
    checkpointable = True
    row_batchable = True

    def stage_multiply(self, state):
        return state.suite.local_multiply(state.a_recv, state.b_recv, state.semiring)

    def merge(self, parts, state):
        return state.suite.merge(parts, state.semiring)


class MaskedSpgemmKernel(SpgemmKernel):
    """Sparse × sparse → sparse, restricted to a sparse output mask.

    ``complement=True`` keeps entries *outside* the mask instead (the
    anti-mask form used by e.g. triangle-free fill-in analysis).
    """

    name = "masked_spgemm"
    aux_kind = "sparse"
    # the driver may synthesise the mask from the symbolic pass when the
    # caller does not supply one.
    aux_mode = "optional"
    # the mask is consumed inside the multiply, and neither checkpoint
    # fingerprints nor the transpose identity cover it
    postprocess_mask = False
    checkpointable = False
    row_batchable = False

    def __init__(self, complement: bool = False) -> None:
        self.complement = bool(complement)

    def resolve_aux(self, a, b, *, mask=None, sample=None, complement=False):
        super().resolve_aux(a, b, sample=sample)  # refuses sample=
        kern = MaskedSpgemmKernel(complement=True) if complement else self
        if mask is None:
            if isinstance(a, TileSource) or isinstance(b, TileSource):
                raise DistributionError(
                    'kernel="masked_spgemm" needs mask= (a global sparse '
                    "pattern shaped like the product) on resident operands"
                )
            # symbolic pass as the mask-producing prologue: the product
            # pattern keeps every structural nonzero, so this matches the
            # unmasked product while exercising the masked pipeline.
            mask = symbolic_pattern(a, b)
        return kern, mask, None

    def stage_multiply(self, state):
        return spgemm_masked(
            state.a_recv,
            state.b_recv,
            state.aux_batch,
            state.semiring,
            complement=self.complement,
        )
