"""SpGEMM kernels: the paper's workload, plus the output-masked variant.

:class:`SpgemmKernel` owns its implementation *tier* — a
:class:`~repro.sparse.spgemm.suite.KernelSuite`, the (multiply, merge,
needs-sorted-input) triple Table VII and Fig. 15 compare.  ``"spgemm"``
is the vectorised ESC tier; the loop tiers are reached through the same
``kernel=`` seam as ``"spgemm:<tier>"`` (``unsorted-hash``,
``sorted-heap``, ``hybrid``, ``spa``), one communication schedule with
only the local computation swapped.

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
from ..sparse.spgemm.suite import get_suite
from ..sparse.spgemm.symbolic import symbolic_pattern
from .base import LocalKernel, TileSource

__all__ = ["MaskedSpgemmKernel", "SpgemmKernel"]


class SpgemmKernel(LocalKernel):
    """Sparse × sparse → sparse (the paper's Alg. 4 local kernel)."""

    name = "spgemm"
    postprocess_mask = True
    checkpointable = True
    row_batchable = True

    def __init__(self, tier="esc") -> None:
        self.suite = get_suite(tier)
        if self.suite.name != "esc":
            # the registry spelling of this instance (plans, info["kernel"])
            self.name = f"{type(self).name}:{self.suite.name}"

    def run_key_items(self) -> dict:
        """What a checkpoint's run fingerprint covers of this kernel: the
        tier, under the key it has always been fingerprinted by."""
        return {"suite": self.suite.name}

    def prepare_tiles(self, a_tile, b_tile):
        if self.suite.requires_sorted_inputs:
            return a_tile.sort_indices(), b_tile.sort_indices()
        return a_tile, b_tile

    def stage_multiply(self, state):
        return self.suite.local_multiply(state.a_recv, state.b_recv, state.semiring)

    def merge(self, parts, state):
        return self.suite.merge(parts, state.semiring)


class MaskedSpgemmKernel(SpgemmKernel):
    """Sparse × sparse → sparse, restricted to a sparse output mask."""

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

    def resolve_aux(self, a, b, *, mask=None, sample=None):
        super().resolve_aux(a, b, sample=sample)  # refuses sample=
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
        return mask, None

    def stage_multiply(self, state):
        return spgemm_masked(
            state.a_recv, state.b_recv, state.aux_batch, state.semiring
        )
