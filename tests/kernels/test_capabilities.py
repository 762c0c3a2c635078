"""The kernel capability table in DESIGN.md is generated from the flags
the drivers consult — this test regenerates it and fails when the
document and the code disagree."""

from pathlib import Path

from repro.kernels import available_kernels, get_kernel

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"

HEADER = (
    "| kernel | `mask=` as postprocess filter | `checkpoint_dir`/`resume`/"
    "`heal` | `batched_summa3d_rows` | resident operands | serve heal |"
)


def capability_rows():
    def mark(flag):
        return "yes" if flag else "—"

    rows = []
    for name in available_kernels():
        k = get_kernel(name)
        resident = {
            ("sparse", "sparse"): "`multiply(ha, hb)`",
            ("sparse", "dense"): "`spmm(ha, x)`",
        }.get((k.a_kind, k.b_kind), "—")
        rows.append(
            f"| `{name}` | {mark(k.postprocess_mask)} | "
            f"{mark(k.checkpointable)} | {mark(k.row_batchable)} | "
            f"{resident} | {mark(k.checkpointable)} |"
        )
    return rows


def test_design_md_table_matches_the_flags():
    lines = DESIGN.read_text().splitlines()
    at = lines.index(HEADER)
    assert lines[at + 2:at + 2 + len(available_kernels())] == capability_rows()


def test_masked_kernel_does_not_inherit_capabilities():
    """``MaskedSpgemmKernel`` extends ``SpgemmKernel`` but consumes its
    mask inside the multiply, which neither checkpoint fingerprints nor
    the transpose identity cover: it must reset all three flags."""
    k = get_kernel("masked_spgemm")
    assert not (k.postprocess_mask or k.checkpointable or k.row_batchable)
