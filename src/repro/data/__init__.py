"""Synthetic workload generators and the scaled Table-V dataset registry."""

from .generators import (
    erdos_renyi,
    kmer_matrix,
    planted_partition,
    protein_similarity,
    rmat,
)
from .datasets import DATASETS, DatasetSpec, dataset_names, load_dataset

__all__ = [
    "erdos_renyi",
    "rmat",
    "protein_similarity",
    "planted_partition",
    "kmer_matrix",
    "DATASETS",
    "DatasetSpec",
    "dataset_names",
    "load_dataset",
]
