"""Synthetic transcriptomes and RNA-seq read simulation.

The paper's datasets (sugarbeet 130 M reads, whitefly 420 k reads,
"Schizophrenia" and Drosophila reference sets) are not redistributable;
this package generates synthetic equivalents with the properties that
drive the paper's results: long-tailed expression, alternative splicing
isoforms, and a long-tailed contig-length distribution.
"""

from repro.simdata.transcriptome import Gene, Isoform, Transcriptome, generate_transcriptome
from repro.simdata.expression import ExpressionModel, lognormal_expression
from repro.simdata.reads import ReadSimulator
from repro.simdata.datasets import DatasetRecipe, get_recipe, list_recipes, PaperScaleWorkload

__all__ = [
    "Gene",
    "Isoform",
    "Transcriptome",
    "generate_transcriptome",
    "ExpressionModel",
    "lognormal_expression",
    "ReadSimulator",
    "DatasetRecipe",
    "get_recipe",
    "list_recipes",
    "PaperScaleWorkload",
]
