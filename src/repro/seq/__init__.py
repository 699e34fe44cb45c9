"""Sequence substrate: alphabet, k-mer codec, FASTA and SAM I/O.

Everything the Trinity reimplementation needs to touch nucleotide data
lives here.  The k-mer codec is numpy-vectorised (2 bits/base) because the
assembly stages spend most of their time extracting and hashing k-mers.
"""

from repro.seq.alphabet import (
    BASES,
    reverse_complement,
    sanitize,
)
from repro.seq.kmers import (
    encode_kmer,
    decode_kmer,
    kmer_array,
    canonical_kmers,
    kmer_set,
)
from repro.seq.kmer_index import (
    KmerIndex,
    KmerCounter,
    KmerCounterBuilder,
    KmerMap,
    decode_kmers,
    read_counter_dump,
    write_counter_dump,
)
from repro.seq.records import SeqRecord, ReadPair
from repro.seq.fasta import read_fasta, write_fasta, iter_fasta
from repro.seq.sam import SamRecord

__all__ = [
    "BASES",
    "reverse_complement",
    "sanitize",
    "encode_kmer",
    "decode_kmer",
    "kmer_array",
    "canonical_kmers",
    "kmer_set",
    "KmerIndex",
    "KmerCounter",
    "KmerCounterBuilder",
    "KmerMap",
    "decode_kmers",
    "read_counter_dump",
    "write_counter_dump",
    "SeqRecord",
    "ReadPair",
    "read_fasta",
    "write_fasta",
    "iter_fasta",
    "SamRecord",
]
