"""CACTI-like first-order energy models for SRAM and DRAM accesses.

The absolute numbers follow widely published 65/45 nm characterizations
(e.g. the Eyeriss and Timeloop/Accelergy papers): a DRAM access costs two or
three orders of magnitude more energy than a small on-chip SRAM access, and
SRAM access energy grows roughly with the square root of its capacity.  The
reproduction only relies on those *relative* magnitudes: the evaluation
reports energy ratios between accelerator variants, exactly as the paper
does, so modest absolute inaccuracies cancel.
"""

from __future__ import annotations

import math

from repro.utils.validation import check_positive, check_positive_int

#: Energy of one DRAM word access (pJ per 32-bit word), LPDDR-class.
_DRAM_PJ_PER_WORD_32B = 160.0

#: Reference point for the SRAM scaling law: a 4 KiB (1024-word) scratchpad
#: costs roughly 1 pJ per 32-bit access in a 65 nm node.
_SRAM_REFERENCE_WORDS = 1024
_SRAM_REFERENCE_PJ = 1.0

#: Register-file-like floor: even a tiny buffer costs something per access.
_SRAM_FLOOR_PJ = 0.08


def dram_access_energy_pj(word_bits: int = 32) -> float:
    """Energy (pJ) of reading or writing one ``word_bits``-wide word of DRAM."""
    check_positive_int(word_bits, "word_bits")
    return _DRAM_PJ_PER_WORD_32B * (word_bits / 32.0)


def sram_access_energy_pj(capacity_words: int, word_bits: int = 32) -> float:
    """Energy (pJ) of one access to an SRAM of ``capacity_words`` words.

    The access energy of an SRAM macro grows approximately with the square
    root of its capacity (longer bitlines/wordlines), which is the scaling
    CACTI produces across the capacities of interest here.
    """
    check_positive_int(capacity_words, "capacity_words")
    check_positive_int(word_bits, "word_bits")
    scale = math.sqrt(capacity_words / _SRAM_REFERENCE_WORDS)
    energy = max(_SRAM_FLOOR_PJ, _SRAM_REFERENCE_PJ * scale)
    return energy * (word_bits / 32.0)


def mac_energy_pj(word_bits: int = 32) -> float:
    """Energy (pJ) of one multiply-accumulate in the PE datapath."""
    check_positive_int(word_bits, "word_bits")
    # ~3 pJ for a 32-bit MAC in 65 nm synthesized logic; scales ~quadratically
    # with operand width for the multiplier-dominated datapath.
    return 3.0 * (word_bits / 32.0) ** 2


def intersection_step_energy_pj() -> float:
    """Energy (pJ) of one coordinate-comparison step in the intersection unit."""
    check_positive(1.0, "one")
    return 0.3
