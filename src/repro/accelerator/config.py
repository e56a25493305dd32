"""Architecture configuration for the ExTensor-like accelerator model."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.utils.validation import check_fraction, check_positive, check_positive_int


@dataclass(frozen=True)
class ArchitectureConfig:
    """Geometry and technology parameters of the modeled accelerator.

    Capacities are expressed in *data words* per operand partition: the global
    buffer is assumed to be statically partitioned between the stationary
    operand (A), the streaming operand (B) and the output, as in ExTensor, and
    the capacities below refer to the A / B partitions individually.

    Attributes
    ----------
    name:
        Configuration name used in reports.
    num_pes:
        Number of processing elements, each performing one effectual multiply
        per cycle.
    glb_capacity_words:
        Global-buffer capacity (words) available to one operand's tiles.
    pe_buffer_capacity_words:
        Per-PE buffer capacity (words) available to one operand's subtiles.
    dram_bandwidth_words_per_cycle:
        Sustained DRAM bandwidth in words per accelerator cycle.
    glb_bandwidth_words_per_cycle:
        Aggregate global-buffer read bandwidth toward the PE array.
    frequency_hz:
        Clock frequency (used only to convert cycles into seconds).
    word_bits:
        Width of a data word.
    metadata_words_per_nonzero:
        Compressed-format metadata moved alongside each nonzero value
        (CSF with one coordinate per nonzero ⇒ 1.0).
    glb_fifo_fraction / pe_fifo_fraction:
        Fraction of the respective buffer reserved as the Tailors FIFO-managed
        streaming region when a tile overbooks it (Section 3.3: sized
        statically to hide the parent round-trip latency).
    """

    name: str = "extensor-like"
    num_pes: int = 16
    glb_capacity_words: int = 8192
    pe_buffer_capacity_words: int = 256
    dram_bandwidth_words_per_cycle: float = 4.0
    glb_bandwidth_words_per_cycle: float = 64.0
    frequency_hz: float = 1.0e9
    word_bits: int = 32
    metadata_words_per_nonzero: float = 1.0
    glb_fifo_fraction: float = 0.125
    pe_fifo_fraction: float = 0.125

    def __hash__(self) -> int:
        # Cached: grid evaluation hashes the same configuration thousands of
        # times (report memo keys, batch dedup keys, tiler memo keys).  The
        # field tuple matches the dataclass-generated __eq__, preserving the
        # hash/eq contract.
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.name, self.num_pes, self.glb_capacity_words,
                           self.pe_buffer_capacity_words,
                           self.dram_bandwidth_words_per_cycle,
                           self.glb_bandwidth_words_per_cycle,
                           self.frequency_hz, self.word_bits,
                           self.metadata_words_per_nonzero,
                           self.glb_fifo_fraction, self.pe_fifo_fraction))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self):
        # String hashes are salted per process: never ship a cached hash
        # across the scheduler's process boundary.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __post_init__(self) -> None:
        check_positive_int(self.num_pes, "num_pes")
        check_positive_int(self.glb_capacity_words, "glb_capacity_words")
        check_positive_int(self.pe_buffer_capacity_words, "pe_buffer_capacity_words")
        check_positive(self.dram_bandwidth_words_per_cycle, "dram_bandwidth_words_per_cycle")
        check_positive(self.glb_bandwidth_words_per_cycle, "glb_bandwidth_words_per_cycle")
        check_positive(self.frequency_hz, "frequency_hz")
        check_positive_int(self.word_bits, "word_bits")
        check_positive(self.metadata_words_per_nonzero + 1.0, "metadata_words_per_nonzero")
        check_fraction(self.glb_fifo_fraction, "glb_fifo_fraction", inclusive_low=False,
                       inclusive_high=False)
        check_fraction(self.pe_fifo_fraction, "pe_fifo_fraction", inclusive_low=False,
                       inclusive_high=False)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def glb_fifo_words(self) -> int:
        """Tailors FIFO-region size of the global buffer (at least one word)."""
        return max(1, int(self.glb_capacity_words * self.glb_fifo_fraction))

    @property
    def pe_fifo_words(self) -> int:
        """Tailors FIFO-region size of a PE buffer (at least one word)."""
        return max(1, int(self.pe_buffer_capacity_words * self.pe_fifo_fraction))

    @property
    def traffic_words_per_nonzero(self) -> float:
        """Words moved per nonzero transferred (value + metadata)."""
        return 1.0 + self.metadata_words_per_nonzero

    def with_overrides(self, **overrides) -> "ArchitectureConfig":
        """A copy of this configuration with the given fields replaced."""
        return replace(self, **overrides)


def paper_extensor_config() -> ArchitectureConfig:
    """The configuration of the original ExTensor paper, as used in Section 5.

    30 MB global buffer, 128 PEs, 68.25 GB/s of DRAM bandwidth at 1 GHz.  With
    32-bit words the global buffer holds ~7.9 M words; assuming an even split
    between the two operands and the output, each operand partition gets
    ~2.6 M words.  68.25 GB/s at 1 GHz is ~17 words per cycle.
    """
    glb_words_total = 30 * (1 << 20) * 8 // 32
    per_operand = glb_words_total // 3
    return ArchitectureConfig(
        name="extensor-paper",
        num_pes=128,
        glb_capacity_words=per_operand,
        pe_buffer_capacity_words=64 * 1024 * 8 // 32 // 3,
        dram_bandwidth_words_per_cycle=68.25e9 / 4.0 / 1.0e9,
        glb_bandwidth_words_per_cycle=256.0,
        frequency_hz=1.0e9,
        word_bits=32,
    )


def scaled_default_config() -> ArchitectureConfig:
    """The configuration used with the scaled synthetic workload suite.

    The synthetic workloads are ~1/16–1/64 of the original matrices, so the
    buffer capacities are scaled down by a comparable factor to preserve the
    footprint-to-capacity ratios that determine tiling behaviour (how many
    passes over the streaming operand are needed, how often tiles overbook).
    """
    return ArchitectureConfig(
        name="extensor-scaled",
        num_pes=16,
        glb_capacity_words=8192,
        pe_buffer_capacity_words=256,
        dram_bandwidth_words_per_cycle=4.0,
        glb_bandwidth_words_per_cycle=64.0,
        frequency_hz=1.0e9,
        word_bits=32,
    )
