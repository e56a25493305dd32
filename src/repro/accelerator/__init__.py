"""ExTensor-like sparse tensor algebra accelerator model.

The paper integrates overbooking into ExTensor, a coordinate-space-tiled,
intersection-based SpMSpM accelerator with a DRAM / global buffer / PE-buffer
memory hierarchy (Fig. 4).  This subpackage models that accelerator:

* :mod:`repro.accelerator.config` — architectural geometry (buffer sizes,
  PE count, bandwidths, clock), including the paper's absolute configuration
  and the scaled configuration used with the synthetic workload suite.
* :mod:`repro.accelerator.pe` — the processing-element datapath model.
* :mod:`repro.accelerator.extensor` — the three evaluated variants
  (ExTensor-N, ExTensor-P, ExTensor-OB) wired to the analytical engine.
"""

from repro.accelerator.config import ArchitectureConfig, paper_extensor_config, scaled_default_config
from repro.accelerator.extensor import (
    AcceleratorVariant,
    ExTensorModel,
    VARIANT_NAIVE,
    VARIANT_OVERBOOKING,
    VARIANT_PRESCIENT,
    default_variants,
)

__all__ = [
    "ArchitectureConfig",
    "paper_extensor_config",
    "scaled_default_config",
    "AcceleratorVariant",
    "ExTensorModel",
    "VARIANT_NAIVE",
    "VARIANT_PRESCIENT",
    "VARIANT_OVERBOOKING",
    "default_variants",
]
