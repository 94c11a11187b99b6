"""Mutual-information-maximizing quantization and discrete LDPC decoding.

The package designs channel quantizers with information-bottleneck-family
algorithms, builds lookup tables for factor-graph nodes that maximize the
information their output messages carry, and assembles 4-bit lookup-table
LDPC decoders via discrete density evolution, with min-sum and belief-
propagation baselines for comparison.
"""

from .channels import (
    AwgnDiscretization,
    DmcSpec,
    build_ask_awgn,
    build_bpsk_awgn,
    build_bpsk_awgn_sigma,
    build_bsc,
    ebn0_db_to_noise_std,
    load_dmc,
    save_dmc,
)
from .dde import LdpcEnsembleDesign, design_bpsk_decoder, design_decoder, load_design, save_design
from .decoders import (
    BerPoint,
    ber_sweep,
    write_ber_csv,
)
from .ib import (
    IbDesign,
    Quantizer,
    agglomerative_ib,
    dp_optimal_quantizer,
    ib_curve,
    ib_objective,
    iterative_ib,
    kl_means_ib,
)
from .info import (
    ConditionalDist,
    JointXY,
    Pmf,
    avg_kl_distortion,
    entropy,
    kl_divergence,
    mutual_information,
    push_through_quantizer,
)
from .ldpc import LdpcCode, construct_regular_ldpc, count_four_cycles
from .maxlut import MessageDist, NodeFunction, NodeLut, build_max_lut, cascade_node

__all__ = [
    "AwgnDiscretization", "DmcSpec", "build_ask_awgn", "build_bpsk_awgn",
    "build_bpsk_awgn_sigma", "build_bsc", "ebn0_db_to_noise_std", "load_dmc", "save_dmc",
    "LdpcEnsembleDesign", "design_bpsk_decoder", "design_decoder", "load_design", "save_design",
    "BerPoint", "ber_sweep", "write_ber_csv",
    "IbDesign", "Quantizer", "agglomerative_ib", "dp_optimal_quantizer",
    "ib_curve", "ib_objective", "iterative_ib", "kl_means_ib",
    "ConditionalDist", "JointXY", "Pmf", "avg_kl_distortion", "entropy",
    "kl_divergence", "mutual_information", "push_through_quantizer",
    "LdpcCode", "construct_regular_ldpc", "count_four_cycles",
    "MessageDist", "NodeFunction", "NodeLut", "build_max_lut", "cascade_node",
]

__version__ = "0.1.0"
