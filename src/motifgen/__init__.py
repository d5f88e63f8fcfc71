"""Temporal graph generation toolkit built on motif-transition processes.

Extract transition statistics from a timestamped edge stream
(:func:`extract_profile`), synthesize new streams that mimic them
(:func:`generate`), and evaluate fidelity through global statistics, KS
tests and motif-spectrum comparison (:func:`compare_report`).
"""

from .codec import (
    CODE_01,
    STOP,
    MotifCode,
    MotifEncodingError,
    encode,
    enumerate_codes,
    transition_type_count,
)
from .counting import SpectrumCounts, count_motifs, count_spectra
from .events import (
    EdgeListParseError,
    EdgeListValidationError,
    Event,
    TemporalGraph,
    load_events,
    parse_events,
    save_events,
    static_projection,
    write_events,
)
from .extraction import (
    TransitionKey,
    TransitionProfile,
    cold_event_fraction,
    extract_profile,
    load_profile,
    observed_transition_type_count,
    save_profile,
)
from .generation import (
    GenerationConfig,
    GenerationError,
    generate,
    generate_cold_events,
    new_edge_probability,
    simulate,
)
from .stats import GlobalStats, compare_report, global_stats, ks_statistic, msre

__version__ = "0.1.0"

__all__ = [
    "CODE_01",
    "STOP",
    "Event",
    "EdgeListParseError",
    "EdgeListValidationError",
    "GenerationConfig",
    "GenerationError",
    "GlobalStats",
    "MotifCode",
    "MotifEncodingError",
    "SpectrumCounts",
    "TemporalGraph",
    "TransitionKey",
    "TransitionProfile",
    "cold_event_fraction",
    "compare_report",
    "count_motifs",
    "count_spectra",
    "encode",
    "enumerate_codes",
    "extract_profile",
    "generate",
    "generate_cold_events",
    "global_stats",
    "ks_statistic",
    "load_events",
    "load_profile",
    "msre",
    "new_edge_probability",
    "observed_transition_type_count",
    "parse_events",
    "save_events",
    "save_profile",
    "simulate",
    "static_projection",
    "transition_type_count",
    "write_events",
]
