"""Workload generation: document corpora and request-arrival processes.

Two client-population models live here: the per-client process model
(``generators`` + ``scenarios``, faithful but bounded at ~10^3–10^4
requests) and the aggregate *fluid* model (``fluid``), which drives a
Poisson/Zipf arrival stream through array-backed records so a single
process reaches 10^6+ requests in seconds.  See ``docs/SCALING.md``.
"""

from .adversaries import (
    ADVERSARIES,
    AdversaryInfo,
    BACKGROUND_CLIENT,
    CHURN_CLIENT,
    FLOOD_CLIENT,
    SLOWDRIP_CLIENT,
    adversary_names,
    make_adversary,
)
from .corpus import (
    CGISpec,
    bimodal_corpus,
    Corpus,
    Document,
    KB,
    MB,
    adl_corpus,
    html_site_corpus,
    single_hot_file,
    uniform_corpus,
)
from .scenarios import DEFAULT_PROFILES, Scenario
from .logs import (
    CLFEntry,
    format_clf,
    parse_clf,
    workload_from_clf,
    write_clf,
)
from .fluid import (
    FluidRecords,
    FluidResult,
    FluidScenario,
    run_fluid,
)
from .generators import (
    Arrival,
    Workload,
    burst_workload,
    hot_file_sampler,
    poisson_workload,
    uniform_burst,
    uniform_sampler,
    weighted_sampler,
    zipf_sampler,
)

__all__ = [
    "ADVERSARIES",
    "AdversaryInfo",
    "Arrival",
    "BACKGROUND_CLIENT",
    "CHURN_CLIENT",
    "FLOOD_CLIENT",
    "SLOWDRIP_CLIENT",
    "adversary_names",
    "make_adversary",
    "bimodal_corpus",
    "CGISpec",
    "CLFEntry",
    "DEFAULT_PROFILES",
    "Scenario",
    "Corpus",
    "Document",
    "FluidRecords",
    "FluidResult",
    "FluidScenario",
    "KB",
    "MB",
    "Workload",
    "adl_corpus",
    "burst_workload",
    "hot_file_sampler",
    "html_site_corpus",
    "poisson_workload",
    "run_fluid",
    "single_hot_file",
    "uniform_burst",
    "uniform_corpus",
    "uniform_sampler",
    "format_clf",
    "parse_clf",
    "weighted_sampler",
    "workload_from_clf",
    "write_clf",
    "zipf_sampler",
]
