"""Truthful multi-dimensional auctions for cooperative mobile video
streaming, with a trace-driven simulator and brute-force verification
oracles.
"""

from .model import (
    BitrateLadder,
    UserProfile,
    UserState,
    buffer_gain,
    cost_total,
    degradation_loss,
    quality_gain,
    utility_total,
    welfare,
)
from .somd import (
    InsufficientBiddersError,
    ScoreFunction,
    SomdBid,
    SomdOutcome,
    brute_force_somd_optimum,
    optimal_somd_bid,
    resolve_second_score,
    score,
)
from .momd import (
    ConditionReport,
    InstanceTooLargeError,
    InsufficientMarginalScoresError,
    MomdBid,
    MomdOutcome,
    brute_force_momd_optimum,
    check_sufficient_conditions,
    marginal_scores,
    momd_score,
    resolve_from_marginal_scores,
    resolve_vickrey_score,
    validate_assumption1,
)
from .strategy import (
    AdaptationPolicy,
    ParticipationConfig,
    baseline_bitrate,
    brute_force_bitrate_rows,
    build_momd_bid,
    should_participate,
)
from .engine import (
    SimConfig,
    SimEvent,
    SimResult,
    SimulationHorizonError,
    run_comparison,
    run_simulation,
)
from .traceio import (
    CapacityTrace,
    EncounterTrace,
    TraceParseError,
    TraceUnderrunError,
    emit_capacity_trace,
    emit_encounter_trace,
    emit_results,
    generate_synthetic_traces,
    parse_capacity_trace,
    parse_encounter_trace,
)

__version__ = "0.1.0"
