"""Truthful multi-dimensional auctions for cooperative mobile video
streaming, with a trace-driven simulator and brute-force verification
oracles.
"""

from .model import (
    BitrateLadder,
    UserProfile,
    UserState,
    WelfareBreakdown,
    buffer_gain,
    buffer_gain_gap,
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
    MarginalScoreSeq,
    MomdBid,
    MomdOutcome,
    brute_force_momd_optimum,
    brute_force_restricted_optimum,
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
    baseline_momd_bid,
    brute_force_bitrate_rows,
    build_momd_bid,
    optimal_bitrate_matrix,
    should_participate,
    truthful_price_vector,
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
    degradation_ratio,
    emit_capacity_trace,
    emit_encounter_trace,
    emit_results,
    generate_synthetic_traces,
    parse_capacity_trace,
    parse_encounter_trace,
)

__version__ = "0.1.0"
