"""Quorum-replicated read/write register emulations, simulated and live.

The package bundles three protocol families (a single-writer emulation
with three-exchange reads, its multi-writer extension, and the classic
two-phase baseline), one deliberately unsound demonstration protocol, a
deterministic discrete-event simulator with crash injection, atomicity
checkers, and a small TCP runner.
"""

from .core import (
    BOTTOM,
    BindFailure,
    Completion,
    Config,
    FaultBudgetExceeded,
    HistoryTooLarge,
    InvalidFaultBound,
    Message,
    MODE_MWMR,
    MODE_SWMR,
    ModeMismatch,
    NotWellFormed,
    OhramError,
    OpId,
    OpRecord,
    ProcessId,
    QuorumUnreachable,
    ScheduleUnresolvable,
    StuckExecution,
    Tag,
    UntaggedHistory,
    parse_pid,
    quorum_size,
    validate_config,
)
from .protocols import PROTOCOL_NAMES, get_protocol
from .simnet import (
    RunResult,
    SimNet,
    history_from_json,
    history_to_json,
    replay_file,
    run_script,
    simulate,
)
from .checker import (
    BRUTE_MAX_OPS,
    Verdict,
    check_bruteforce,
    check_history,
    check_witness,
)
from .runner import Client, ServerDaemon, membership_from_json, merge_histories

__version__ = "0.1.0"
