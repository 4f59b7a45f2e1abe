"""Quorum-replicated read/write register emulations, simulated and live.

The package bundles three protocol families (a single-writer emulation
with three-exchange reads, its multi-writer extension, and the classic
two-phase baseline), one deliberately unsound demonstration protocol, a
deterministic discrete-event simulator with crash injection, atomicity
checkers, and a small TCP runner.

The TCP runner, with its sockets and threads, loads on first use: a
simulated run never imports it. Client, ServerDaemon,
membership_from_json, merge_histories and runner itself resolve through
the module's __getattr__.
"""

from .core import (
    BOTTOM,
    BindFailure,
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

__version__ = "0.1.0"

_RUNNER_NAMES = frozenset(
    {"Client", "ServerDaemon", "membership_from_json", "merge_histories"})


def __getattr__(name: str):
    # import_module, not `from . import runner`: the latter looks the
    # name up here first and comes back to this function. importlib is
    # imported here too, which a simulated run then never loads
    if name == "runner" or name in _RUNNER_NAMES:
        from importlib import import_module
        runner = import_module(".runner", __name__)
        return runner if name == "runner" else getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
